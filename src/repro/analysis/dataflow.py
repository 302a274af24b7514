"""Flow-sensitive tag propagation inside one function body.

:class:`TagAnalysis` abstract-interprets a function over environments
mapping local names to *tag sets* (opaque strings a rule chooses, e.g.
``rng:workload:ycsb`` for "holds the Generator of that named stream").
Tags enter the environment from a rule-supplied ``seed`` callback run on
every expression, and propagate through assignments, tuple unpacking,
``with ... as`` bindings, and attribute sources.

The lattice is sets-of-tags under union: branch joins union the arms'
environments, loop bodies run twice so a tag born in iteration N is
visible to statements textually above its birth in iteration N+1.  That
is enough to reach a fixpoint for this lattice because a second pass
only ever *adds* tags that the first pass produced.

The analysis also records, per tag, every *use site* — any expression
node carrying the tag that appears in a call argument, a return value,
a yield, or a subscripted/attribute draw — so rules can report where a
tagged value escapes or is consumed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

Env = Dict[str, FrozenSet[str]]

#: Called on each expression with the current environment; returns tags
#: the expression *produces* (beyond what propagation infers).
SeedFn = Callable[[ast.expr, Env], FrozenSet[str]]

_EMPTY: FrozenSet[str] = frozenset()


@dataclass
class TaggedUse:
    """One place a tagged value is consumed or escapes."""

    tag: str
    node: ast.expr
    #: 'call-arg' | 'return' | 'yield' | 'store-attr' | 'store-global'
    kind: str
    #: For call-arg uses: the Call node receiving the value.
    call: Optional[ast.Call] = None


@dataclass
class TagResult:
    """Everything the analysis learned about one function."""

    #: Environment after the function body (names still in scope).
    env: Env = field(default_factory=dict)
    #: All uses of tagged values, in source order.
    uses: List[TaggedUse] = field(default_factory=list)
    #: Tags returned (possibly inside tuples) from the function.
    returned: Set[str] = field(default_factory=set)
    #: Tags stored onto ``self.<attr>`` -> the attribute names.
    stored_on_self: Dict[str, Set[str]] = field(default_factory=dict)

    def tags_of(self, name: str) -> FrozenSet[str]:
        return self.env.get(name, _EMPTY)


def join(a: Env, b: Env) -> Env:
    """Union-merge two environments (branch join)."""
    out: Env = dict(a)
    for name, tags in b.items():
        out[name] = out.get(name, _EMPTY) | tags
    return out


class TagAnalysis:
    """Run tag propagation over one function body."""

    def __init__(self, seed: SeedFn) -> None:
        self._seed = seed
        self._uses: List[TaggedUse] = []
        self._returned: Set[str] = set()
        self._stored_on_self: Dict[str, Set[str]] = {}

    def run(
        self,
        fn: ast.AST,
        initial: Optional[Env] = None,
    ) -> TagResult:
        """Analyse ``fn`` (a FunctionDef or any statement list holder)."""
        env: Env = dict(initial or {})
        body = getattr(fn, "body", None)
        if isinstance(body, list):
            env = self._block(body, env)
        return TagResult(
            env=env,
            uses=list(self._uses),
            returned=set(self._returned),
            stored_on_self={k: set(v) for k, v in self._stored_on_self.items()},
        )

    # ------------------------------------------------------------------

    def _block(self, stmts: List[ast.stmt], env: Env) -> Env:
        for stmt in stmts:
            env = self._stmt(stmt, env)
        return env

    def _stmt(self, stmt: ast.stmt, env: Env) -> Env:
        if isinstance(stmt, ast.Assign):
            tags = self._expr(stmt.value, env)
            for target in stmt.targets:
                env = self._bind(target, stmt.value, tags, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return env
            tags = self._expr(stmt.value, env)
            return self._bind(stmt.target, stmt.value, tags, env)
        if isinstance(stmt, ast.AugAssign):
            tags = self._expr(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                prior = env.get(stmt.target.id, _EMPTY)
                env = dict(env)
                env[stmt.target.id] = prior | tags
            return env
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                tags = self._expr(stmt.value, env)
                for tag in tags:
                    self._returned.add(tag)
                    self._uses.append(TaggedUse(tag, stmt.value, "return"))
            return env
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value, env)
            return env
        if isinstance(stmt, ast.If):
            then_env = self._block(stmt.body, dict(env))
            else_env = self._block(stmt.orelse, dict(env))
            self._expr(stmt.test, env)
            return join(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = self._expr(stmt.iter, env)
            env = self._bind(stmt.target, stmt.iter, iter_tags, env)
            # Two passes: tags born late in the body reach its top.
            once = self._block(stmt.body, dict(env))
            merged = join(env, once)
            twice = self._block(stmt.body, dict(merged))
            return self._block(stmt.orelse, join(merged, twice))
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, env)
            once = self._block(stmt.body, dict(env))
            merged = join(env, once)
            twice = self._block(stmt.body, dict(merged))
            return self._block(stmt.orelse, join(merged, twice))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._expr(item.context_expr, env)
                if item.optional_vars is not None:
                    env = self._bind(
                        item.optional_vars, item.context_expr, tags, env
                    )
            return self._block(stmt.body, env)
        if isinstance(stmt, ast.Try):
            tried = self._block(stmt.body, dict(env))
            merged = join(env, tried)
            for handler in stmt.handlers:
                merged = join(merged, self._block(handler.body, dict(merged)))
            merged = self._block(stmt.orelse, merged)
            return self._block(stmt.finalbody, merged)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return env  # nested scopes are analysed separately, if at all
        # Remaining statements (Raise, Assert, Delete, Import, Global,
        # Pass, Break, Continue): visit expressions for use recording.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, env)
        return env

    def _bind(
        self, target: ast.expr, value: ast.expr, tags: FrozenSet[str], env: Env
    ) -> Env:
        if isinstance(target, ast.Name):
            env = dict(env)
            env[target.id] = tags  # strong update: rebinding clears tags
            return env
        if isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpack: without element tracking, every element may
            # carry any of the value's tags (weak but sound-for-union).
            for element in target.elts:
                env = self._bind(element, value, tags, env)
            return env
        if isinstance(target, ast.Attribute):
            for tag in tags:
                self._uses.append(TaggedUse(tag, value, "store-attr"))
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._stored_on_self.setdefault(target.attr, set()).add(tag)
            return env
        if isinstance(target, ast.Subscript):
            for tag in tags:
                self._uses.append(TaggedUse(tag, value, "store-attr"))
            return env
        return env

    def _expr(self, node: ast.expr, env: Env) -> FrozenSet[str]:
        tags = self._propagate(node, env) | self._seed(node, env)
        return tags

    def _propagate(self, node: ast.expr, env: Env) -> FrozenSet[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            # Drawing through an attribute keeps the owner's tags:
            # ``gen.bit_generator`` is still the tagged generator.
            return self._expr(node.value, env)
        if isinstance(node, ast.Call):
            self._expr(node.func, env)
            out: FrozenSet[str] = _EMPTY
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                arg_tags = self._expr(arg, env)
                for tag in arg_tags:
                    self._uses.append(TaggedUse(tag, arg, "call-arg", call=node))
                out |= arg_tags
            # A method call *on* a tagged object (gen.integers(...)) is a
            # use of that object's tags, and its result carries none by
            # default (draws return plain numbers) — the seed callback
            # re-tags results that should stay tagged.
            if isinstance(node.func, ast.Attribute):
                owner_tags = self._propagate(node.func.value, env)
                for tag in owner_tags:
                    self._uses.append(TaggedUse(tag, node.func, "call-arg", call=node))
            return _EMPTY if isinstance(node.func, ast.Attribute) else out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _EMPTY
            for element in node.elts:
                out |= self._expr(element, env)
            return out
        if isinstance(node, ast.Dict):
            out = _EMPTY
            for key in node.keys:
                if key is not None:
                    out |= self._expr(key, env)
            for value in node.values:
                out |= self._expr(value, env)
            return out
        if isinstance(node, ast.IfExp):
            self._expr(node.test, env)
            return self._expr(node.body, env) | self._expr(node.orelse, env)
        if isinstance(node, ast.BoolOp):
            out = _EMPTY
            for value in node.values:
                out |= self._expr(value, env)
            return out
        if isinstance(node, ast.BinOp):
            return self._expr(node.left, env) | self._expr(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand, env)
        if isinstance(node, ast.Subscript):
            self._expr(node.slice, env)
            return self._expr(node.value, env)
        if isinstance(node, ast.Starred):
            return self._expr(node.value, env)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            inner = node.value
            if inner is not None:
                tags = self._expr(inner, env)
                for tag in tags:
                    self._returned.add(tag)
                    self._uses.append(TaggedUse(tag, inner, "yield"))
            return _EMPTY
        if isinstance(node, ast.Await):
            return self._expr(node.value, env)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            for gen in node.generators:
                tags = self._expr(gen.iter, comp_env)
                comp_env = self._bind(gen.target, gen.iter, tags, comp_env)
            return self._expr(node.elt, comp_env)
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            for gen in node.generators:
                tags = self._expr(gen.iter, comp_env)
                comp_env = self._bind(gen.target, gen.iter, tags, comp_env)
            return self._expr(node.key, comp_env) | self._expr(
                node.value, comp_env
            )
        if isinstance(node, ast.NamedExpr):
            tags = self._expr(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = tags  # walrus mutates in place
            return tags
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self._expr(value, env)
            return _EMPTY
        if isinstance(node, ast.FormattedValue):
            return self._expr(node.value, env)
        if isinstance(node, ast.Lambda):
            return _EMPTY
        if isinstance(node, ast.Compare):
            self._expr(node.left, env)
            for comparator in node.comparators:
                self._expr(comparator, env)
            return _EMPTY
        return _EMPTY


def literal_str(node: ast.expr) -> Optional[str]:
    """The value of a string-literal expression, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
