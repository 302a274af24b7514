"""Whole-program context for interprocedural fleetlint rules.

:class:`ProjectContext` indexes every parsed module into a symbol table
of functions and classes keyed by dotted qualname
(``repro.sim.engine.Simulator.run_until``), resolves call sites through
import aliases / ``self`` methods / typed attributes, and answers
reachability queries over the resulting call graph.

Resolution is deliberately best-effort and *static*: a call target we
cannot name resolves to ``None`` and simply adds no call-graph edge.
Rules built on top are therefore tuned to under-approximate (miss a
finding) rather than hallucinate one — the right bias for a lint gate
that must hold a zero-findings baseline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Union

from repro.analysis.context import ModuleContext

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method in the program."""

    qualname: str
    module: str
    context: ModuleContext
    node: FunctionNode
    #: Enclosing class qualname for methods, ``None`` for module-level.
    cls: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def package(self) -> Optional[str]:
        return self.context.package


@dataclass
class ClassInfo:
    """One class: its methods, typed attributes, and resolved bases."""

    qualname: str
    module: str
    context: ModuleContext
    node: ast.ClassDef
    #: method name -> function qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` name -> class qualname, from constructor-call
    #: assignments (``self.sim = Simulator(...)``) and annotations.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Resolved base-class qualnames (in-project bases only).
    bases: List[str] = field(default_factory=list)


class ProjectContext:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleContext]) -> None:
        #: Deterministic module order: sorted by path.
        self.modules: List[ModuleContext] = sorted(
            (m for m in modules), key=lambda m: m.path
        )
        #: dotted module name -> context, for in-tree files only.
        self.by_module: Dict[str, ModuleContext] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._callees: Dict[str, FrozenSet[str]] = {}
        self._callers: Optional[Dict[str, FrozenSet[str]]] = None
        for ctx in self.modules:
            name = ctx.module
            if name is not None:
                self.by_module[name] = ctx
        for ctx in self.modules:
            self._index_module(ctx)
        self._resolve_bases_and_attrs()

    # ------------------------------------------------------------------
    # indexing

    def _index_module(self, ctx: ModuleContext) -> None:
        mod = ctx.module
        if mod is None:
            return
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod}.{stmt.name}"
                self.functions[qual] = FunctionInfo(qual, mod, ctx, stmt)
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{mod}.{stmt.name}"
                info = ClassInfo(cls_qual, mod, ctx, stmt)
                self.classes[cls_qual] = info
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        meth_qual = f"{cls_qual}.{item.name}"
                        self.functions[meth_qual] = FunctionInfo(
                            meth_qual, mod, ctx, item, cls=cls_qual
                        )
                        info.methods[item.name] = meth_qual

    def _resolve_bases_and_attrs(self) -> None:
        # Bases first (attr inference consults inherited methods), then
        # attribute types from annotations and constructor-call assigns.
        for info in self.classes.values():
            for base in info.node.bases:
                resolved = self._resolve_class_expr(info.context, base)
                if resolved is not None:
                    info.bases.append(resolved)
        for info in self.classes.values():
            for item in info.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    typ = self._resolve_annotation(info.context, item.annotation)
                    if typ is not None:
                        info.attr_types.setdefault(item.target.id, typ)
            for item in info.node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(item):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target = node.target
                        if node.annotation is not None:
                            typ = self._resolve_annotation(
                                info.context, node.annotation
                            )
                            if (
                                typ is not None
                                and isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                info.attr_types.setdefault(target.attr, typ)
                            continue
                        value = node.value
                    if (
                        target is None
                        or not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"
                        or not isinstance(value, ast.Call)
                    ):
                        continue
                    typ = self._resolve_class_expr(info.context, value.func)
                    if typ is not None:
                        info.attr_types.setdefault(target.attr, typ)

    # ------------------------------------------------------------------
    # name resolution

    def canonical(self, dotted: str) -> str:
        """Chase ``__init__`` re-exports to a defining-module qualname.

        ``repro.sim.Simulator`` (imported from the package) canonicalizes
        to ``repro.sim.engine.Simulator`` when ``repro/sim/__init__.py``
        re-exports it.  Unknown names are returned unchanged.
        """
        seen: Set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            if (
                dotted in self.functions
                or dotted in self.classes
                or dotted in self.by_module
            ):
                return dotted
            head, _, attr = dotted.rpartition(".")
            ctx = self.by_module.get(head)
            if ctx is None or attr not in ctx.imports:
                return dotted
            dotted = ctx.imports[attr]
        return dotted

    def resolve_name(self, ctx: ModuleContext, name: str) -> Optional[str]:
        """A bare name in ``ctx`` -> qualname of the thing it denotes."""
        mod = ctx.module
        if mod is not None:
            local = f"{mod}.{name}"
            if local in self.functions or local in self.classes:
                return local
        imported = ctx.imports.get(name)
        if imported is not None:
            resolved = self.canonical(imported)
            if (
                resolved in self.functions
                or resolved in self.classes
                or resolved in self.by_module
            ):
                return resolved
            return imported
        return None

    def _resolve_dotted_expr(
        self, ctx: ModuleContext, node: ast.expr
    ) -> Optional[str]:
        """A Name/Attribute chain rooted at an import -> canonical qualname."""
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self.resolve_name(ctx, cursor.id)
        if root is None:
            return None
        for attr in reversed(parts):
            root = self.canonical(f"{root}.{attr}")
        return root

    def _resolve_class_expr(
        self, ctx: ModuleContext, node: ast.expr
    ) -> Optional[str]:
        """An expression naming a class -> class qualname, if in-project."""
        if isinstance(node, ast.Name):
            resolved = self.resolve_name(ctx, node.id)
        elif isinstance(node, ast.Attribute):
            resolved = self._resolve_dotted_expr(ctx, node)
        else:
            return None
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    def _resolve_annotation(
        self, ctx: ModuleContext, node: ast.expr
    ) -> Optional[str]:
        """A type annotation -> class qualname (unwrapping Optional/|None)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):  # Optional[X] -> X
            head = node.value
            if isinstance(head, ast.Name) and head.id == "Optional":
                return self._resolve_annotation(ctx, node.slice)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for side in (node.left, node.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    resolved = self._resolve_annotation(ctx, side)
                    if resolved is not None:
                        return resolved
            return None
        return self._resolve_class_expr(ctx, node)

    # ------------------------------------------------------------------
    # receiver typing and call resolution

    def _method_on(self, cls_qual: str, name: str) -> Optional[str]:
        """Find ``name`` on a class or (depth-first) its in-project bases."""
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    def _attr_type_on(self, cls_qual: str, name: str) -> Optional[str]:
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.attr_types:
                return info.attr_types[name]
            stack.extend(info.bases)
        return None

    def _local_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """name -> class qualname for a function's typed params and
        constructor-call locals (single-assignment approximation)."""
        types: Dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                typ = self._resolve_annotation(fn.context, arg.annotation)
                if typ is not None:
                    types[arg.arg] = typ
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                typ = self._resolve_class_expr(fn.context, node.value.func)
                if typ is not None:
                    types.setdefault(node.targets[0].id, typ)
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
            ):
                typ = self._resolve_annotation(fn.context, node.annotation)
                if typ is not None:
                    types.setdefault(node.target.id, typ)
        return types

    def receiver_type(
        self, fn: FunctionInfo, node: ast.expr, locals_: Optional[Dict[str, str]] = None
    ) -> Optional[str]:
        """Static type (class qualname) of a receiver expression in ``fn``.

        Handles ``self``, typed locals/params, ``self.attr`` chains
        (``self.sim.dispatcher``), and fresh constructor calls.
        """
        if isinstance(node, ast.Name):
            if node.id == "self" and fn.cls is not None:
                return fn.cls
            table = locals_ if locals_ is not None else self._local_types(fn)
            return table.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.receiver_type(fn, node.value, locals_)
            if base is not None:
                return self._attr_type_on(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            return self._resolve_class_expr(fn.context, node.func)
        return None

    def resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        locals_: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Qualname of a call's static target, or ``None`` if unknown.

        Constructor calls resolve to ``<Class>.__init__`` when the class
        defines one, else to the class qualname itself.
        """
        func = call.func
        resolved: Optional[str] = None
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(fn.context, func.id)
        elif isinstance(func, ast.Attribute):
            resolved = self._resolve_dotted_expr(fn.context, func)
            if resolved is None or (
                resolved not in self.functions and resolved not in self.classes
            ):
                receiver = self.receiver_type(fn, func.value, locals_)
                if receiver is not None:
                    method = self._method_on(receiver, func.attr)
                    if method is not None:
                        return method
        if resolved is None:
            return None
        resolved = self.canonical(resolved)
        if resolved in self.classes:
            init = self._method_on(resolved, "__init__")
            return init if init is not None else resolved
        if resolved in self.functions:
            return resolved
        return None

    # ------------------------------------------------------------------
    # call graph

    def callees(self, qualname: str) -> FrozenSet[str]:
        """Static call targets of one function (cached)."""
        cached = self._callees.get(qualname)
        if cached is not None:
            return cached
        fn = self.functions.get(qualname)
        if fn is None:
            result: FrozenSet[str] = frozenset()
            self._callees[qualname] = result
            return result
        locals_ = self._local_types(fn)
        targets: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                target = self.resolve_call(fn, node, locals_)
                if target is not None:
                    targets.add(target)
        result = frozenset(targets)
        self._callees[qualname] = result
        return result

    def callers(self, qualname: str) -> FrozenSet[str]:
        """Inverse edges, built on first use."""
        if self._callers is None:
            inverse: Dict[str, Set[str]] = {}
            for caller in sorted(self.functions):
                for callee in self.callees(caller):
                    inverse.setdefault(callee, set()).add(caller)
            self._callers = {k: frozenset(v) for k, v in inverse.items()}
        return self._callers.get(qualname, frozenset())

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """All functions transitively callable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                callee
                for callee in self.callees(current)
                if callee not in seen and callee in self.functions
            )
        return seen
