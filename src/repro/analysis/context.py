"""Per-module analysis context: parsed AST, import map, package class.

Rules never re-parse or re-resolve imports — they receive a
:class:`ModuleContext` with everything precomputed, so adding a rule
costs one AST walk, not another import-resolution pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Tuple, Type

#: Packages (and top-level modules) under ``repro`` whose behaviour must be
#: a pure function of (config, seed): everything the simulated clock or the
#: telemetry stream can observe.  Wall-clock reads, global RNG draws, and
#: unordered iteration are errors here.
DETERMINISTIC_CORE = frozenset(
    {
        "adversarial",
        "baselines",
        "clustering",
        "config",
        "core",
        "faults",
        "profiling",
        "rl",
        "sched",
        "sim",
        "ssd",
        "virt",
        "workloads",
        "zns",
    }
)


def module_package(path: str) -> Optional[str]:
    """The top-level ``repro`` subpackage a file belongs to.

    >>> module_package("src/repro/sim/engine.py")
    'sim'
    >>> module_package("src/repro/cli.py")
    'cli'
    >>> module_package("tests/sim/test_engine.py") is None
    True
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    rest = parts[idx + 1 :]
    if not rest:
        return None
    if len(rest) == 1:  # a top-level module like cli.py
        return PurePosixPath(rest[0]).stem
    return rest[0]


class _ImportMap(ast.NodeVisitor):
    """Maps local names to canonical dotted module paths.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    perf_counter`` binds ``perf_counter -> time.perf_counter``.  Rules
    resolve call targets through this map so aliasing cannot hide a
    banned call.
    """

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else alias.name.split(".")[0]
            self.names[local] = canonical

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports are repo-internal, never stdlib
        for alias in node.names:
            local = alias.asname or alias.name
            self.names[local] = f"{node.module}.{alias.name}"


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    #: Flat AST node list, built once and shared by every rule (the rule
    #: engine used to re-run ``ast.walk`` per rule per module).
    _walk_cache: Optional[List[ast.AST]] = field(
        default=None, repr=False, compare=False
    )
    #: Per-node-type views over ``_walk_cache``.
    _type_cache: Dict[Tuple[Type[ast.AST], ...], List[ast.AST]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_source(cls, path: str, source: str) -> "ModuleContext":
        """Parse ``source`` as the module at ``path``."""
        tree = ast.parse(source, filename=path)
        mapper = _ImportMap()
        mapper.visit(tree)
        return cls(
            path=path.replace("\\", "/"),
            source=source,
            tree=tree,
            lines=source.splitlines(),
            imports=mapper.names,
        )

    def walk(self) -> List[ast.AST]:
        """Every AST node in the module, computed once and cached.

        Rules iterate this shared list instead of calling ``ast.walk``
        themselves, so N rules cost one tree traversal, not N.
        """
        if self._walk_cache is None:
            self._walk_cache = list(ast.walk(self.tree))
        return self._walk_cache

    def nodes(self, *types: Type[ast.AST]) -> List[ast.AST]:
        """The module's nodes of the given type(s), from the shared walk.

        Per-type lists are memoized, so the common shape — several rules
        each scanning every ``ast.Call`` — reads one precomputed list.
        """
        key: Tuple[Type[ast.AST], ...] = tuple(types)
        cached = self._type_cache.get(key)
        if cached is None:
            cached = [n for n in self.walk() if isinstance(n, key)]
            self._type_cache[key] = cached
        return cached

    @property
    def package(self) -> Optional[str]:
        """The ``repro`` subpackage this module belongs to, if any."""
        return module_package(self.path)

    @property
    def is_core(self) -> bool:
        """Whether this module is part of the deterministic core."""
        return self.package in DETERMINISTIC_CORE

    def line_text(self, lineno: int) -> str:
        """The 1-indexed source line, or '' when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name for a Name/Attribute chain, if importable.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when ``np`` was imported as numpy; names bound locally (not by an
        import) resolve to ``None``.
        """
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self.imports.get(cursor.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))
