"""``REPRO_*`` knobs: three names, each read from the environment in
exactly one function (ROADMAP aim 2, "one place knobs are resolved").

The strict on/off parser itself is exercised through its two users
(``tests/analysis/test_detsan.py``, ``tests/harness/test_snapshots.py``);
this file guards the shape: a fourth variable, or a second reader of an
existing one, has to show up here.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
KNOB = re.compile(r"REPRO_[A-Z][A-Z_]*")


def _reads(tree: ast.AST) -> set:
    """Nodes that read the process environment: ``os.environ.get(...)``,
    a loaded ``os.environ[...]``, ``os.getenv(...)``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func if node.func.attr == "getenv" else node.func.value
        else:
            continue
        if ast.unparse(target) in ("os.environ", "os.getenv"):
            found.add(node)
    return found


def _scan():
    """-> (every REPRO_* name in the source text,
           {knob: {function holding a literal of it outside a docstring
                   or an environment *write*}},
           {function that reads os.environ})."""
    names, literal_sites, env_readers = set(), {}, set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        names.update(KNOB.findall(text))
        tree = ast.parse(text)
        module = path.relative_to(SRC).with_suffix("").as_posix()
        outside_functions = _reads(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{module}:{func.name}"
            reads = _reads(func)
            if reads:
                env_readers.add(where)
                outside_functions -= reads
            written = {
                id(node.slice)
                for node in ast.walk(func)
                if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
            }
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and KNOB.fullmatch(node.value)
                    and id(node) not in written
                ):
                    literal_sites.setdefault(node.value, set()).add(where)
        if outside_functions:
            env_readers.add(f"{module}:<module>")
    return names, literal_sites, env_readers


def test_three_knobs_each_read_in_one_function():
    names, literal_sites, env_readers = _scan()
    assert names == {"REPRO_CACHE_DIR", "REPRO_SNAPSHOTS", "REPRO_DETSAN"}
    assert literal_sites == {
        "REPRO_CACHE_DIR": {"cache:cache_dir"},
        "REPRO_SNAPSHOTS": {"harness/snapshots:snapshots_enabled"},
        "REPRO_DETSAN": {"analysis/detsan:detsan_enabled"},
    }
    # ...and the two flags reach os.environ through the one parser.
    assert env_readers == {"cache:cache_dir", "flags:env_flag"}
