"""Guard against dead imports in the library, the scripts, the tests and the
benchmark.

No linter is assumed: the source is parsed with `ast`. A name bound by an
import must be referenced somewhere in its module. Package `__init__.py`
files are skipped, since their imports are the public re-exports, and so is
any name listed in a module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "scripts", "tests", "bench")
                 for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")


def _exported(tree):
    """Names listed in a module-level `__all__`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source):
    """Sorted (line, name) of the imported names `source` never references."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = used | _exported(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in keep)


def test_guard_sees_unused_and_keeps_used():
    src = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
           "from a.b import c as d\n__all__ = ['tau']\nx = np.zeros(1) * pi\n")
    assert unused_imports(src) == [(1, "os"), (4, "d")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
