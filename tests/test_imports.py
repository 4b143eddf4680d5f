"""Guard against dead imports in the library, the scripts, the tests and the
benchmark, against library definitions that only the tests use, and against
imports inside library functions.

No linter is assumed: the source is parsed with `ast`. A name bound by an
import must be referenced somewhere in its module. Package `__init__.py`
files are skipped, since their imports are the public re-exports, and so is
any name listed in a module's `__all__`.

Every top-level function, class and ALL-CAPS constant of a library module,
and every method of a library class except the dunder methods, must be read
somewhere in the library, the benchmark or the scripts (a load of that name,
or of an attribute of that name), or be re-exported by the package
`__init__.py`; a definition only the tests call belongs in `tests/`. A
method that overrides a base-class hook is read by the base class, so it is
exempt by its qualified name (`HOOKS`). Library modules import at module
level only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "scripts", "tests", "bench")
                 for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = ROOT / "src" / "wignerlab"
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = sorted(p for top in ("src", "scripts", "bench")
               for p in (ROOT / top).rglob("*.py"))
# methods that override a base-class hook: argparse calls _Parser.error
HOOKS = {"_Parser.error"}


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


def _read_names(tree):
    """Names `tree` loads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _definitions(tree):
    """(line, name) of the top-level functions, classes and ALL-CAPS
    constants of a module, and (line, "Class.method") of its classes'
    non-dunder methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(fn.lineno, f"{node.name}.{fn.name}") for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__")
                             and fn.name.endswith("__"))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(node.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name) and t.id.isupper()]
    return out


def unused_definitions(modules, users, init, hooks=()):
    """Sorted (module, line, name) of the definitions in `modules` (name ->
    source) that no source in `users` reads and `init` does not re-export.
    A method counts as read when its bare name is; the qualified names in
    `hooks` are exempt."""
    read = set()
    for source in users:
        read |= _read_names(ast.parse(source))
    read |= {alias.name for node in ast.walk(ast.parse(init))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted((module, line, name)
                  for module, source in modules.items()
                  for line, name in _definitions(ast.parse(source))
                  if name.rpartition(".")[2] not in read and name not in hooks)


def local_imports(source):
    """Sorted lines of the import statements inside a function body."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_guard_sees_unused_definitions_and_keeps_used():
    lib = ("import math\nLIMIT = 3\nlower = 2\nclass Box:\n    pass\n"
           "def used(x):\n    return helper(x)\ndef helper(x):\n"
           "    return x\ndef exported():\n    pass\ndef dead():\n"
           "    pass\nclass Orphan:\n    pass\nclass Tool(Box):\n"
           "    def __init__(self):\n        self.run()\n"
           "    def run(self):\n        pass\n    def spare(self):\n"
           "        pass\n    def hook(self):\n        pass\n")
    user = ("from lib import used\nimport lib\nlib.Box()\nused(lib.LIMIT)\n"
            "lib.Tool()\n")
    init = "from .lib import exported\n"
    assert unused_definitions({"lib": lib}, [lib, user], init,
                              {"Tool.hook"}) == [
        ("lib", 12, "dead"), ("lib", 14, "Orphan"), ("lib", 21, "Tool.spare")]


def test_no_definition_only_the_tests_use():
    modules = {p.name: p.read_text() for p in LIBRARY}
    users = [p.read_text() for p in USERS]
    init = (PACKAGE / "__init__.py").read_text()
    assert unused_definitions(modules, users, init, HOOKS) == []


def test_guard_sees_imports_inside_functions():
    src = ("import os\ndef f():\n    import json\n    def g():\n"
           "        from . import x\n    return json, g\nclass C:\n"
           "    def m(self):\n        from math import pi\n        return pi\n")
    assert local_imports(src) == [3, 5, 9]


@pytest.mark.parametrize("path", LIBRARY,
                         ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_library_imports_at_module_level(path):
    assert local_imports(path.read_text()) == []
