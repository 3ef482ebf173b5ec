"""Every name a module imports is read somewhere in that module, and no
test module imports another.

Each ``.py`` file under ``src/``, ``tests/`` and ``bench/`` is parsed with
``ast``; a name bound by ``import`` or ``from ... import`` that the module
never loads is reported with its file and line. ``from __future__`` imports
bind no name and are skipped. Test modules share code through
``tests/helpers.py``, so an ``import test_*`` or ``from test_* import``
under ``tests/`` is reported too. The file imports no numpy, so it runs
where numpy is missing.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "bench")


def python_files() -> list[str]:
    found = []
    for top in SCANNED:
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            found += [os.path.join(directory, n) for n in names if n.endswith(".py")]
    return sorted(found)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize(
    "path", python_files(), ids=lambda p: os.path.relpath(p, ROOT)
)
def test_every_imported_name_is_read(path):
    with open(path, encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    relative = os.path.relpath(path, ROOT)
    assert not unused, [f"{relative}:{line}: {name}" for line, name in unused]


def imported_test_modules(source: str) -> list[tuple[int, str]]:
    """(line, module) of each ``test_*`` module that ``source`` imports."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append((node.lineno, node.module))
    return [(line, m) for line, m in modules if m.split(".")[0].startswith("test_")]


def test_no_test_module_imports_another():
    tests = os.path.join(ROOT, "tests")
    found = []
    for path in python_files():
        if os.path.dirname(path) == tests:
            with open(path, encoding="utf-8") as fh:
                found += [f"{os.path.relpath(path, ROOT)}:{line}: {module}"
                          for line, module in imported_test_modules(fh.read())]
    assert not found, found


def test_scan_finds_an_imported_test_module():
    source = ("import test_a\nfrom test_b import c\nfrom helpers import d\n"
              "import os, test_e.f\nfrom . import test_g\n")
    assert imported_test_modules(source) == [(1, "test_a"), (2, "test_b"),
                                             (4, "test_e.f")]


def test_scan_finds_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nimport a.b as c\nloads(os)\n"
    assert unused_imports(source) == [(2, "dumps"), (3, "c")]
