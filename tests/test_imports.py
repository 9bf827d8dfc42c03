"""Every module-level import of a meanreduce module is read by it.

A name imported at module level and never read is dead code, and a change
that removes its last use leaves it behind.  The scan is syntactic: a name
counts as read where it appears as a name or as the root of an attribute
anywhere in the module, annotations included.  ``__init__.py`` re-exports
by design and is not scanned.
"""

import ast
from pathlib import Path

import pytest

import meanreduce

PACKAGE = Path(meanreduce.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Names kept for a reader outside the package: perfbench's tracing test
# checks that the wrapper of vector.gen_deviation_mean also replaces the
# name descriptors holds.
KEPT = {("descriptors", "gen_deviation_mean")}


def _module_imports(tree: ast.Module) -> list:
    """(name, line) of each name bound by an import among the module's own
    statements, those in module-level if and try blocks too; __future__
    imports bind nothing that is read."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
        elif isinstance(node, ast.Import):
            found += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return found


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in _module_imports(tree)
                  if name not in read and (path.stem, name) not in KEPT)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_read(path):
    assert _unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport os.path\nfrom typing import Callable, Optional\n"
                      "try:\n    import json\nexcept ImportError:\n    import pickle as json\n"
                      "def f(x: Optional[int]) -> float:\n    return math.pi + os.sep\n")
    assert _unused_imports(module) == [("Callable", 4), ("json", 6), ("json", 8)]


def test_each_kept_name_is_imported_and_otherwise_unread():
    for stem, name in KEPT:
        path = PACKAGE / f"{stem}.py"
        tree = ast.parse(path.read_text(), str(path))
        assert name in dict(_module_imports(tree))
        assert name not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
