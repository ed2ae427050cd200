"""Every name a module of ``sfwg`` or a test module imports is used in it,
every private function or class of ``sfwg`` is named somewhere in ``sfwg``,
and ``sfwg.__all__`` lists the package's public names.  ``__init__.py`` is
left out of the first check: its imports are the package's public names."""

import ast
import types
from pathlib import Path

import pytest

import sfwg

SOURCES = sorted(Path(sfwg.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
MODULES += sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree):
    """The names that the imports of ``tree`` bind: ``import a.b`` binds a."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_private_helper_is_referenced():
    # A private module-level function or class that nothing in the package
    # names, by name or as an attribute, is a helper a refactor left behind.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    private = [(stem, node.name) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert private
    assert [f"{stem}.{name}" for stem, name in private if name not in used] == []


def test_all_lists_the_public_names():
    public = {name for name, value in vars(sfwg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(sfwg.__all__) == sorted(public)
