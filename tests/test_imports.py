"""Every name a module of ``sfwg`` or a test module imports is used in it,
and ``sfwg.__all__`` lists the package's public names.  ``__init__.py`` is
left out of the first check: its imports are the package's public names."""

import ast
import types
from pathlib import Path

import pytest

import sfwg

MODULES = sorted(p for p in Path(sfwg.__file__).parent.glob("*.py") if p.name != "__init__.py")
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


def test_all_lists_the_public_names():
    public = {name for name, value in vars(sfwg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(sfwg.__all__) == sorted(public)
