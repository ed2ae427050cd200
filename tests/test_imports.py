"""Every name a module of ``sfwg`` or a test module imports is used in it,
every private function or class of ``sfwg`` is read somewhere in ``sfwg``,
every public one and every public constant in ``sfwg`` or the benchmark,
and ``sfwg.__all__`` lists the package's public names.  ``__init__.py`` is
left out of the first check: its imports are the package's public names."""

import ast
import types
from pathlib import Path

import pytest

import sfwg

SOURCES = sorted(Path(sfwg.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
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


def named(paths):
    """Every name that the modules at ``paths`` read, by name or as an
    attribute: an assignment to a name is not a use of it."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for p in paths for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def defined(private):
    """The package's module-level functions and classes, as (module, name),
    the private or the public ones."""
    return [(p.stem, node.name) for p in SOURCES
            for node in ast.parse(p.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.endswith("__")]


def constants():
    """The package's public module-level constants, as (module, name)."""
    return [(p.stem, target.id) for p in SOURCES
            for node in ast.parse(p.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and not target.id.startswith("_")]


def test_every_private_helper_is_referenced():
    # A private module-level function or class that nothing in the package
    # names, by name or as an attribute, is a helper a refactor left behind.
    used, private = named(SOURCES), defined(private=True)
    assert private
    assert [f"{stem}.{name}" for stem, name in private if name not in used] == []


def test_every_public_function_or_class_has_a_caller():
    # A public one that neither the package nor the benchmark names serves
    # only the tests, and belongs with them.
    assert BENCHMARK
    used, public = named(SOURCES + BENCHMARK), defined(private=False)
    assert public
    assert [f"{stem}.{name}" for stem, name in public if name not in used] == []


def test_every_public_constant_has_a_caller():
    # The same for a public module-level constant: its own assignment does
    # not count, so one that nothing reads belongs with the tests too.
    used, public = named(SOURCES + BENCHMARK), constants()
    assert public
    assert [f"{stem}.{name}" for stem, name in public if name not in used] == []


def test_all_lists_the_public_names():
    public = {name for name, value in vars(sfwg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(sfwg.__all__) == sorted(public)
