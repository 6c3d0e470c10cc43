"""The public surface: each name is declared once, in its module's ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import sunmesh

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

# Public names that nothing in src/, demos/ or bench/ calls, kept on purpose
UNCALLED_BUT_KEPT = {
    # a layer that bench/tracing.py traces by name; the tests build their
    # reference embedding of a coupler from it
    "coupler_matrix",
    # test oracles that bench/tracing.py traces, naming them only as strings
    "permanent_ryser",
    "lifted_generator",
}


def _submodules_with_all():
    names = [info.name for info in pkgutil.iter_modules(sunmesh.__path__)]
    mods = [importlib.import_module(f"sunmesh.{name}") for name in names]
    return [mod for mod in mods if hasattr(mod, "__all__")]


def test_package_all_is_the_union_of_submodule_all_lists():
    names = [name for mod in _submodules_with_all() for name in mod.__all__]
    assert len(names) == len(set(names))
    assert sorted(sunmesh.__all__) == sorted([*names, "__version__"])


def test_every_public_name_resolves():
    assert isinstance(sunmesh.__version__, str)
    for mod in _submodules_with_all():
        for name in mod.__all__:
            assert getattr(sunmesh, name) is getattr(mod, name), name


def test_traced_layer_functions_exist():
    # the benchmark's tracer wraps these by name; a missing one breaks it
    tree = ast.parse(TRACING.read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]
    ]
    for layer, names in ast.literal_eval(table).items():
        mod = importlib.import_module(f"sunmesh.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"sunmesh.{layer}.{name}"


def _uses(tree):
    """Names read as a ``Name`` or ``Attribute`` outside the definition of
    the same name; assigning a name is defining it, not reading it."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_caller():
    # a public name that src/, demos/ and bench/ never use is code the
    # system does not need; strings, __all__ lists and docstrings do not count
    used = set()
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            used |= _uses(tree)
            if folder != "src":
                for node in ast.walk(tree):
                    if isinstance(node, ast.ImportFrom):
                        used |= {alias.name for alias in node.names}
    # the package's own __version__ is metadata, in no submodule's __all__
    public = {name for mod in _submodules_with_all() for name in mod.__all__}
    assert sorted(public - used - UNCALLED_BUT_KEPT) == []
    assert sorted(UNCALLED_BUT_KEPT - (public - used)) == []



def _unused_imports(tree):
    """(line, name) of each name an import binds that the file never reads
    as a Name (which includes the base of an Attribute) or lists in its
    __all__; star and __future__ imports bind no name to check."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["__all__"]:
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for folder in ("src", "demos", "bench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []
