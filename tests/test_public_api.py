"""The public surface: each name is declared once, in its module's ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import sunmesh

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
