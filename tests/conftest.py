import importlib
import pkgutil

import pytest

import sunmesh

_MODULES = [importlib.import_module(f"sunmesh.{m.name}") for m in pkgutil.iter_modules(sunmesh.__path__)]


@pytest.fixture(autouse=True)
def cold_caches():
    # Several tests count eigh, table or enumeration calls, which a cache
    # warmed by an earlier test would hide; every test starts with every
    # cache of every sunmesh module empty, so that no result depends on test
    # order, including caches added later.
    for module in _MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
