import pytest

from sunmesh import symrep


@pytest.fixture(autouse=True)
def cold_symrep_caches():
    # Several tests count eigh, table or enumeration calls, which a cache
    # warmed by an earlier test would hide; every test starts cold so that
    # no result depends on test order.
    for cached in (
        symrep._spin_eigensystem,
        symrep._occupations,
        symrep._pair_tables,
        symrep._photon_tables,
    ):
        cached.cache_clear()
