import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import radical_algebra

from sunmesh import (
    ARITY_FULL,
    Coupler,
    EulerAngles,
    FockBasis,
    MeshPlan,
    ResourceError,
    ValidationError,
    basis_dimension,
    canonicalize,
    clements_decompose,
    lift_plan,
    lift_via_permanents,
    lifted_generator,
    permanent_ryser,
    random_unitary_qr,
    reconstruct,
    triangle_decompose,
)


def lift_coupler(basis, c):
    # one coupler's lift is the lift of the one-coupler plan
    return lift_plan(basis, MeshPlan(basis.n, 0.0, (c,)))


def canonical_plan(n, seed):
    m = random_unitary_qr(n, seed=seed)
    return m, canonicalize(triangle_decompose(m), m)


def permanent_brute(a):
    n = a.shape[0]
    return sum(
        np.prod([a[i, perm[i]] for i in range(n)])
        for perm in itertools.permutations(range(n))
    )


def test_basis_dimension_values():
    assert basis_dimension(2, 2) == 3
    assert basis_dimension(3, 3) == 10
    assert basis_dimension(4, 2) == 10
    assert basis_dimension(9, 5) == 1287
    assert basis_dimension(5, 0) == 1
    assert basis_dimension(1, 7) == 1


def test_basis_dimension_overflow_is_loud():
    with pytest.raises(OverflowError):
        basis_dimension(36, 35)  # C(70, 35) > 2^63 - 1


def test_basis_dimension_matches_comb_across_int64_range():
    crossed = False
    for n in range(1, 80):
        for p in range(80):
            want = math.comb(n + p - 1, p)
            if want > 2**63 - 1:
                crossed = True
                with pytest.raises(OverflowError):
                    basis_dimension(n, p)
            else:
                assert basis_dimension(n, p) == want, (n, p)
    assert crossed


@pytest.mark.parametrize("n,p", [(10**8, 3 * 10**6), (10**6, 10**5), (2, 10**19), (10**18, 3)])
def test_huge_dimensions_fail_at_once(n, p):
    # the count stops once it passes 2^63 - 1, so no huge binomial is built
    with pytest.raises(OverflowError):
        basis_dimension(n, p)
    with pytest.raises(OverflowError):
        FockBasis(n, p)


def test_basis_dimension_validation():
    with pytest.raises(ValidationError):
        basis_dimension(0, 2)
    with pytest.raises(ValidationError):
        basis_dimension(2, -1)


def test_fock_basis_is_lexicographically_descending():
    from sunmesh import symrep

    basis = FockBasis(2, 2)
    assert basis.occupations.tolist() == [[2, 0], [1, 1], [0, 2]]
    basis = FockBasis(3, 2)
    want = [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]
    assert basis.occupations.tolist() == want
    assert len(basis) == 6 and repr(basis) == "FockBasis(n=3, p=2, dim=6)"
    assert symrep._rank(np.array([1, 0, 1])) == 2
    assert (basis.occupations.sum(axis=1) == 2).all()
    assert {a for a in dir(basis) if not a.startswith("_")} == {"n", "p", "dim", "occupations"}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_occupations_are_cached_read_only_and_ordered(n):
    for p in range(6):
        basis = FockBasis(n, p)
        occ = basis.occupations
        assert basis.occupations is occ and occ.dtype == np.int64
        with pytest.raises(ValueError):
            occ[0, 0] = 0
        states = itertools.product(range(p + 1), repeat=n)
        want = sorted((s for s in states if sum(s) == p), reverse=True)
        assert occ.tolist() == [list(s) for s in want]
        # kept with its basis, not in a module-wide cache
        other = FockBasis(n, p).occupations
        assert other is not occ and np.array_equal(other, occ)


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_numbers_every_basis_in_order(n):
    from sunmesh import symrep

    # every p with dimension <= 5000, up to p = 100 for one and two modes,
    # plus the largest two-mode basis
    sizes = [p for p in range(101) if basis_dimension(n, p) <= 5000]
    for p in sizes + ([4999] if n == 2 else []):
        dim = basis_dimension(n, p)
        rank = symrep._rank(symrep._occupations(n, p))
        assert rank.dtype == np.int64 and np.array_equal(rank, np.arange(dim)), (n, p)


def test_warm_lifts_enumerate_no_states(monkeypatch, tmp_path, capsys):
    from sunmesh import cli, matrix_to_json, plan_to_json, symrep

    m, plan = canonical_plan(4, seed=47)
    ppath, mpath = tmp_path / "plan.json", tmp_path / "matrix.json"
    ppath.write_text(json.dumps(plan_to_json(plan)))
    mpath.write_text(json.dumps(matrix_to_json(m)))
    out = str(tmp_path / "out.json")
    enumerate_states, calls = symrep._occupations, []

    def counting(n, p):
        calls.append((n, p))
        return enumerate_states(n, p)

    monkeypatch.setattr(symrep, "_occupations", counting)
    for _ in range(2):
        calls.clear()
        basis = FockBasis(4, 3)
        lifted = lift_plan(basis, plan)
        assert np.abs(lifted - lift_via_permanents(m, 3)).max() < 1e-12
        one = lift_coupler(basis, plan.couplers[0])
        assert np.abs(one @ one.conj().T - np.eye(20)).max() < 1e-13
        for path in (ppath, mpath):
            assert cli.main(["lift", str(path), "--p", "3", "--output", out]) == 0
        assert cli.main(["lift", "--n", "4", "--p", "3"]) == 0
        assert capsys.readouterr().out == "20\n"
    # the cold pass built each table once; the warm pass enumerated nothing
    assert calls == []
    assert lifted_generator(basis, 2, 3).shape == (20, 20)
    assert calls == [(4, 3)]
    assert lifted_generator(basis, 3, 2).shape == (20, 20)
    assert calls == [(4, 3)]


def test_lifted_generator_offdiagonal_elements():
    basis = FockBasis(2, 2)
    c12 = lifted_generator(basis, 1, 2)
    # photon moved from mode 2 to mode 1: <m+e1-e2| C_12 |m> = sqrt((m1+1) m2)
    want = np.zeros((3, 3))
    want[0, 1] = math.sqrt(2.0)  # (1,1) -> (2,0)
    want[1, 2] = math.sqrt(2.0)  # (0,2) -> (1,1)
    assert np.array_equal(c12, want)
    c21 = lifted_generator(basis, 2, 1)
    assert np.array_equal(c21, want.T)


def test_lifted_generator_diagonal_counts_photons():
    basis = FockBasis(3, 2)
    c22 = lifted_generator(basis, 2, 2)
    assert np.array_equal(np.diag(c22), basis.occupations[:, 1])


def test_lifted_generator_is_dense_and_validated():
    basis = FockBasis(3, 2)
    g = lifted_generator(basis, 1, 3)
    assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == (6, 6)
    with pytest.raises(ValidationError):
        lifted_generator(basis, 0, 1)
    with pytest.raises(ValidationError):
        lifted_generator(basis, 1, 4)


# Exact commutator checks: see radical_algebra for the integer-radical
# representation that makes the equalities below exact rather than approximate.


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_commutators_close_exactly(n, p):
    basis = FockBasis(n, p)
    gens = {
        (a, b): radical_algebra.exact_generator(basis, a, b)
        for a in range(n)
        for b in range(n)
    }
    for ab, cd in itertools.product(gens, repeat=2):
        assert radical_algebra.commutator_defect(gens, ab, cd) == {}, (ab, cd)


def test_library_entries_match_exact_radicals_bitwise():
    for n, p in [(2, 3), (3, 3), (4, 3)]:
        basis = FockBasis(n, p)
        for a, b in itertools.product(range(n), repeat=2):
            lib = lifted_generator(basis, a + 1, b + 1)
            exact = radical_algebra.exact_generator(basis, a, b)
            assert np.count_nonzero(lib) == len(exact), (n, a, b)
            for (r, c), terms in exact.items():
                ((m, f),) = terms.items()
                assert lib[r, c] == f * math.sqrt(m), (n, a, b, r, c)


# --- lifting -----------------------------------------------------------------


def test_lift_coupler_mixing_element_value():
    from sunmesh import symrep

    # the middle rotation maps |2,0> to cos^2|2,0> + sqrt2 cos sin|1,1> + ...
    basis = FockBasis(2, 2)
    beta = 0.7
    c = Coupler(1, 2, EulerAngles(0.0, beta, 0.0), ARITY_FULL)
    lifted = lift_coupler(basis, c)
    want = math.sqrt(2.0) * math.cos(beta / 2) * math.sin(beta / 2)
    row, col = symrep._rank(np.array([[1, 1], [2, 0]]))
    assert abs(lifted[row, col] - want) < 1e-12


def test_lift_coupler_z_phases_are_occupation_weighted():
    basis = FockBasis(2, 2)
    c = Coupler(1, 2, EulerAngles(0.8, 0.0, 0.0), ARITY_FULL)
    lifted = lift_coupler(basis, c)
    # diagonal phases exp(i*(alpha/2)(m1 - m2)) on (2,0), (1,1), (0,2)
    want = np.diag(np.exp(1j * 0.4 * np.array([2.0, 0.0, -2.0])))
    assert np.allclose(lifted, want, atol=1e-14)


def test_lift_coupler_p1_equals_fundamental_block():
    from sunmesh import su2_from_euler

    basis = FockBasis(2, 1)
    ang = EulerAngles(0.3, 1.1, -0.4)
    lifted = lift_coupler(basis, Coupler(1, 2, ang, ARITY_FULL))
    assert np.allclose(lifted, su2_from_euler(ang), atol=1e-14)


def test_lift_coupler_is_unitary():
    basis = FockBasis(3, 3)
    c = Coupler(2, 3, EulerAngles(0.5, 1.3, -0.9), ARITY_FULL)
    lifted = lift_coupler(basis, c)
    dim = len(basis)
    assert np.linalg.norm(lifted @ lifted.conj().T - np.eye(dim)) < 1e-9


def test_lift_coupler_rejects_nonadjacent():
    basis = FockBasis(3, 2)
    with pytest.raises(ValidationError):
        lift_coupler(basis, Coupler(1, 3, EulerAngles(0, 1, 0), ARITY_FULL))


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (2, 6), (3, 4), (5, 3)])
def test_lift_coupler_matches_dense_expm_reference(n, p):
    # diag(e^{i alpha d/2}) expm(-(beta/2)(G - G^T)) diag(e^{i gamma d/2}),
    # d = m_i - m_{i+1}, built from the dense generator independently of
    # the block route
    basis = FockBasis(n, p)
    rng = np.random.default_rng(100 * n + p)
    for i in range(1, n):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, size=3)
        g = lifted_generator(basis, i, i + 1)
        d = (basis.occupations[:, i - 1] - basis.occupations[:, i]).astype(float)
        want = (
            np.exp(0.5j * alpha * d)[:, None]
            * expm(-0.5 * beta * (g - g.T))
            * np.exp(0.5j * gamma * d)[None, :]
        )
        c = Coupler(i, i + 1, EulerAngles(alpha, beta, gamma), ARITY_FULL)
        assert np.abs(lift_coupler(basis, c) - want).max() < 1e-13, i


@pytest.mark.parametrize("p", [0, 1, 4])
def test_lift_plan_one_mode_is_the_photon_phase(p):
    lifted = lift_plan(FockBasis(1, p), MeshPlan(1, 0.7, ()))
    assert lifted.shape == (1, 1)
    assert abs(lifted[0, 0] - np.exp(0.7j * p)) < 1e-13


def test_lift_plan_of_clements_plan_matches_permanents():
    # the rectangular mesh revisits pairs in a non-triangle order
    plan = clements_decompose(random_unitary_qr(5, seed=46))
    pairs = [(c.i, c.j) for c in plan.couplers]
    assert pairs != sorted(pairs, reverse=True) and len(set(pairs)) < len(pairs)
    lifted = lift_plan(FockBasis(5, 3), plan)
    assert np.abs(lifted - lift_via_permanents(reconstruct(plan), 3)).max() < 1e-12


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8, 1e12, 1e16, 1e100, 1e300])
def test_lift_routes_agree_at_huge_angles(offset):
    # both routes reduce each angle mod 4*pi and the phase mod 2*pi before
    # any product, so they agree however large the angles are
    plan = triangle_decompose(random_unitary_qr(3, seed=5))
    couplers = [Coupler(c.i, c.j, EulerAngles(*(x + offset for x in c.angles))) for c in plan.couplers]
    plan = MeshPlan(3, plan.global_phase + offset, tuple(couplers))
    lifted = lift_plan(FockBasis(3, 2), plan)
    assert np.abs(lifted - lift_via_permanents(reconstruct(plan), 2)).max() < 1e-13


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_lift_routes_agree(n, p):
    m, plan = canonical_plan(n, seed=10 * n + p)
    basis = FockBasis(n, p)
    assert np.abs(lift_plan(basis, plan) - lift_via_permanents(m, p)).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lift_plan_p1_is_the_fundamental(n):
    m, plan = canonical_plan(n, seed=30 + n)
    basis = FockBasis(n, 1)
    assert np.abs(lift_plan(basis, plan) - m).max() < 1e-12


def test_lift_plan_applies_global_phase_once_per_photon():
    m = random_unitary_qr(3, seed=77)
    plan = triangle_decompose(m)  # nonzero global phase
    assert abs(plan.global_phase) > 1e-3
    for p in (1, 2, 3):
        basis = FockBasis(3, p)
        diff = np.abs(lift_plan(basis, plan) - lift_via_permanents(m, p)).max()
        assert diff < 1e-10, p


def test_lift_plan_validates_inputs():
    m, plan = canonical_plan(3, seed=41)
    with pytest.raises(ValidationError):
        lift_plan(FockBasis(4, 2), plan)
    from sunmesh import MeshPlan

    nonadj = MeshPlan(3, 0.0, (Coupler(1, 3, EulerAngles(0, 1, 0), ARITY_FULL),))
    with pytest.raises(ValidationError):
        lift_plan(FockBasis(3, 2), nonadj)


def test_lift_plan_caches_one_eigensystem_per_pair():
    m, plan = canonical_plan(4, seed=42)
    basis = FockBasis(4, 2)
    lifted = lift_plan(basis, plan)
    assert sorted({(c.i, c.j) for c in plan.couplers}) == [(1, 2), (2, 3), (3, 4)]
    assert np.abs(lifted - lift_via_permanents(m, 2)).max() < 1e-8


def test_lift_plan_diagonalizes_no_dim_sized_matrix(monkeypatch):
    p = 4
    m, plan = canonical_plan(7, seed=44)
    eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        if max(np.shape(a)) > p + 1:
            raise AssertionError(f"eigh called on a {np.shape(a)} matrix")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    lifted = lift_plan(FockBasis(7, p), plan)
    assert lifted.shape == (210, 210)
    assert np.abs(lifted @ lifted.conj().T - np.eye(210)).max() < 1e-12


def test_dimension_cap_is_enforced_and_overridable(monkeypatch):
    m, plan = canonical_plan(4, seed=43)
    monkeypatch.setenv("TRIMESH_DIM_CAP", "30")
    with pytest.raises(ResourceError):
        lift_plan(FockBasis(4, 4), plan)  # dim 35 > 30
    monkeypatch.setenv("TRIMESH_DIM_CAP", "35")
    lift_plan(FockBasis(4, 4), plan)
    for bad in ("bogus", "0"):
        monkeypatch.setenv("TRIMESH_DIM_CAP", bad)
        with pytest.raises(ValidationError):
            lift_plan(FockBasis(4, 4), plan)


def test_fock_basis_checks_cap_before_enumerating(monkeypatch):
    from sunmesh import symrep

    def sentinel(n, p):
        raise AssertionError("states enumerated before the cap check")

    monkeypatch.setenv("TRIMESH_DIM_CAP", "30")
    monkeypatch.setattr(symrep, "_occupations", sentinel)
    with pytest.raises(ResourceError):
        FockBasis(4, 4)  # dim 35 > 30


def test_permanent_known_values():
    assert permanent_ryser([[4.2]]) == pytest.approx(4.2)
    assert permanent_ryser(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent_ryser([[1, 2], [3, 4]]) == pytest.approx(10.0)
    # identity permanent is 1 regardless of size
    assert permanent_ryser(np.eye(6)) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_permanent_matches_brute_force(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    assert abs(permanent_ryser(a) - permanent_brute(a)) < 1e-9


def test_permanent_closed_forms_beyond_one_table():
    # sizes above 12 columns also run the loop over the remaining columns
    for k in (13, 16, 20):
        want = math.factorial(k)
        assert abs(permanent_ryser(np.ones((k, k))) - want) <= 1e-12 * want, k
    rng = np.random.default_rng(14)
    u, v = rng.normal(size=(2, 14)) + 1j * rng.normal(size=(2, 14))
    want = math.factorial(14) * np.prod(u) * np.prod(v)
    assert abs(permanent_ryser(np.outer(u, v)) - want) <= 1e-10 * abs(want)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("ka, kb", [(6, 6), (7, 6), (10, 10)])
def test_permanent_of_direct_sum_is_product(ka, kb):
    # 12 columns fit one sign table; 13 and 20 also loop over the rest
    rng = np.random.default_rng(100 + ka + kb)
    a, b = random_complex(rng, (ka, ka)), random_complex(rng, (kb, kb))
    block = np.zeros((ka + kb, ka + kb), dtype=np.complex128)
    block[:ka, :ka], block[ka:, ka:] = a, b
    want = permanent_ryser(a) * permanent_ryser(b)
    assert abs(permanent_ryser(block) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("k", range(1, 21))
def test_permanent_rank_one_closed_form(k):
    rng = np.random.default_rng(200 + k)
    u, v = random_complex(rng, (2, k))
    want = math.factorial(k) * np.prod(u) * np.prod(v)
    assert abs(permanent_ryser(np.outer(u, v)) - want) <= 1e-10 * abs(want)


def test_lift_via_permanents_entries_match_brute_force():
    u = random_unitary_qr(3, seed=92)
    basis = FockBasis(3, 4)
    lifted = lift_via_permanents(u, 4)
    rng = np.random.default_rng(93)
    for r, c in rng.integers(len(basis), size=(20, 2)):
        out_state, in_state = basis.occupations[r].tolist(), basis.occupations[c].tolist()
        rows = np.repeat(np.arange(3), out_state)
        cols = np.repeat(np.arange(3), in_state)
        norm = math.sqrt(math.prod(map(math.factorial, out_state + in_state)))
        want = permanent_brute(u[np.ix_(rows, cols)]) / norm
        assert abs(lifted[r, c] - want) <= 1e-12 * abs(want), (r, c)


def test_permanent_size_cap():
    with pytest.raises(ResourceError):
        permanent_ryser(np.eye(21))


def test_lift_via_permanents_u3_p3_is_unitary():
    u = random_unitary_qr(3, seed=90)
    lifted = lift_via_permanents(u, 3)
    dim = basis_dimension(3, 3)
    assert lifted.shape == (dim, dim)
    assert np.linalg.norm(lifted @ lifted.conj().T - np.eye(dim)) < 1e-9


def test_lift_via_permanents_p0_is_trivial():
    u = random_unitary_qr(3, seed=91)
    assert np.array_equal(lift_via_permanents(u, 0), np.ones((1, 1)))


def test_lift_via_permanents_validation():
    with pytest.raises(ValidationError):
        lift_via_permanents(np.diag([1.0, 2.0]), 2)
    with pytest.raises(ResourceError):
        lift_via_permanents(np.eye(2), 21)


def test_lift_plan_generator_economy_at_n9_p5():
    # 36 couplers but only the 8 nearest-neighbour generator pairs, at the
    # full 1287-dimensional five-photon space
    m, plan = canonical_plan(9, seed=95)
    basis = FockBasis(9, 5)
    lifted = lift_plan(basis, plan)
    assert len(basis) == 1287
    assert len({(c.i, c.j) for c in plan.couplers}) == 8
    sample = np.abs(lifted[0]) ** 2
    assert abs(sample.sum() - 1.0) < 1e-9


# --- Wigner stacks, cached pair tables and per-row gathers -------------------


def coupler_product(basis, plan):
    # reference: the per-coupler lifts multiplied out in plan order
    out = np.eye(len(basis), dtype=complex)
    for c in plan.couplers:
        out = out @ lift_coupler(basis, c)
    return out * np.exp(1j * basis.p * plan.global_phase)


def doubled_triangle(n, seed):
    m, plan = canonical_plan(n, seed)
    return MeshPlan(n, plan.global_phase, plan.couplers * 2)


@pytest.mark.parametrize(
    "make_plan",
    [
        lambda: clements_decompose(random_unitary_qr(5, seed=301)),
        lambda: doubled_triangle(4, seed=302),
        lambda: MeshPlan(1, 0.4, ()),
        lambda: MeshPlan(3, -0.9, ()),
    ],
    ids=["clements", "doubled", "one-mode", "empty"],
)
@pytest.mark.parametrize("p", range(5))
def test_lift_plan_matches_coupler_product(make_plan, p):
    plan = make_plan()
    pairs = [c.i for c in plan.couplers]
    assert len(set(pairs)) < len(pairs) or not pairs
    basis = FockBasis(plan.n, p)
    assert np.abs(lift_plan(basis, plan) - coupler_product(basis, plan)).max() <= 1e-15


def random_couplers(n, pairs, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, size=(len(pairs), 3))
    couplers = [Coupler(i, i + 1, EulerAngles(*a), ARITY_FULL) for i, a in zip(pairs, angles)]
    return MeshPlan(n, rng.uniform(-math.pi, math.pi), tuple(couplers))


@pytest.mark.parametrize(
    "make_plan",
    [
        lambda: triangle_decompose(random_unitary_qr(5, seed=320)),
        lambda: canonical_plan(5, seed=321)[1],
        lambda: triangle_decompose(random_unitary_qr(2, seed=322)),
        lambda: canonical_plan(3, seed=323)[1],
        lambda: random_couplers(6, [5, 3, 4, 5, 3, 4, 3], seed=324),
        lambda: random_couplers(4, [1, 1, 1], seed=325),
        lambda: random_couplers(5, [3], seed=326),
        lambda: random_couplers(6, [4, 2, 5, 1, 3, 1, 5, 2, 4], seed=327),
    ],
    ids=[
        "triangle",
        "canonical",
        "triangle-n2",
        "canonical-n3",
        "modes-3-to-n",
        "pair-1-2-only",
        "one-coupler",
        "level-jumps",
    ],
)
@pytest.mark.parametrize("p", range(5))
def test_lift_plan_levels_match_coupler_product(make_plan, p):
    # the level walk, its level changes and its dense expansion against the
    # dense product of one-coupler lifts
    plan = make_plan()
    basis = FockBasis(plan.n, p)
    assert np.abs(lift_plan(basis, plan) - coupler_product(basis, plan)).max() <= 1e-15


def test_sub_mesh_lift_is_exactly_block_diagonal():
    # a mesh on modes 3..6 conserves the occupations of modes 1 and 2
    plan = random_couplers(6, [5, 4, 3, 5, 4, 5], seed=328)
    basis = FockBasis(6, 4)
    lifted = lift_plan(basis, plan)
    heads = basis.occupations[:, :2]
    other = (heads[:, None, :] != heads[None, :, :]).any(axis=2)
    assert other.any() and not lifted[other].any()
    assert np.abs(lifted @ lifted.conj().T - np.eye(len(basis))).max() < 1e-13


@pytest.mark.parametrize("n,p", [(7, 4), (9, 5)])
def test_warm_lift_builds_no_pair_table(n, p):
    from sunmesh import symrep

    _, plan = canonical_plan(n, seed=329)
    lift_plan(FockBasis(n, p), plan)
    before = symrep._pair_tables.cache_info()
    lift_plan(FockBasis(n, p), plan)
    after = symrep._pair_tables.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_lift_plan_memory_at_n8_p6():
    import tracemalloc

    _, plan = canonical_plan(8, seed=330)
    basis = FockBasis(8, 6)
    dim = len(basis)
    lift_plan(basis, plan)  # warm: tables and eigensystems cached
    tracemalloc.start()
    try:
        lift_plan(basis, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * dim * dim, peak / (16 * dim * dim)


def test_two_mode_lift_builds_one_uncached_stack(monkeypatch):
    from sunmesh import symrep

    p = 300
    build, built = symrep._wigner_stacks, []

    def spy(spins, angles):
        built.append(sorted(spins))
        return build(spins, angles)

    monkeypatch.setattr(symrep, "_wigner_stacks", spy)
    lifted = lift_plan(FockBasis(2, p), triangle_decompose(random_unitary_qr(2, seed=331)))
    assert built == [[p]]
    assert symrep._spin_eigensystem.cache_info().currsize == 0
    assert np.abs(lifted @ lifted.conj().T - np.eye(p + 1)).max() < 1e-12


def test_lift_plan_chunks_match_one_chunk_route(monkeypatch):
    from sunmesh import symrep

    # dim 6 and 4 + 9 block entries per coupler: two couplers per chunk
    n, p, dim = 3, 2, 6
    _, plan = canonical_plan(n, seed=303)
    plan = MeshPlan(n, plan.global_phase, plan.couplers * 4)
    build, chunks = symrep._wigner_stacks, []

    def spy(spins, angles):
        chunks.append(len(angles))
        return build(spins, angles)

    monkeypatch.setattr(symrep, "_wigner_stacks", spy)
    basis = FockBasis(n, p)
    lifted = lift_plan(basis, plan)
    assert chunks == [2] * 6
    # the one-chunk route: every block in one stack, applied in the same
    # order, the first coupler (modes 2-3) at level 2 and the rest dense
    couplers = plan.couplers[::-1]
    assert [c.i for c in couplers[:3]] == [2, 1, 2]
    spins = {s: symrep._spin_eigensystem(s) for s in (1, 2)}
    stacks = build(spins, np.array([tuple(c.angles) for c in couplers]))

    def apply(acc, k, tables):
        for s, idx in tables:
            rows = acc[idx].reshape(s + 1, -1)
            acc[idx] = (stacks[s][k] @ rows).reshape(idx.shape + (acc.shape[1],))

    # level 2: rows are the states (m_1, m_2, m_3), columns the rank of
    # (m_2, m_3) among the 2-mode states of 2 - m_1 photons
    occ = basis.occupations
    local = symrep._rank(occ[:, 1:])
    level = np.zeros((dim, 3), dtype=complex)
    level[np.arange(dim), local] = 1
    apply(level, 0, symrep._pair_tables(n, p)[1])
    want = np.zeros((dim, dim), dtype=complex)
    for r, c in itertools.product(range(dim), repeat=2):
        if occ[r, 0] == occ[c, 0]:
            want[r, c] = level[r, local[c]]
    for k, c in enumerate(couplers[1:], start=1):
        apply(want, k, symrep._pair_tables(n, p)[c.i - 1])
    want *= np.exp(1j * p * plan.global_phase)
    assert np.array_equal(lifted, want)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_lift_plan_walks_each_level_once(monkeypatch, n):
    from sunmesh import symrep

    # every walk starts at level n and steps down one level per _widen call
    # to the dense level 1, whichever mode the plan's last coupler is on
    widen, calls = symrep._widen, []

    def spy(*args):
        calls.append(args)
        return widen(*args)

    monkeypatch.setattr(symrep, "_widen", spy)
    m, plan = canonical_plan(n, seed=306)
    basis = FockBasis(n, 3)
    for each in (plan, clements_decompose(m), MeshPlan(n, 0.5, ())):
        calls.clear()
        lifted = lift_plan(basis, each)
        assert len(calls) == n - 1
        assert np.abs(lifted - lift_via_permanents(reconstruct(each), 3)).max() < 1e-12


def test_lift_plan_at_zero_photons_walks_no_level(monkeypatch):
    from sunmesh import symrep

    # FockBasis(n, 0) has one state for any n, so the dimension cap never
    # bounds a walk of n - 1 levels; the lift is [[1]] before any of them
    widen, calls = symrep._widen, []

    def spy(*args):
        calls.append(args)
        return widen(*args)

    monkeypatch.setattr(symrep, "_widen", spy)
    n = 50
    m, plan = canonical_plan(n, seed=307)
    for each in (plan, MeshPlan(n, -0.5, ()), MeshPlan(n, 2.5, plan.couplers)):
        lifted = lift_plan(FockBasis(n, 0), each)
        assert lifted.dtype == np.complex128 and lifted.shape == (1, 1)
        assert lifted[0, 0] == 1.0 and np.signbit(lifted.view(float)).sum() == 0
    assert len(calls) == 0
    # the plan is still checked first
    far = Coupler(1, 3, EulerAngles(0, 1, 0), ARITY_FULL)
    with pytest.raises(ValidationError):
        lift_plan(FockBasis(3, 0), MeshPlan(3, 0.0, (far,)))


def test_pair_tables_are_cached_shared_and_read_only():
    from sunmesh import symrep

    assert symrep._pair_tables.cache_info().maxsize is not None
    _, plan = canonical_plan(4, seed=304)
    first, second = FockBasis(4, 3), FockBasis(4, 3)
    lift_plan(first, plan)
    before = symrep._pair_tables.cache_info()
    lift_plan(second, plan)
    after = symrep._pair_tables.cache_info()
    # applied last to first: (3,4) at level 3 in the 3-mode space, (2,3) and
    # (3,4) at level 2 in the 4-mode space, then (1,2), (2,3), (3,4) dense
    # through the 4-mode space's tables: two spaces
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    grid = [(4, 3), (2, 3), (3, 1), (3, 4), (5, 2), (6, 3), (2, 40), (3, 12), (9, 5), (20, 2)]
    for n, p in grid:
        basis = FockBasis(n, p)
        spaces = symrep._pair_tables(n, p)
        assert symrep._pair_tables(n, p) is spaces and len(spaces) == n - 1
        for i, tables in enumerate(spaces, start=1):
            seen = []
            for s, idx in tables:
                assert idx.dtype == np.int64 and idx.shape[0] == s + 1
                with pytest.raises(ValueError):
                    idx[0, 0] = 0
                for group in idx.T:
                    states = basis.occupations[group].tolist()
                    assert [st[i - 1] for st in states] == list(range(s, -1, -1))
                    assert all(st[i - 1] + st[i] == s for st in states)
                    assert len({tuple(st[: i - 1] + st[i + 1 :]) for st in states}) == 1
                seen.extend(idx.ravel().tolist())
            occ = basis.occupations
            unpaired = np.flatnonzero(occ[:, i - 1] + occ[:, i] == 0).tolist()
            assert sorted(seen + unpaired) == list(range(len(basis)))


def test_cold_pair_tables_hold_a_few_occupation_tables_at_most():
    # a group's rows come from its head's row, so no grouped state is built
    # as an n-entry row; the occupations alone are 8 * n * dim bytes
    import tracemalloc

    from sunmesh import symrep

    n, p = 1000, 1
    tracemalloc.start()
    try:
        symrep._pair_tables.__wrapped__(n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    occupations = 8 * n * basis_dimension(n, p)
    assert peak <= 4 * occupations, peak / occupations


def test_over_cap_basis_builds_no_pair_table(monkeypatch):
    from sunmesh import symrep

    _, plan = canonical_plan(4, seed=305)

    def sentinel(*args):
        raise AssertionError("pair tables built before the cap check")

    monkeypatch.setenv("TRIMESH_DIM_CAP", "30")
    monkeypatch.setattr(symrep, "_pair_tables", sentinel)
    monkeypatch.setattr(symrep, "_occupations", sentinel)
    with pytest.raises(ResourceError):
        lift_plan(FockBasis(4, 4), plan)  # dim 35 > 30


@pytest.mark.parametrize("n,copies", [(5, 1), (5, 6), (2, 4)])
def test_lift_plan_calls_eigh_at_most_p_times(monkeypatch, n, copies):
    from sunmesh import symrep

    p = 3
    _, plan = canonical_plan(n, seed=306)
    plan = MeshPlan(n, plan.global_phase, plan.couplers * copies)
    eigh, sizes = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    symrep._spin_eigensystem.cache_clear()
    lift_plan(FockBasis(n, p), plan)
    # two modes hold only s = p; more modes hold every s = 1..p
    assert sorted(sizes) == ([p + 1] if n == 2 else list(range(2, p + 2)))
    sizes.clear()
    lift_plan(FockBasis(n, p), plan)
    assert sizes == []


@pytest.mark.parametrize("n,p", [(4, 4), (3, 2)])
def test_lift_via_permanents_calls_no_permanent(monkeypatch, n, p):
    from sunmesh import symrep

    ryser, calls = symrep.permanent_ryser, []

    def counting(a):
        calls.append(np.shape(a))
        return ryser(a)

    monkeypatch.setattr(symrep, "permanent_ryser", counting)
    u = random_unitary_qr(n, seed=307)
    lifted = lift_via_permanents(u, p)
    basis = FockBasis(n, p)
    dim = len(basis)
    assert calls == []
    want = np.empty((dim, dim), dtype=complex)
    states = basis.occupations.tolist()
    for r, out_state in enumerate(states):
        for c, in_state in enumerate(states):
            rows = np.repeat(np.arange(n), out_state)
            cols = np.repeat(np.arange(n), in_state)
            want[r, c] = ryser(u[np.ix_(rows, cols)])
    inv = 1.0 / np.sqrt([math.prod(map(math.factorial, s)) for s in states])
    want *= inv[:, None] * inv
    assert (np.abs(lifted - want) <= 1e-12 * np.abs(want)).all()


def test_lift_via_permanents_checks_cap_before_building_tables(monkeypatch):
    from sunmesh import symrep

    def sentinel(n, p):
        raise AssertionError("tables built before the cap check")

    monkeypatch.setenv("TRIMESH_DIM_CAP", "30")
    monkeypatch.setattr(symrep, "_photon_tables", sentinel)
    monkeypatch.setattr(symrep, "_occupations", sentinel)
    with pytest.raises(ResourceError, match="Fock basis dimension 35 exceeds cap 30"):
        lift_via_permanents(random_unitary_qr(4, seed=308), 4)


def test_lift_routes_agree_at_n9_p5():
    m, plan = canonical_plan(9, seed=309)
    lifted = lift_via_permanents(m, 5)
    assert lifted.shape == (1287, 1287)
    assert np.abs(lift_plan(FockBasis(9, 5), plan) - lifted).max() <= 1e-12


def test_lift_via_permanents_n2_p20_is_unitary():
    lifted = lift_via_permanents(random_unitary_qr(2, seed=310), 20)
    assert np.abs(lifted @ lifted.conj().T - np.eye(21)).max() <= 1e-12


def test_photon_recursion_n2_p200_is_unitary():
    from sunmesh import symrep

    lifted = symrep._lift_by_photons(random_unitary_qr(2, seed=311), 200)
    assert np.abs(lifted @ lifted.conj().T - np.eye(201)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_photon_tables_match_fock_index(n):
    from sunmesh import symrep

    for p in range(7 if n <= 5 else 5):
        tables = symrep._photon_tables(n, p)
        assert len(tables) == p
        for q, (lower, root, upper, weight) in enumerate(tables, start=1):
            # the oracle: each state's row read off the enumeration, not the rank
            here = list(map(tuple, FockBasis(n, q).occupations.tolist()))
            below = list(map(tuple, FockBasis(n, q - 1).occupations.tolist()))
            here_row = {s: r for r, s in enumerate(here)}
            below_row = {s: r for r, s in enumerate(below)}
            assert lower.shape == root.shape == (n, len(here))
            assert upper.shape == weight.shape == (n, len(below))
            for r, state in enumerate(here):
                for j, k in enumerate(state):
                    less = state[:j] + (k - 1,) + state[j + 1 :]
                    assert lower[j, r] == (below_row[less] if k else 0), (n, p, q, state, j)
                    assert root[j, r] == math.sqrt(k)
            for r, state in enumerate(below):
                for i, k in enumerate(state):
                    more = state[:i] + (k + 1,) + state[i + 1 :]
                    assert upper[i, r] == here_row[more], (n, p, q, state, i)
                    assert weight[i, r] == math.sqrt(k + 1)
            for table in (lower, root, upper, weight):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] = 1


def test_lift_via_permanents_memory_at_n8_p6():
    import tracemalloc

    u, dim = random_unitary_qr(8, seed=312), basis_dimension(8, 6)
    lift_via_permanents(u, 6)  # warm: tables cached
    tracemalloc.start()
    try:
        lift_via_permanents(u, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * dim * dim, peak / (16 * dim * dim)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-12])
def test_lift_via_permanents_rejects_bad_tol(tol):
    with pytest.raises(ValidationError, match="tol"):
        lift_via_permanents(np.diag([1.0, 2.0]), 2, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        lift_via_permanents(np.eye(2), 2, tol=tol)


def test_lift_via_permanents_accepts_zero_tol():
    assert np.abs(lift_via_permanents(np.eye(2), 2, tol=0.0) - np.eye(3)).max() < 1e-15
