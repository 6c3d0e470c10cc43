import math
import sys

import numpy as np
import pytest

from sunmesh import (
    ARITY_CONSTRAINED,
    ARITY_FULL,
    Coupler,
    EulerAngles,
    MeshPlan,
    ToleranceError,
    ValidationError,
    canonicalize,
    clements_decompose,
    depth,
    embed_coupler,
    generator_ledger,
    linalg,
    loss_analysis,
    multiplicity,
    parameter_count,
    random_unitary_qr,
    reck_decompose,
    reconstruct,
    recursive_view,
    triangle_decompose,
)


def residual(plan, m):
    return float(np.linalg.norm(reconstruct(plan) - m))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_triangle_roundtrip(n):
    m = random_unitary_qr(n, seed=40 + n)
    plan = triangle_decompose(m)
    assert residual(plan, m) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_triangle_structure(n):
    plan = triangle_decompose(random_unitary_qr(n, seed=50 + n))
    assert len(plan.couplers) == n * (n - 1) // 2
    assert all(c.adjacent for c in plan.couplers)
    for i in range(1, n):
        assert multiplicity(plan, i) == i
    assert depth(plan) == max(1, 2 * n - 3)
    # descending chains: pairs run (n-1,n) down to (k,k+1) for each chain k
    want = [(m_, m_ + 1) for k in range(1, n) for m_ in range(n - 1, k - 1, -1)]
    assert [(c.i, c.j) for c in plan.couplers] == want


def test_triangle_identity_gives_identity_couplers():
    plan = triangle_decompose(np.eye(4, dtype=complex))
    assert len(plan.couplers) == 6
    assert plan.global_phase == 0.0
    for c in plan.couplers:
        assert c.angles == EulerAngles(0.0, 0.0, 0.0)


def test_triangle_recovers_embedded_coupler():
    target = Coupler(2, 3, EulerAngles(0.4, 1.0, -0.2), ARITY_FULL)
    m = embed_coupler(3, target)
    plan = triangle_decompose(m)
    angs = [c.angles for c in plan.couplers]
    # det-phase extraction leaves O(1e-17) dust in the bystander couplers
    assert np.allclose(list(angs[0]) + list(angs[1]), 0.0, atol=1e-15)
    assert (plan.couplers[2].i, plan.couplers[2].j) == (2, 3)
    assert np.allclose(list(angs[2]), [0.4, 1.0, -0.2], atol=1e-12)


def test_triangle_rejects_nonunitary():
    with pytest.raises(ValidationError):
        triangle_decompose(np.diag([1.0, 2.0]))


def test_triangle_chains_carry_equal_phases_exactly():
    # every non-head coupler comes out with gamma == alpha bit-for-bit,
    # because each elimination sees a real nonnegative pivot below it
    plan = triangle_decompose(random_unitary_qr(6, seed=77))
    for c in plan.couplers:
        if c.i != 5:
            assert c.angles.gamma == c.angles.alpha


@pytest.mark.parametrize("n,params", [(3, 8), (4, 15), (5, 24)])
def test_canonicalize_parameter_totals(n, params):
    m = random_unitary_qr(n, seed=60 + n)
    canon = canonicalize(triangle_decompose(m), m)
    assert parameter_count(canon) == params
    assert residual(canon, m) < 1e-9


@pytest.mark.parametrize("n", range(2, 11))
def test_canonicalize_general_counts_and_arities(n):
    m = random_unitary_qr(n, seed=70 + n)
    plan = triangle_decompose(m)
    canon = canonicalize(plan, m)
    assert parameter_count(canon) == n * n - 1
    assert [(c.i, c.j) for c in canon.couplers] == [(c.i, c.j) for c in plan.couplers]
    for c in canon.couplers:
        if c.i == n - 1:
            assert c.arity == ARITY_FULL
        else:
            assert c.arity == ARITY_CONSTRAINED
            assert abs(c.angles.gamma - c.angles.alpha) < 1e-9
    assert residual(canon, m) < 1e-9


def test_canonicalize_su3_arity_pattern():
    m = random_unitary_qr(3, seed=1)
    canon = canonicalize(triangle_decompose(m), m)
    assert [c.arity for c in canon.couplers] == [ARITY_FULL, ARITY_CONSTRAINED, ARITY_FULL]


def test_canonicalize_reports_analytic_method_for_fresh_plans():
    m = random_unitary_qr(5, seed=13)
    _, info = canonicalize(triangle_decompose(m), m, return_info=True)
    assert info["method"] == "analytic"
    assert info["residual"] < 1e-12


def test_canonicalize_refines_perturbed_plans():
    m = random_unitary_qr(4, seed=21)
    plan = triangle_decompose(m)
    rng = np.random.default_rng(5)
    noisy = []
    for c in plan.couplers:
        da, db, dg = 1e-7 * rng.normal(size=3)
        noisy.append(
            Coupler(
                c.i,
                c.j,
                EulerAngles(c.angles.alpha + da, c.angles.beta + abs(db), c.angles.gamma + dg),
                c.arity,
            )
        )
    canon, info = canonicalize(
        MeshPlan(plan.n, plan.global_phase, tuple(noisy)), m, return_info=True
    )
    assert info["method"] == "refined"
    assert residual(canon, m) < 1e-9
    assert parameter_count(canon) == 15


def test_canonicalize_rebuilds_plans_far_from_target():
    # a plan that does not reproduce m at all keeps only its pair order
    m = random_unitary_qr(4, seed=21)
    plan = triangle_decompose(m)
    wild = tuple(
        Coupler(c.i, c.j, EulerAngles(0.3, 1.0, -0.2), c.arity) for c in plan.couplers
    )
    canon, info = canonicalize(MeshPlan(plan.n, 0.0, wild), m, return_info=True)
    assert info["method"] == "refined"
    assert info["residual"] <= 10 * 1e-10
    assert parameter_count(canon) == 15
    assert [(c.i, c.j) for c in canon.couplers] == [(c.i, c.j) for c in plan.couplers]


def test_canonicalize_failure_carries_best_residual():
    # an exact permutation passes is_unitary at tol=0, but no rebuilt plan
    # reproduces it to zero rounding, so 10 * tol is out of reach
    p = np.eye(4)[[3, 2, 1, 0]]
    with pytest.raises(ToleranceError) as err:
        canonicalize(triangle_decompose(p, 0.0), p, 0.0)
    assert err.value.residual > 0


def test_canonicalize_rejects_wrong_order_and_nonunitary():
    m = random_unitary_qr(4, seed=2)
    plan = triangle_decompose(m)
    backwards = MeshPlan(4, plan.global_phase, tuple(reversed(plan.couplers)))
    with pytest.raises(ValidationError):
        canonicalize(backwards, m)
    with pytest.raises(ValidationError):
        canonicalize(plan, np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValidationError):
        canonicalize(plan, np.eye(3))  # a plan on 4 modes


def test_recursive_view_su3():
    m = random_unitary_qr(3, seed=5)
    canon = canonicalize(triangle_decompose(m), m)
    view = recursive_view(canon)
    assert [(c.i, c.j) for c in view.left] == [(2, 3)]
    assert (view.middle.i, view.middle.j) == (1, 2)
    assert view.right.terminal is not None
    assert (view.right.terminal.i, view.right.terminal.j) == (2, 3)
    assert view.flatten() == canon.couplers


def test_recursive_view_su2_is_terminal():
    m = random_unitary_qr(2, seed=6)
    canon = canonicalize(triangle_decompose(m), m)
    view = recursive_view(canon)
    assert view.terminal is not None
    assert view.flatten() == canon.couplers


def test_recursive_view_su5_nesting():
    m = random_unitary_qr(5, seed=7)
    canon = canonicalize(triangle_decompose(m), m)
    view = recursive_view(canon)
    assert len(view.left) == 3
    assert (view.middle.i, view.middle.j) == (1, 2)
    inner = view.right
    assert len(inner.left) == 2
    assert (inner.middle.i, inner.middle.j) == (2, 3)
    assert view.flatten() == canon.couplers


def test_recursive_view_rejects_wrong_order():
    plan = MeshPlan(
        3,
        0.0,
        (
            Coupler(1, 2, EulerAngles(0, 0, 0)),
            Coupler(2, 3, EulerAngles(0, 0, 0)),
            Coupler(2, 3, EulerAngles(0, 0, 0)),
        ),
    )
    with pytest.raises(ValidationError):
        recursive_view(plan)
    with pytest.raises(ValidationError):
        recursive_view(MeshPlan(3, 0.0, ()))


@pytest.mark.parametrize("n", range(2, 13))
def test_clements_depth_is_exactly_n(n):
    m = random_unitary_qr(n, seed=100 + n)
    plan = clements_decompose(m)
    assert depth(plan) == n
    assert all(c.adjacent for c in plan.couplers)
    assert residual(plan, m) < 1e-10


def test_clements_roundtrip_u6():
    m = random_unitary_qr(6, seed=500)
    assert residual(clements_decompose(m), m) < 1e-10


def test_clements_identity_structure():
    plan = clements_decompose(np.eye(4, dtype=complex))
    assert len(plan.couplers) == 6
    assert depth(plan) <= 4
    for c in plan.couplers:
        assert abs(c.angles.beta) < 1e-12
    assert np.allclose(reconstruct(plan), np.eye(4), atol=1e-12)


def test_clements_has_no_phase_layer():
    # the full residual diagonal is folded into couplers plus one scalar,
    # so reconstruction works from couplers and global_phase alone
    m = random_unitary_qr(5, seed=31)
    plan = clements_decompose(m)
    assert isinstance(plan.global_phase, float)
    rebuilt = np.eye(5, dtype=complex)
    for c in reversed(plan.couplers):
        rebuilt = embed_coupler(5, c) @ rebuilt
    assert np.allclose(np.exp(1j * plan.global_phase) * rebuilt, m, atol=1e-10)


def test_clements_rejects_nonunitary():
    with pytest.raises(ValidationError):
        clements_decompose(np.diag([1.0, 2.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_reck_roundtrip_and_pair_set(n):
    m = random_unitary_qr(n, seed=200 + n)
    plan = reck_decompose(m)
    assert residual(plan, m) < 1e-10
    assert len(plan.couplers) == n * (n - 1) // 2
    pairs = {(c.i, c.j) for c in plan.couplers}
    assert pairs == {(i, j) for i in range(1, n) for j in range(i + 1, n + 1)}


def test_reck_u4_uses_nonadjacent_pairs():
    plan = reck_decompose(random_unitary_qr(4, seed=204))
    pairs = {(c.i, c.j) for c in plan.couplers}
    assert {(1, 3), (1, 4), (2, 4)} <= pairs


def test_reck_identity_gives_identity_couplers():
    plan = reck_decompose(np.eye(3, dtype=complex))
    for c in plan.couplers:
        assert c.angles == EulerAngles(0.0, 0.0, 0.0)


DEGENERATE_INPUTS = {
    "identity": lambda n: np.eye(n, dtype=complex),
    "reversal": lambda n: np.eye(n, dtype=complex)[::-1],
    "cyclic_shift": lambda n: np.roll(np.eye(n, dtype=complex), 1, axis=0),
    "phases": lambda n: np.diag(np.exp(1j * np.arange(n))),
}


@pytest.mark.parametrize("name", DEGENERATE_INPUTS)
@pytest.mark.parametrize(
    "decompose", [triangle_decompose, reck_decompose, clements_decompose]
)
def test_degenerate_inputs_keep_the_mesh_shape(decompose, name):
    # these inputs make some elimination pairs exactly (0, 0), so the
    # identity branch of the rotation step runs in every scheme
    for n in range(2, 9):
        m = DEGENERATE_INPUTS[name](n)
        plan = decompose(m)
        generic = decompose(random_unitary_qr(n, seed=700 + n))
        assert [(c.i, c.j) for c in plan.couplers] == [(c.i, c.j) for c in generic.couplers]
        assert depth(plan) == depth(generic)
        assert residual(plan, m) < 1e-12
        if name == "identity":
            assert all(c.angles == EulerAngles(0.0, 0.0, 0.0) for c in plan.couplers)


def test_generator_ledger_values():
    assert generator_ledger("triangle", 9) == {
        "offdiag_pairs": 8,
        "diagonal": 9,
        "savings_vs_reck": 28,
    }
    assert generator_ledger("reck", 9) == {
        "offdiag_pairs": 36,
        "diagonal": 9,
        "savings_vs_reck": 0,
    }
    assert generator_ledger("triangle", 2) == generator_ledger("reck", 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_ledger_savings_formula(n):
    assert generator_ledger("triangle", n)["savings_vs_reck"] == (n - 1) * (n - 2) // 2


def test_generator_ledger_rejects_bad_input():
    with pytest.raises(ValidationError):
        generator_ledger("butterfly", 4)
    with pytest.raises(ValidationError):
        generator_ledger("triangle", 1)


def test_loss_analysis_triangle_n3_by_hand():
    # plan order (2,3)(1,2)(2,3); light hits the rightmost factor first.
    # mode 1 crosses only (1,2) on its best route and 2 couplers at worst;
    # modes 2 and 3 must cross at least 2 and at most all 3.
    plan = triangle_decompose(random_unitary_qr(3, seed=9))
    report = loss_analysis(plan, 0.5)
    assert [(r["best_couplers"], r["worst_couplers"]) for r in report] == [
        (1, 2),
        (2, 3),
        (2, 3),
    ]
    assert report[0]["best_loss_db"] == 0.5
    assert report[1]["worst_loss_db"] == 1.5
    assert [r["mode"] for r in report] == [1, 2, 3]


def loss_analysis_by_mode(plan, loss):
    # the reference: one route search per input mode, in plain Python
    report = []
    for mode in range(1, plan.n + 1):
        best, worst = [math.inf] * plan.n, [-math.inf] * plan.n
        best[mode - 1] = worst[mode - 1] = 0
        for c in reversed(plan.couplers):
            p, q = c.i - 1, c.j - 1
            best[p] = best[q] = min(best[p], best[q]) + 1
            worst[p] = worst[q] = max(worst[p], worst[q]) + 1
        b, w = min(best), max(worst)
        report.append(
            {
                "mode": mode,
                "best_couplers": b,
                "worst_couplers": w,
                "best_loss_db": b * loss,
                "worst_loss_db": w * loss,
            }
        )
    return report


@pytest.mark.parametrize("loss", [0.0, 0.2, 1 / 3])
@pytest.mark.parametrize("n", [1, 2, 6, 11])
def test_loss_analysis_matches_a_search_per_mode(n, loss):
    # repr, so that every value has the same type, sign and digits
    m = random_unitary_qr(n, seed=60 + n)
    for plan in (canonicalize(triangle_decompose(m), m), reck_decompose(m), clements_decompose(m)):
        assert repr(loss_analysis(plan, loss)) == repr(loss_analysis_by_mode(plan, loss))


def test_loss_analysis_accepts_reck_plans():
    plan = reck_decompose(random_unitary_qr(4, seed=10))
    report = loss_analysis(plan, 1.0)
    assert len(report) == 4
    assert all(r["worst_couplers"] >= r["best_couplers"] >= 1 for r in report)


def test_loss_analysis_rejects_negative_loss():
    plan = triangle_decompose(random_unitary_qr(2, seed=0))
    with pytest.raises(ValidationError):
        loss_analysis(plan, -0.1)


@pytest.mark.parametrize("loss", [float("nan"), float("inf"), 1e308])
def test_loss_analysis_rejects_non_finite_losses(loss):
    # 1e308 is finite, but three couplers on one path overflow the total
    plan = triangle_decompose(random_unitary_qr(3, seed=0))
    with pytest.raises(ValidationError):
        loss_analysis(plan, loss)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize(
    "decompose", [triangle_decompose, reck_decompose, clements_decompose]
)
def test_decompose_rejects_bad_tol(decompose, tol):
    with pytest.raises(ValidationError, match="tol"):
        decompose(np.eye(2), tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        canonicalize(triangle_decompose(np.eye(2)), np.eye(2), tol)


def test_each_decomposition_checks_unitarity_once(monkeypatch):
    # every module's binding is counted, so a check through any import shows
    calls = []
    original = linalg.is_unitary

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "sunmesh" and getattr(module, "is_unitary", None) is original:
            monkeypatch.setattr(module, "is_unitary", counting)
    m = random_unitary_qr(4, seed=8)
    cases = [
        (triangle_decompose, 1),
        (reck_decompose, 1),
        (clements_decompose, 1),
        (lambda m: canonicalize(triangle_decompose(m), m), 2),
    ]
    for decompose, expected in cases:
        calls.clear()
        decompose(m)
        assert len(calls) == expected
