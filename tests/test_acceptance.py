"""Acceptance suite: one test per headline guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test pins the advertised tolerance and, where a time
budget is part of the guarantee, enforces it with a wall-clock check.
"""

import itertools
import json
import math
import time
from collections import Counter

import numpy as np

import radical_algebra
from sunmesh import (
    ARITY_CONSTRAINED,
    ARITY_FULL,
    EulerAngles,
    FockBasis,
    basis_dimension,
    canonicalize,
    clements_decompose,
    depth,
    generator_ledger,
    lift_plan,
    lift_via_permanents,
    matrix_to_json,
    parameter_count,
    push_phase_through_coupler,
    random_unitary_qr,
    reconstruct,
    sample_beta,
    su2_from_euler,
    triangle_decompose,
    validate_haar,
)
from sunmesh.cli import main


def test_criterion_1_triangle_roundtrip_accuracy():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        for s in range(100):
            m = random_unitary_qr(n, seed=1000 * n + s)
            err = float(np.linalg.norm(reconstruct(triangle_decompose(m)) - m))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"criterion 1: PASS  worst residual {worst:.2e} over 900 unitaries in {elapsed:.1f}s")


def test_criterion_2_mesh_shape_counts_and_depths():
    for n in range(2, 13):
        m = random_unitary_qr(n, seed=50 + n)
        tri = triangle_decompose(m)
        assert len(tri.couplers) == n * (n - 1) // 2
        by_pair = Counter(c.i for c in tri.couplers)
        assert all(by_pair[i] == i for i in range(1, n))
        assert depth(tri) == 2 * n - 3
        assert depth(clements_decompose(m)) == n
    print("criterion 2: PASS  coupler counts, multiplicities and depths for n = 2..12")


def test_criterion_3_canonical_parameter_counts():
    explicit = {3: 8, 4: 15, 5: 24}
    for n in range(2, 11):
        m = random_unitary_qr(n, seed=60 + n)
        canon = canonicalize(triangle_decompose(m), m)
        assert parameter_count(canon) == n * n - 1
        if n in explicit:
            assert parameter_count(canon) == explicit[n]
        heads = [c for c in canon.couplers if c.arity == ARITY_FULL]
        rest = [c for c in canon.couplers if c.arity == ARITY_CONSTRAINED]
        assert len(heads) == n - 1
        assert len(heads) + len(rest) == len(canon.couplers)
        for c in rest:
            assert abs(c.angles.gamma - c.angles.alpha) <= 1e-9
        assert float(np.linalg.norm(reconstruct(canon) - m)) < 1e-9
    print("criterion 3: PASS  n^2 - 1 parameters (8/15/24 at n = 3/4/5) with tied phases")


def test_criterion_4_generator_ledger():
    for n in range(2, 13):
        tri = generator_ledger("triangle", n)
        reck = generator_ledger("reck", n)
        assert tri["offdiag_pairs"] == n - 1
        assert reck["offdiag_pairs"] == n * (n - 1) // 2
        assert tri["savings_vs_reck"] == (n - 1) * (n - 2) // 2
    assert generator_ledger("triangle", 9)["offdiag_pairs"] == 8
    assert generator_ledger("reck", 9)["offdiag_pairs"] == 36
    print("criterion 4: PASS  n-1 vs n(n-1)/2 generator pairs, exactly (9 modes: 8 vs 36)")


def test_criterion_5_haar_sampler_statistics():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        report = validate_haar(n, 20000, seed=0)
        assert report["moments"]["max_sigma"] < 3.0, n
        assert report["ks"]["pvalue"] > 0.01, n
        control = validate_haar(n, 20000, seed=0, beta_mode="uniform")
        assert not control["ks"]["passed"], n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 5: PASS  moments within 3 sigma, KS above 0.01, controls rejected, {elapsed:.1f}s")


def test_criterion_6_middle_angle_density_modes():
    for level in (2, 3, 4):
        rng = np.random.Generator(np.random.Philox(key=[0, level]))
        betas = sample_beta(level, rng.random(100000))
        counts, edges = np.histogram(betas, bins=48, range=(0.0, math.pi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        peak = int(np.argmax(counts))
        lo, hi = max(peak - 5, 0), min(peak + 6, len(counts))
        coeffs = np.polyfit(centers[lo:hi], np.log(counts[lo:hi] + 1.0), 2)
        vertex = -coeffs[1] / (2.0 * coeffs[0])
        assert abs(vertex - math.acos(-(level - 1) / level)) < 0.05, level
    print("criterion 6: PASS  histogram modes at arccos(-(k-1)/k) within 0.05 rad for k = 2, 3, 4")


def test_criterion_7_lift_route_equivalence():
    start = time.perf_counter()
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        m = random_unitary_qr(n, seed=70 + 10 * n + p)
        plan = canonicalize(triangle_decompose(m), m)
        diff = np.abs(lift_plan(FockBasis(n, p), plan) - lift_via_permanents(m, p)).max()
        assert diff < 1e-8, (n, p)
    for n in (2, 3, 5, 7):
        m = random_unitary_qr(n, seed=80 + n)
        plan = canonicalize(triangle_decompose(m), m)
        assert np.abs(lift_plan(FockBasis(n, 1), plan) - m).max() < 1e-12, n
    assert basis_dimension(9, 5) == 1287
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 7: PASS  generator and permanent lifts agree, dim(9, 5) = 1287, {elapsed:.1f}s")


def test_criterion_8_algebra_exactness():
    for n, p in itertools.product((2, 3, 4), (1, 2, 3)):
        basis = FockBasis(n, p)
        gens = {
            (a, b): radical_algebra.exact_generator(basis, a, b)
            for a in range(n)
            for b in range(n)
        }
        for ab, cd in itertools.product(gens, repeat=2):
            assert radical_algebra.commutator_defect(gens, ab, cd) == {}, (n, p, ab, cd)

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        ti, tj = rng.uniform(-math.pi, math.pi, size=2)
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, size=3))
        d = np.diag(np.exp(1j * np.array([ti, tj])))
        for side in ("left", "right"):
            moved, mu = push_phase_through_coupler(ti, tj, ang, side=side)
            b = su2_from_euler(ang)
            got = d @ b if side == "left" else b @ d
            want = np.exp(1j * mu) * su2_from_euler(moved)
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-13
    print(f"criterion 8: PASS  commutators exact on n <= 4, p <= 3; phase push within {worst:.1e}")


def test_criterion_9_cli_byte_determinism(tmp_path, capsys):
    mpath = tmp_path / "matrix.json"
    mpath.write_text(json.dumps(matrix_to_json(random_unitary_qr(4, seed=9))))
    ppath = tmp_path / "plan.json"
    assert main(["decompose", str(mpath), "--output", str(ppath)]) == 0
    capsys.readouterr()

    cases = [
        ["decompose", str(mpath), "--canonical"],
        ["reconstruct", str(ppath)],
        ["compare", "--n", "5", "--loss-db", "0.2"],
        ["sample-haar", "--n", "6", "--seed", "4"],
        ["validate-haar", "--n", "3", "--samples", "2000", "--seed", "1"],
        ["lift", str(ppath), "--p", "2"],
        ["render", str(ppath), "--format", "svg"],
    ]
    for argv in cases:
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code, argv
        assert first.encode() == second.encode(), argv
    print("criterion 9: PASS  byte-identical output across repeated runs of every command")
