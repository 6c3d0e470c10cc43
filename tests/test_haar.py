import math

import numpy as np
import pytest

from sunmesh import (
    ARITY_CONSTRAINED,
    ARITY_FULL,
    Coupler,
    EulerAngles,
    HaarSpec,
    MeshPlan,
    ValidationError,
    is_unitary,
    parameter_count,
    random_unitary_qr,
    reconstruct,
    sample_beta,
    sample_coset,
    sample_haar,
    sample_unitaries,
    validate_haar,
)


def test_haar_spec_validation():
    with pytest.raises(ValidationError):
        HaarSpec(1)
    with pytest.raises(ValidationError):
        HaarSpec(3, seed=-1)


def test_sample_beta_known_values():
    # u^(1/(2k)) = 1/2 makes beta = 2*arcsin(1/2) = pi/3
    assert abs(sample_beta(1, 0.25) - math.pi / 3) < 1e-15
    assert abs(sample_beta(2, 0.0625) - math.pi / 3) < 1e-15
    assert sample_beta(3, 0.0) == 0.0


def test_sample_beta_inverts_the_analytic_cdf():
    # the CDF of the level-k density is sin(beta/2)^(2k)
    for level in (1, 2, 5):
        grid = np.linspace(0.05, math.pi - 0.05, 40)
        cdf = np.sin(grid / 2.0) ** (2 * level)
        assert np.allclose(sample_beta(level, cdf), grid, atol=1e-10)


def test_sample_beta_is_monotone_and_in_range():
    u = np.linspace(0.0, 0.999999, 1000)
    b = sample_beta(3, u)
    assert np.all(np.diff(b) > 0)
    assert b[0] == 0.0 and b[-1] < math.pi


def test_sample_beta_rejects_bad_u():
    with pytest.raises(ValidationError):
        sample_beta(2, 1.0)
    with pytest.raises(ValidationError):
        sample_beta(2, -0.01)
    with pytest.raises(ValidationError):
        sample_beta(2, math.nan)
    with pytest.raises(ValidationError):
        sample_beta(2, np.array([0.5, math.nan]))


def test_sample_haar_plan_shape_and_determinism():
    spec = HaarSpec(4, seed=7)
    plan = sample_haar(spec)
    assert plan == sample_haar(HaarSpec(4, seed=7))
    assert plan != sample_haar(HaarSpec(4, seed=8))
    assert len(plan.couplers) == 6
    assert parameter_count(plan) == 15
    heads = [c.arity == ARITY_FULL for c in plan.couplers]
    assert heads == [True, False, False, True, False, True]
    for c in plan.couplers:
        if c.arity == ARITY_CONSTRAINED:
            assert c.angles.gamma == c.angles.alpha
    assert is_unitary(reconstruct(plan), tol=1e-12)


def _reference_plan(n, bit_generator, coset=False, width=1, lane=0):
    """Draw a plan coupler by coupler in the documented order.

    Each angle takes ``width`` uniforms at once and keeps the one at
    ``lane``, which is how lane ``lane`` of a ``width``-draw slab sees the
    stream.
    """
    rng = np.random.Generator(bit_generator)

    def draw():
        return float(rng.random(width)[lane])

    couplers = []
    for k in [1] if coset else range(1, n):
        for m in range(n - 1, k - 1, -1):
            head = m == n - 1
            beta = sample_beta(1 if head else n - m, draw())
            alpha = 2 * math.pi * draw()
            if head:
                gamma = 4 * math.pi * draw()
                if gamma > 2 * math.pi:
                    gamma -= 4 * math.pi
                couplers.append(Coupler(m, m + 1, EulerAngles(alpha, beta, gamma), ARITY_FULL))
            else:
                couplers.append(
                    Coupler(m, m + 1, EulerAngles(alpha, beta, alpha), ARITY_CONSTRAINED)
                )
    return MeshPlan(n, 0.0, tuple(couplers))


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 11), (5, 4), (8, 29)])
def test_samplers_follow_the_documented_draw_order(n, seed):
    assert sample_haar(HaarSpec(n, seed=seed)) == _reference_plan(n, np.random.Philox(seed))
    coset = sample_coset(HaarSpec(n, seed=seed))
    assert coset == _reference_plan(n, np.random.Philox(seed), coset=True)

    u = sample_unitaries(n, 1025, seed=seed)
    first = _reference_plan(n, np.random.Philox([seed, 0]), width=1024, lane=0)
    last = _reference_plan(n, np.random.Philox([seed, 1]))
    assert np.max(np.abs(u[0] - reconstruct(first))) <= 1e-13
    assert np.max(np.abs(u[1024] - reconstruct(last))) <= 1e-13
    single = reconstruct(_reference_plan(n, np.random.Philox([seed, 0])))
    assert np.max(np.abs(sample_unitaries(n, 1, seed=seed)[0] - single)) <= 1e-13


def test_sample_coset_is_single_chain():
    plan = sample_coset(HaarSpec(5, seed=2))
    assert [(c.i, c.j) for c in plan.couplers] == [(4, 5), (3, 4), (2, 3), (1, 2)]
    assert plan.couplers[0].arity == ARITY_FULL
    assert parameter_count(plan) == 9  # 2n - 1 free angles


def test_sample_coset_n2_degenerates_to_group_draw():
    coset = sample_coset(HaarSpec(2, seed=4))
    group = sample_haar(HaarSpec(2, seed=4))
    assert coset == group


def test_coset_first_column_matches_qr_oracle():
    from scipy.stats import ks_2samp

    count = 4000
    cols = np.empty((count, 4), dtype=complex)
    qr_cols = np.empty((count, 4), dtype=complex)
    for s in range(count):
        cols[s] = reconstruct(sample_coset(HaarSpec(4, seed=s)))[:, 0]
        qr_cols[s] = random_unitary_qr(4, seed=100000 + s)[:, 0]
    for row in range(4):
        stat = ks_2samp(np.abs(cols[:, row]) ** 2, np.abs(qr_cols[:, row]) ** 2)
        assert stat.pvalue > 0.01, (row, stat.pvalue)


def test_sample_unitaries_shape_dtype_unitarity():
    u = sample_unitaries(3, 50, seed=1)
    assert u.shape == (50, 3, 3)
    assert u.dtype == np.complex128
    eye = np.eye(3)
    for k in range(50):
        assert np.linalg.norm(u[k].conj().T @ u[k] - eye) < 1e-12


def test_sample_unitaries_chunks_are_stable_under_count_growth():
    # chunk keying by (seed, slab) makes shorter runs prefixes of longer ones
    a = sample_unitaries(3, 1024, seed=9)
    b = sample_unitaries(3, 2048, seed=9)
    assert np.array_equal(a, b[:1024])


def test_sample_unitaries_slab_prefix_crosses_block_edges():
    # whole slabs are prefixes, and each spans eight 128-sample product
    # blocks; a partial last slab draws each angle for its own size, so only
    # whole slabs carry over
    a = sample_unitaries(5, 1025, seed=4)
    b = sample_unitaries(5, 2049, seed=4)
    assert np.array_equal(a[:1024], b[:1024])
    assert np.array_equal(sample_unitaries(5, 2048, seed=4), b[:2048])


# SHA-256 of the raw sampler bytes at fixed seeds, so a change to the draw or
# the batched product that moves any bit shows.
# The digests were recorded under NumPy 2.4.6 and scipy-openblas 0.3.31 on
# an AVX-512 x86-64 host with scipy-openblas's SkylakeX core and glibc 2.36.
# Three things move the last bits: NumPy's SIMD loops, the OpenBLAS core and
# glibc's FMA variants, so on another host correct code may give other digests.
SAMPLER_SHA256 = {
    (5, 2049, 7): "d8cff27df37aaecb715766782c54149cd86e986d0ce2118fe27a25a8e812dff0",
    (16, 1100, 3): "c02fc819138c2440e7cc570b0d3ec608c1e745074058832ad741b32bb7d103e2",
}


@pytest.mark.parametrize("n, count, seed", list(SAMPLER_SHA256))
def test_sample_unitaries_bytes_are_pinned(n, count, seed):
    import hashlib

    digest = hashlib.sha256(sample_unitaries(n, count, seed=seed).tobytes()).hexdigest()
    assert digest == SAMPLER_SHA256[n, count, seed]


def test_slab_memory_is_bounded_per_entry():
    import tracemalloc

    from sunmesh import haar

    n, size = 16, 1024
    haar._chunk_unitaries(n, 1, 0, size, "recursive")
    tracemalloc.start()
    try:
        haar._chunk_unitaries(n, 1, 0, size, "recursive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result alone is 16 bytes per entry; the angle table adds about 12,
    # and one block's coupler matrices and layer temporaries the rest
    assert peak / (size * n * n) <= 64


def test_sample_unitaries_validation():
    with pytest.raises(ValidationError):
        sample_unitaries(1, 10)
    with pytest.raises(ValidationError):
        sample_unitaries(3, 0)


def test_validate_haar_mesh_sampler_passes():
    report = validate_haar(3, 20000, seed=0)
    assert report["passed"]
    assert report["moments"]["passed"]
    assert report["moments"]["max_sigma"] <= 3.0
    assert report["ks"]["passed"]
    assert report["invariance"]["passed"]
    assert report["source"] == "mesh"


def test_validate_haar_qr_oracle_passes():
    report = validate_haar(3, 20000, seed=0, source="qr")
    assert report["passed"]


def test_validate_haar_uniform_beta_control_fails_ks():
    report = validate_haar(3, 20000, seed=0, beta_mode="uniform")
    assert not report["ks"]["passed"]
    assert not report["passed"]


@pytest.mark.parametrize("n", [3, 5])
def test_validate_haar_invariance_rejects_a_skewed_first_column(monkeypatch, n):
    from sunmesh import haar

    draw = haar._chunk_unitaries

    def skewed(n, seed, chunk, size, beta_mode):
        # |U_11| is kept, so only the invariance check can see the change
        u = draw(n, seed, chunk, size, beta_mode)
        rest = u[:, 1:, 0] * np.r_[3.0, np.ones(n - 2)]
        norm = np.sqrt(1.0 - np.abs(u[:, 0, 0]) ** 2) / np.linalg.norm(rest, axis=1)
        u[:, 1:, 0] = rest * norm[:, None]
        return u

    honest = validate_haar(n, 20000, seed=0)
    monkeypatch.setattr(haar, "_chunk_unitaries", skewed)
    report = validate_haar(n, 20000, seed=0)
    assert report["ks"] == honest["ks"]
    assert report["ks"]["passed"]
    assert honest["invariance"]["passed"]
    assert report["invariance"]["passed"] is False
    assert report["passed"] is False


def test_validate_haar_report_shape():
    report = validate_haar(3, 5000, seed=2)
    assert {"n", "samples", "seed", "source", "beta_mode", "significance"} <= set(report)
    assert report["significance"] == 0.01
    assert np.asarray(report["moments"]["mean"]).shape == (3, 3)
    assert {"stat", "pvalue", "passed"} <= set(report["ks"])
    assert {"stat", "pvalue", "passed"} <= set(report["invariance"])


def test_validate_haar_requires_enough_samples():
    with pytest.raises(ValidationError):
        validate_haar(3, 999)


@pytest.mark.parametrize(
    "source, beta_mode",
    [("mesh", "bogus"), ("qr", "bogus"), ("qr", "uniform"), ("nope", "recursive")],
)
def test_validate_haar_rejects_unknown_source_or_beta_mode(source, beta_mode):
    # the QR oracle has no middle-angle law to replace, so it takes only the default
    with pytest.raises(ValidationError):
        validate_haar(3, 1000, source=source, beta_mode=beta_mode)


def test_validate_haar_moments_match_the_full_sample():
    n, samples = 4, 3000
    report = validate_haar(n, samples, seed=3)
    absq = np.abs(sample_unitaries(n, samples, seed=3)) ** 2
    mean = absq.mean(axis=0)
    stderr = absq.std(axis=0, ddof=1) / math.sqrt(samples)
    assert np.allclose(report["moments"]["mean"], mean, rtol=1e-13, atol=0.0)
    assert np.allclose(report["moments"]["stderr"], stderr, rtol=1e-12, atol=0.0)
    sigma = np.max(np.abs(mean - 1.0 / n) / stderr)
    assert abs(report["moments"]["max_sigma"] - sigma) <= 1e-10


def test_validate_haar_invariance_is_the_one_sample_law_of_vu():
    from sunmesh._kstest import ks_one_sample

    n, samples, seed = 4, 3000, 3
    invariance = validate_haar(n, samples, seed=seed)["invariance"]
    v = random_unitary_qr(n, seed + 1)
    w11 = np.abs((v @ sample_unitaries(n, samples, seed=seed))[:, 0, 0]) ** 2
    stat, pvalue = ks_one_sample(w11, lambda s: 1.0 - (1.0 - s) ** (n - 1))
    assert invariance["stat"] == pytest.approx(stat, rel=1e-12)
    assert invariance["pvalue"] == pytest.approx(pvalue, rel=1e-9)


def test_validate_haar_moments_pvalue_is_bonferroni_over_the_entries():
    n = 4
    moments = validate_haar(n, 3000, seed=3)["moments"]
    want = min(1.0, n * n * math.erfc(moments["max_sigma"] / math.sqrt(2.0)))
    assert moments["pvalue"] == want
    assert moments["passed"] == (want > 0.01)


FOURIER_4 = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2


# every |U_ij|^2 is constant, so every standard error is exactly 0: the
# identity's entries miss 1/4 (z = inf), the Fourier matrix's hit it (z = NaN)
@pytest.mark.parametrize("sample", [np.eye(4), FOURIER_4], ids=["identity", "fourier"])
def test_validate_haar_non_finite_max_sigma_fails(monkeypatch, sample):
    from sunmesh import haar

    def constant(n, seed, chunk, size, beta_mode):
        return np.tile(sample, (size, 1, 1))

    monkeypatch.setattr(haar, "_chunk_unitaries", constant)
    with np.errstate(all="ignore"):
        moments = validate_haar(4, 2000)["moments"]
    assert not math.isfinite(moments["max_sigma"])
    assert moments["passed"] is False


def test_validate_haar_memory_does_not_grow_with_the_sample_array():
    import tracemalloc

    n = 8
    peaks = []
    validate_haar(n, 1000)
    for samples in (5000, 20000):
        tracemalloc.start()
        try:
            validate_haar(n, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # holding the (samples, n, n) draws alone would add n*n*16 bytes per sample
    assert (peaks[1] - peaks[0]) / 15000 < n * n * 16 / 4


def test_validate_haar_statistics_work_in_bounded_chunks():
    import tracemalloc

    peaks = []
    validate_haar(3, 1000)
    for samples in (100_000, 200_000):
        tracemalloc.start()
        try:
            validate_haar(3, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the two 8-byte sample vectors and their two sorted copies grow with the
    # sample count; the Kolmogorov-Smirnov work arrays must not
    assert (peaks[1] - peaks[0]) / 100_000 <= 40


def test_validate_haar_invariance_tail_with_vanishing_term_is_zero():
    # a control far in the tail; the vanishing Birnbaum-Tingey term it once
    # reached is tested on kstwo_sf directly in test_kstest.py
    report = validate_haar(8, 20000, seed=1, beta_mode="uniform")
    assert report["invariance"]["stat"] == pytest.approx(0.2204229126481621, rel=1e-12)
    assert report["invariance"]["pvalue"] == 0.0
    assert report["invariance"]["passed"] is False
    assert report["passed"] is False
