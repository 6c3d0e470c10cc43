import math

import numpy as np
import pytest
from scipy.stats import kstest, kstwo

from sunmesh._kstest import MIN_SAMPLES, ks_one_sample, kstwo_sf


def _assert_close(ours, scipy_p):
    assert not math.isnan(ours)
    assert 0.0 <= ours <= 1.0
    if scipy_p > 1e-300:
        assert abs(ours - scipy_p) <= 1e-10
        assert abs(ours - scipy_p) <= 1e-8 * scipy_p


def _branch(n, d):
    t = n * d
    if d >= 1.0 or t <= 0.5:
        return "trivial"
    if t <= 1.0 or t >= n - 1:
        return "ruben-gambino"
    if d >= 0.5:
        return "smirnov d>=0.5"
    if t * d >= 370.0:
        return "zero"
    if t * d >= 2.2:
        return "smirnov" if n <= 1_000_000 else "miller"
    if n <= 100_000 and n * d**1.5 <= 1.4:
        return "durbin"
    return "pelz-good"


def test_kstwo_sf_matches_scipy_on_every_branch():
    seen = set()
    for n in (141, 500, 1000, 20000, 100000, 100001, 1500000):
        ds = [0.3 / n, 0.8 / n, 1.0 / n, 2.0 / n, 0.5, 0.7, 1.0 - 1.5 / n, 1.0 - 1.0 / n, 1.0]
        ds += [z / math.sqrt(n) for z in (0.2, 0.3, 0.5, 0.8, 1.2, 1.5, 2.0, 5.0, 19.2, 19.3)]
        # n * (1 - d) an integer: the last Birnbaum-Tingey term vanishes
        ds += [1.0 - j / n for j in (n // 2, n // 3, n - 4 * math.isqrt(n))]
        for d in ds:
            if 0.0 < d <= 1.0:
                seen.add(_branch(n, d))
                _assert_close(kstwo_sf(d, n), float(kstwo.sf(d, n)))
    assert seen == {
        "trivial",
        "ruben-gambino",
        "smirnov d>=0.5",
        "zero",
        "smirnov",
        "miller",
        "durbin",
        "pelz-good",
    }


def test_ks_one_sample_matches_kstest():
    rng = np.random.default_rng(11)
    cases = ((2, 141, 1.0), (3, 1000, 1.0), (5, 20000, 1.0), (3, 5000, 1.1), (8, 30001, 1.3))
    for n, size, a in cases:
        x = rng.beta(a, n - 1, size)  # |U_11|^2 of a Haar U when a = 1

        def law(s):
            return 1.0 - (1.0 - s) ** (n - 1)

        ref = kstest(x, law)
        stat, p = ks_one_sample(x, law)
        assert stat == float(ref.statistic)
        _assert_close(p, float(ref.pvalue))


def test_tail_with_vanishing_birnbaum_tingey_term_is_zero():
    # n * (1 - d) = 4297 is an integer, so the last Birnbaum-Tingey term
    # vanishes; a NaN there must not turn into p = 1
    assert kstwo_sf(0.5703, 10000) == 0.0


def test_small_or_unequal_samples_are_refused():
    assert MIN_SAMPLES == 141
    with pytest.raises(ValueError):
        kstwo_sf(0.1, 140)
    with pytest.raises(ValueError):
        ks_one_sample(np.linspace(0.0, 1.0, 140), lambda s: s)
