"""Kolmogorov-Smirnov statistics and p-values in NumPy, for samples of more
than 140 points.

The two-sided one-sample law P(D_N >= d) follows the choice of method of
Simard and L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov
distribution", J. Stat. Softw. 39(11) (2011), for N > 140:

* the Ruben-Gambino closed forms at N*d <= 1 and at N*d >= N - 1;
* twice the one-sided Smirnov tail when d >= 0.5 or 2.2 <= N*d^2 < 370,
  and 0 when N*d^2 >= 370;
* otherwise one minus the CDF: Durbin's matrix in the form of Marsaglia,
  Tsang and Wang, J. Stat. Softw. 8(18) (2003), when N <= 100000 and
  N*d^1.5 <= 1.4, and the Pelz-Good series elsewhere.

The one-sided tail is the exact Birnbaum-Tingey sum up to N = 10^6, each
term a binomial probability in Loader's saddle-point form, and the
asymptotic exp(-(6 N d + 1)^2 / (18 N)) above.  These are the methods and
thresholds of SciPy's ``kstwo.sf``, which the tests use as the oracle.
Smaller samples, which need other methods, are refused.
"""

from __future__ import annotations

import math

import numpy as np

MIN_SAMPLES = 141
_CHUNK = 4096  # points per evaluation step, so work arrays do not grow with N

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# ln 2 split so that e * _LN2_HI is exact for |e| < 2**21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# B_2k / (2k (2k - 1)): Stirling's series for log k! - (k + 1/2) log k + k - log(2 pi)/2
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _check_size(n: int) -> None:
    if n < MIN_SAMPLES:
        raise ValueError(f"Kolmogorov-Smirnov p-values need more than 140 points, got {n}")


def _stirlerr(k):
    """log k! - (k + 1/2) log k + k - log(2 pi)/2 for integers k >= 1."""
    k = np.asarray(k, dtype=float)
    r = 1.0 / k
    out = np.asarray(r * np.polyval(_STIRLING[::-1], r * r))
    small = k <= 15  # where five series terms are not yet exact to rounding
    out[small] = [
        math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v - _HALF_LOG_2PI for v in k[small]
    ]
    return out


def _bd0(x, m):
    """Loader's deviance x log(x/m) + m - x, without cancellation for x near m."""
    u = (x - m) / m
    return m * ((1.0 + u) * np.log1p(u) - u)


def _smirnov_sf(n: int, d: float) -> float:
    """One-sided P(D_N^+ >= d) for 0 < d < 1."""
    t = n * d
    if n > 1_000_000:
        return math.exp(-((6.0 * t + 1.0) ** 2) / (18.0 * n))
    # Birnbaum-Tingey: (1-d)^n + d * sum_j C(n,j) b^(j-1) (1-b)^(n-j), b = d + j/n,
    # over 1 <= j with n*(1-b) > 0; C(n,j) b^j (1-b)^(n-j) is a binomial probability.
    j = np.arange(1.0, math.floor(n - t) + 1.0)
    rest = (n - j) - t  # n * (1 - b), exactly 0 or rounded below 0 for a vanishing term
    j, rest = j[rest > 0.0], rest[rest > 0.0]
    hit = t + j  # n * b
    log_pmf = (
        _stirlerr(n)
        - _stirlerr(j)
        - _stirlerr(n - j)
        - _bd0(j, hit)
        - _bd0(n - j, rest)
        + 0.5 * np.log(n / (2.0 * math.pi * j * (n - j)))
    )
    logs = np.concatenate(([n * math.log1p(-d)], math.log(d) + log_pmf - np.log(hit / n)))
    top = logs.max()
    return math.exp(top + math.log(np.exp(logs - top).sum()))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_N < d) as (n!/n^n) (H^n)_kk, with d = (k - h)/n (Marsaglia-Tsang-Wang)."""
    t = n * d
    k = math.ceil(t)
    h = k - t
    m = 2 * k - 1
    inv_fact = np.cumprod(1.0 / np.arange(1.0, m + 1.0))  # 1/j!, j = 1..m
    w = np.concatenate(([1.0], inv_fact[:-1]))
    v = (1.0 - h ** np.arange(1.0, m + 1.0)) * inv_fact
    v[-1] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[-1]
    lag = np.arange(m)[:, None] - np.arange(m) + 1
    a = np.where(lag >= 0, w[np.clip(lag, 0, m - 1)], 0.0)
    a[:, 0] = v
    a[-1, :] = v[::-1]

    def rescaled(x, e):
        # divide by a power of two so that x[k-1, k-1] lies in [0.5, 1)
        shift = math.frexp(x[k - 1, k - 1])[1]
        return np.ldexp(x, -shift), e + shift

    power, e_power, e_a, bits = np.eye(m), 0, 0, n
    while True:
        if bits & 1:
            power, e_power = rescaled(power @ a, e_power + e_a)
        bits >>= 1
        if not bits:
            break
        a, e_a = rescaled(a @ a, 2 * e_a)
    # log(n!/n^n) = stirlerr(n) + log(2 pi n)/2 - n; e_power * _LN2_HI - n is exact
    log_cdf = (e_power * _LN2_HI - n) + (
        math.log(power[k - 1, k - 1])
        + e_power * _LN2_LO
        + float(_stirlerr(n))
        + 0.5 * math.log(2.0 * math.pi * n)
    )
    return math.exp(log_cdf)


def _pelz_good_cdf(n: int, d: float) -> float:
    """Pelz-Good series for P(D_N <= d): the Li-Chien/Korolyuk expansion
    K_0 + K_1/N^(1/2) + K_2/N + K_3/N^(3/2) in z = N^(1/2) d, each K_i in
    its Jacobi-theta form, which converges fast for small z."""
    z = math.sqrt(n) * d
    z2, pi2 = z * z, math.pi**2
    qlog = -pi2 / (8.0 * z2)
    if qlog < -708.0:
        return 0.0
    # K_i * (z-power) / sqrt(2 pi) = sum over odd m of c_i(m^2) exp(qlog m^2)
    c = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [-z2, pi2 / 4.0, 0.0, 0.0],
            [
                6.0 * z2**3 + 2.0 * z2**2,
                pi2 * (2.0 * z2**2 - 5.0 * z2) / 4.0,
                pi2**2 * (1.0 - 2.0 * z2) / 16.0,
                0.0,
            ],
            [
                -30.0 * z2**3 - 90.0 * z2**4,
                pi2 * (135.0 * z2**2 - 96.0 * z2**3) / 4.0,
                pi2**2 * (212.0 * z2**2 - 60.0 * z2) / 16.0,
                pi2**3 * (5.0 - 30.0 * z2) / 64.0,
            ],
        ]
    )
    terms = math.ceil(16.0 * z / math.pi)
    m2 = (2.0 * np.arange(1.0, terms + 1.0) - 1.0) ** 2
    k = c @ (np.exp(qlog * m2) @ m2[:, None] ** np.arange(4))
    root = math.sqrt(2.0 * math.pi)
    k *= root / np.array([z, 6.0 * z2**2, 72.0 * z**7, 6480.0 * z**10])
    # K_2 and K_3 also hold sums over all integers j of j^2 exp(-pi^2 j^2 / (2 z^2))
    j2 = np.arange(1.0, terms + 1.0) ** 2
    w = j2 * np.exp(-pi2 * j2 / (2.0 * z2))
    k[2] -= np.sum(w) * pi2 * root / (36.0 * z**3)
    k[3] += np.sum((3.0 * z2 - pi2 * j2) * w) * pi2 * root / (216.0 * z2**3)
    return float(np.sum(k / n ** (np.arange(4) / 2.0)))


def _clip(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def kstwo_sf(d: float, n: int) -> float:
    """P(D_N >= d) for the two-sided one-sample statistic D_N, N > 140."""
    _check_size(n)
    d = float(d)
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        log_nfact = float(_stirlerr(n)) + 0.5 * math.log(2.0 * math.pi * n) - n  # log(n!/n^n)
        return _clip(1.0 - math.exp(log_nfact + n * math.log(2.0 * t - 1.0)))
    if t >= n - 1:
        return _clip(2.0 * (1.0 - d) ** n)
    tail = t * d
    if d >= 0.5 or 2.2 <= tail < 370.0:
        return _clip(2.0 * _smirnov_sf(n, d))
    if tail >= 370.0:
        return 0.0
    if n <= 100_000 and n * d**1.5 <= 1.4:
        return _clip(1.0 - _durbin_cdf(n, d))
    return _clip(1.0 - _pelz_good_cdf(n, d))


def ks_one_sample(sample, cdf) -> tuple[float, float]:
    """Two-sided statistic sup |F_N - F| of ``sample`` against the continuous
    CDF ``cdf`` (a vectorized callable), and its exact p-value."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    _check_size(n)
    d_plus = d_minus = -math.inf
    for start in range(0, n, _CHUNK):
        c = cdf(x[start : start + _CHUNK])
        rank = np.arange(start, start + c.size, dtype=float)
        d_plus = max(d_plus, float(np.max((rank + 1.0) / n - c)))
        d_minus = max(d_minus, float(np.max(c - rank / n)))
    d = d_plus if d_plus > d_minus else d_minus
    return d, kstwo_sf(d, n)
