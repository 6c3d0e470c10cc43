"""Haar-random sampling directly in mesh-angle coordinates.

The invariant measure on SU(n) factorizes over the triangle mesh: each
coupler's middle angle beta follows the level-k density

    sin(beta) * sin(beta/2)^(2(k-1))

where the level of a coupler on pair (m, m+1) is n - m, chain heads carry
the full SU(2) measure (level 1 with both phases free), and all phases are
uniform.  Inverse-CDF sampling makes every angle one or two uniform draws,
so plans are reproducible at the bit level from a counter-based stream.

Every sampler draws its angles the same way, coupler by coupler in plan
order: beta, alpha, then gamma for chain heads.  :func:`sample_unitaries`
draws a whole slab per angle into one angle table and multiplies the plans
out with the batched coupler kernel of :mod:`sunmesh.mesh`, one 128-sample
block at a time; its fixed 1024-sample slabs are keyed by (seed, slab
index), so the whole slabs of a shorter run are a prefix of a longer one
with the same seed.  A partial last slab draws each angle for its own
size, so its rows are not.
:func:`validate_haar` tests the mesh sampler, a flat-beta variant of it or
an independent QR-based sampler against closed-form Haar laws.  Left
invariance is one of them: V U is Haar for a fixed V, so |(V U)_11|^2 has
the law of |U_11|^2.  It reduces the same slabs one at a time, and computes
its one-sample Kolmogorov-Smirnov p-values exactly in NumPy
(:mod:`sunmesh._kstest`), choosing the method as Simard and L'Ecuyer do
(J. Stat. Softw. 39(11), 2011), so it needs no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kstest import ks_one_sample
from .errors import ValidationError, check_choice, check_int
from .linalg import _ginibre_qr, random_unitary_qr
from .mesh import ARITY_CONSTRAINED, ARITY_FULL, Coupler, MeshPlan, _product, _triangle_pairs
from .su2 import EulerAngles

__all__ = [
    "HaarSpec",
    "sample_beta",
    "sample_haar",
    "sample_coset",
    "sample_unitaries",
    "validate_haar",
]

_CHUNK = 1024
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HaarSpec:
    """What to sample: dimension and stream seed."""

    n: int
    seed: int = 0

    def __post_init__(self):
        check_int(self.n, "n", 2)
        check_int(self.seed, "seed", 0)


def sample_beta(level: int, u):
    """Inverse-CDF draw of the level-k middle angle from uniform u in [0,1).

    Substituting t = sin^2(beta/2) turns the level-k density into t^(k-1) dt
    on [0, 1], whose CDF is t^k, hence beta = 2*arcsin(u^(1/(2k))).  The map
    is monotone in u with beta -> 0 as u -> 0 and beta -> pi as u -> 1.
    """
    check_int(level, "level", 1)
    x = np.asarray(u, dtype=float)
    if not np.all((x >= 0.0) & (x < 1.0)):
        raise ValidationError("u must lie in [0, 1)")
    out = _beta_from_uniform(level, x)
    return float(out) if np.ndim(u) == 0 else out


def _beta_from_uniform(level: int, u):
    """The inverse CDF of :func:`sample_beta`, without its checks."""
    return 2.0 * np.arcsin(np.power(u, 1.0 / (2.0 * level)))


BETA_MODE_RECURSIVE = "recursive"
BETA_MODE_UNIFORM = "uniform"


def _draw_angles(n: int, rng, size, coset_only: bool, beta_mode: str):
    """Mode pairs and the ``(3, m)`` or ``(3, m, size)`` table of alpha,
    beta and gamma of a triangle plan (or its first chain); head gamma is
    wrapped into (-2*pi, 2*pi].
    """
    pairs = _triangle_pairs(n)
    if coset_only:
        pairs = pairs[: n - 1]  # chain C_1
    table = np.empty((3, len(pairs)) + (() if size is None else (size,)))
    for t, (m, _) in enumerate(pairs):
        head = m == n - 1
        u = rng.random(size)
        if beta_mode == BETA_MODE_UNIFORM:
            table[1, t] = math.pi * u
        else:
            table[1, t] = _beta_from_uniform(1 if head else n - m, u)
        table[0, t] = alpha = _TWO_PI * rng.random(size)
        if head:
            gamma = 2.0 * _TWO_PI * rng.random(size)
            table[2, t] = np.where(gamma > _TWO_PI, gamma - 2.0 * _TWO_PI, gamma)
        else:
            table[2, t] = alpha
    return pairs, table


def _draw_plan(n: int, seed: int, coset_only: bool) -> MeshPlan:
    rng = np.random.Generator(np.random.Philox(seed))
    pairs, table = _draw_angles(n, rng, None, coset_only, BETA_MODE_RECURSIVE)
    couplers = tuple(
        Coupler(i, j, EulerAngles(*row), ARITY_FULL if i == n - 1 else ARITY_CONSTRAINED)
        for (i, j), row in zip(pairs, table.T.tolist())
    )
    return MeshPlan(n, 0.0, couplers)


def sample_haar(spec: HaarSpec) -> MeshPlan:
    """Draw one Haar-distributed SU(n) element as a canonical triangle plan.

    Every coupler consumes a fixed number of uniform draws (three for chain
    heads, two otherwise) in plan order, so a given (n, seed) always yields
    the same plan.
    """
    return _draw_plan(spec.n, spec.seed, coset_only=False)


def sample_coset(spec: HaarSpec) -> MeshPlan:
    """Draw from the coset measure: the first descending chain only.

    The emitted plan has n-1 couplers and 2n-1 free angles: the full
    measure minus the (n-1)^2 - 1 parameters of the removed subgroup
    factor.  For n=2 the coset and group cases coincide.  The plan's first
    column is uniform on the complex unit sphere.
    """
    return _draw_plan(spec.n, spec.seed, coset_only=True)


def _slab_rng(seed: int, chunk: int):
    """The stream of one sample slab, keyed (seed, chunk) for order independence."""
    return np.random.Generator(np.random.Philox([seed, chunk]))


def _chunk_unitaries(n: int, seed: int, chunk: int, size: int, beta_mode: str) -> np.ndarray:
    """One slab of group samples."""
    pairs, table = _draw_angles(n, _slab_rng(seed, chunk), size, False, beta_mode)
    return np.moveaxis(_product(n, pairs, table), -1, 0)


def _slabs(count: int):
    """Yield ``(chunk, start, stop)`` for each fixed slab of ``count`` draws."""
    for chunk, start in enumerate(range(0, count, _CHUNK)):
        yield chunk, start, min(start + _CHUNK, count)


def sample_unitaries(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Vectorized batch of group samples, shape (count, n, n).

    Results depend only on (n, count, seed).
    """
    check_int(n, "n", 2)
    check_int(count, "count", 1)
    check_int(seed, "seed", 0)
    out = np.empty((count, n, n), dtype=np.complex128)
    for chunk, start, stop in _slabs(count):
        out[start:stop] = _chunk_unitaries(n, seed, chunk, stop - start, BETA_MODE_RECURSIVE)
    return out


SOURCE_MESH = "mesh"
SOURCE_QR = "qr"
_SIGNIFICANCE = 0.01


def validate_haar(
    n: int,
    samples: int,
    seed: int = 0,
    source: str = SOURCE_MESH,
    beta_mode: str = BETA_MODE_RECURSIVE,
) -> dict:
    """Statistical report comparing a sampler against exact Haar laws.

    Three checks are run on ``samples`` matrices: per-entry second moments
    E|U_ij|^2 = 1/n, whose largest z-score ``max_sigma`` over the n^2
    entries gives the Bonferroni p-value min(1, n^2 erfc(max_sigma/sqrt 2));
    a KS test of |U_11|^2 against the law P(|U_11|^2 > s) = (1-s)^(n-1);
    and left invariance, the same one-sample test of |(V U)_11|^2 for a
    fixed random V: V U is Haar when U is, so it has the same law.  A
    sampler can pass the first test and fail this one, when it gives
    |U_11| the right law but spreads the rest of the first column
    unevenly.  The ``source`` selects the mesh sampler or the
    independent QR oracle.  ``beta_mode="uniform"`` replaces the mesh
    sampler's middle-angle law with a flat one, as a negative control; the
    oracle has no middle-angle law, so it takes only the default
    ``beta_mode``.  A check passes when its p-value exceeds 0.01.

    The draws are made and reduced one 1024-sample slab at a time, keeping
    only per-entry sums and sums of squares and the two vectors of
    |U_11|^2 and |(V U)_11|^2; the sums are added in slab order.  Both
    KS p-values are exact: :mod:`sunmesh._kstest` computes P(D_N >= d) by
    the method choice of Simard and L'Ecuyer (J. Stat. Softw. 39(11), 2011).
    """
    check_int(n, "n", 2)
    check_int(samples, "samples", 1000)
    check_int(seed, "seed", 0)
    check_choice(source, "source", (SOURCE_MESH, SOURCE_QR))
    check_choice(beta_mode, "beta_mode", (BETA_MODE_RECURSIVE, BETA_MODE_UNIFORM))
    if source == SOURCE_QR and beta_mode != BETA_MODE_RECURSIVE:
        raise ValidationError(f"source 'qr' has no beta_mode {beta_mode!r}; only 'recursive'")

    v1 = random_unitary_qr(n, seed + 1)[0]
    s11, w11 = np.empty(samples), np.empty(samples)
    total, total_sq = np.zeros((n, n)), np.zeros((n, n))
    for chunk, start, stop in _slabs(samples):
        if source == SOURCE_QR:
            u = _ginibre_qr(_slab_rng(seed, chunk), n, (stop - start,))
        else:
            u = _chunk_unitaries(n, seed, chunk, stop - start, beta_mode)
        absq = np.abs(u) ** 2
        s11[start:stop] = absq[:, 0, 0]
        w11[start:stop] = np.abs(u[:, :, 0] @ v1) ** 2  # (V U)_11 from row 1 of V alone
        total += absq.sum(axis=0)
        total_sq += (absq * absq).sum(axis=0)
    mean = total / samples
    stderr = np.sqrt((total_sq - total * mean) / (samples - 1)) / math.sqrt(samples)
    max_sigma = float(np.max(np.abs(mean - 1.0 / n) / stderr))
    # Bonferroni over the n^2 entries; NaN comes first in min() so it fails
    pvalue = min(n * n * math.erfc(max_sigma / math.sqrt(2.0)), 1.0)
    moments = {
        "target": 1.0 / n,
        "mean": mean.tolist(),
        "stderr": stderr.tolist(),
        "max_sigma": max_sigma,
        "pvalue": pvalue,
        "passed": bool(pvalue > _SIGNIFICANCE),
    }

    def law(s):  # P(|U_11|^2 <= s), which |(V U)_11|^2 shares since V U is Haar too
        return 1.0 - (1.0 - s) ** (n - 1)

    stat, pvalue = ks_one_sample(s11, law)
    ks = {"stat": stat, "pvalue": pvalue, "passed": bool(pvalue > _SIGNIFICANCE)}

    stat, pvalue = ks_one_sample(w11, law)
    invariance = {"stat": stat, "pvalue": pvalue, "passed": bool(pvalue > _SIGNIFICANCE)}

    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "source": source,
        "beta_mode": beta_mode,
        "significance": _SIGNIFICANCE,
        "moments": moments,
        "ks": ks,
        "invariance": invariance,
        "passed": bool(moments["passed"] and ks["passed"] and invariance["passed"]),
    }
