"""Symmetric p-photon representations of n-mode unitaries, two ways.

The generator route lifts each mesh coupler in the C(n+p-1, p)-dimensional
Fock basis and multiplies the lifts in plan order.  A coupler on modes
(i, i+1) conserves m_i + m_{i+1} = s and every other occupation, so its
lift is block-diagonal: one (s+1)x(s+1) spin-s/2 Wigner block per s, the
bosonic ladder-generator exponential restricted to two modes and s
photons.  The blocks depend only on s and the angles, so the generator
route builds them for a chunk of couplers at once, one stack per s, and
keeps the state tables of each mode pair in a small read-only cache.  It
follows the paper's recursion SU(n) = SU(2) coupler times SU(n-1) block:
while the couplers applied so far act only on modes j..n, their product
is 1 on modes 1..j-1 times the lifts of one SU(n-j+1) element, held on
the (n-j+2)-mode Fock space whose first mode lumps modes 1..j-1.  A
coupler there costs O(dim(n-j+2, p) * dim(n-j+1, p) * (p+1)) instead of
O(dim^2 * (p+1)), so a lift costs the sum of these over the levels its
couplers act at, plus O(dim^2 * (p+1)) for each coupler applied after
mode 1 is mixed.

The permanent route needs only the n x n matrix U: each entry of its lift
is a scaled permanent of a repeated row/column submatrix, and the Laplace
expansion of those permanents builds the q-photon lift from the
(q-1)-photon lift, one photon at a time, from read-only rank maps cached
per (n, p).  Level q costs n^2 * dim_{q-1} * dim_q complex multiply-adds
in one matmul plus 2n gathers, and chunks its output columns so that its
two work arrays hold at most dim^2 entries each; no permanent is
evaluated.  The two routes are algebraically identical and are kept
independent so each can check the other.

A configurable dimension cap (``TRIMESH_DIM_CAP``, default 5000) is checked
when a :class:`FockBasis` or a permanent-route lift starts, before any
state is enumerated or table built, so both routes refuse an oversized
space at once.  Permanents are limited to 20x20, which takes well under a
second, and the permanent route to p <= 20.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np

from .errors import ResourceError, ValidationError, check_int
from .linalg import as_complex_matrix, is_unitary
from .mesh import Coupler, MeshPlan, _require_adjacent

__all__ = [
    "FockBasis",
    "basis_dimension",
    "lifted_generator",
    "lift_coupler",
    "lift_plan",
    "lift_via_permanents",
    "permanent_ryser",
]

_DEFAULT_DIM_CAP = 5000
_PERMANENT_SIZE_CAP = 20
_BLOCK = 12  # permanent columns summed in one vectorized table
_INT64_MAX = 2**63 - 1
_PAIR_TABLE_CACHE = 128  # (n, p) pair state tables kept across lifts
_PHOTON_TABLE_CACHE = 16  # (n, p) rank maps kept across permanent-route lifts
_BASIS_CACHE = 32  # (n, p) state enumerations kept for bases and tables
_SPIN_CACHE = 32  # Wigner eigensystems kept for s <= 32, about 0.4 MB in all


def dimension_cap() -> int:
    """Active lifted-dimension cap, overridable via TRIMESH_DIM_CAP."""
    raw = os.environ.get("TRIMESH_DIM_CAP")
    if raw is None:
        return _DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"TRIMESH_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"TRIMESH_DIM_CAP must be positive, got {cap}")
    return cap


def basis_dimension(n: int, p: int) -> int:
    """Number of p-photon states on n modes: C(n+p-1, p), exact.

    Raises :class:`OverflowError` if the count does not fit in a signed
    64-bit integer, rather than silently wrapping.
    """
    check_int(n, "n", 1)
    check_int(p, "p", 0)
    dim = math.comb(n + p - 1, p)
    if dim > _INT64_MAX:
        raise OverflowError(
            f"basis dimension C({n + p - 1},{p}) exceeds 64-bit integer range"
        )
    return dim


def _capped_dimension(n: int, p: int) -> int:
    """:func:`basis_dimension`, or :class:`ResourceError` above the cap."""
    dim, cap = basis_dimension(n, p), dimension_cap()
    if dim > cap:
        raise ResourceError(f"Fock basis dimension {dim} exceeds cap {cap}")
    return dim


@functools.lru_cache(maxsize=_BASIS_CACHE)
def _occupations(n: int, p: int) -> np.ndarray:
    """Read-only (dim, n) occupations of the p-photon states on n modes.

    Rows are in lexicographically descending order.  A state is a row of
    p stars and n - 1 bars, m_k being the stars between bars k-1 and k, so
    the bar positions, listed by ``itertools.combinations`` and reversed,
    give the states in that order.  Callers check the dimension cap first.
    """
    dim = math.comb(n + p - 1, p)
    combos = itertools.combinations(range(n + p - 1), n - 1)
    bars = np.fromiter(itertools.chain.from_iterable(combos), np.int64, dim * (n - 1))
    occ = np.diff(bars.reshape(dim, n - 1)[::-1], axis=1, prepend=-1, append=n + p - 1) - 1
    occ.flags.writeable = False
    return occ


class FockBasis:
    """Ordered p-photon occupation basis on n modes.

    States are tuples (m_1, ..., m_n) with sum p, listed in lexicographically
    descending order; ``index`` maps a state back to its row.  Both lifting
    routes must share one basis object so their matrices are entrywise
    comparable.  A dimension above :func:`dimension_cap` raises
    :class:`ResourceError` before any state is enumerated.
    """

    def __init__(self, n: int, p: int):
        self.n = check_int(n, "n", 1)
        self.p = check_int(p, "p", 0)
        _capped_dimension(n, p)
        self.states: tuple[tuple[int, ...], ...] = tuple(map(tuple, _occupations(n, p).tolist()))
        self.index: dict[tuple[int, ...], int] = {s: r for r, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"FockBasis(n={self.n}, p={self.p}, dim={len(self.states)})"


def lifted_generator(basis: FockBasis, i: int, j: int) -> "scipy.sparse.csr_matrix":
    """Sparse ladder generator C_ij in the given basis.

    Off-diagonal action: C_ij maps |m> to sqrt((m_i + 1) * m_j) times the
    state with one photon moved from mode j to mode i.  The diagonal
    generator C_ii counts the photons in mode i.  The lift of C_ji is the
    conjugate transpose of the lift of C_ij.
    """
    from scipy.sparse import csr_matrix

    for name, k in (("i", i), ("j", j)):
        if check_int(k, name, 1) > basis.n:
            raise ValidationError(f"{name} must be in 1..{basis.n}, got {k}")
    rows, cols, vals = [], [], []
    for c, state in enumerate(basis.states):
        if state[j - 1]:
            target = list(state)
            target[i - 1] += 1
            target[j - 1] -= 1
            rows.append(basis.index[tuple(target)])
            cols.append(c)
            vals.append(math.sqrt(target[i - 1] * state[j - 1]))
    dim = len(basis)
    return csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.float64)


@functools.lru_cache(maxsize=_PAIR_TABLE_CACHE)
def _pair_tables(n: int, p: int) -> tuple[tuple[tuple[int, np.ndarray], ...], ...]:
    """State tables of the SU(2) blocks of every adjacent pair on n modes.

    Entry i-1 belongs to the pair (i, i+1): for each s >= 1 present, its
    (s+1, groups) table lists the rows of ``FockBasis(n, p)`` with
    m_i + m_{i+1} = s, one column per setting of the other occupations,
    rows ordered m_i = s, ..., 0 as in ``FockBasis(2, s)``.  The s = 0
    block is 1.  A group starts at its state with m_{i+1} = 0.  Moving a
    photons from mode i to mode i+1 changes only t_i, the photons after
    mode i, so by the rank formula of :func:`_photon_tables` the row grows
    by the number of states of t_i .. t_i + a - 1 photons on the n - i
    modes after mode i.  Shared read-only, at most (n-1) * dim indices;
    callers hold a :class:`FockBasis` of p photons on at least n modes, so
    the dimension cap has been checked.
    """
    occ = _occupations(n, p)
    after = p - np.cumsum(occ, axis=1)
    # below[i-1, t]: the states of fewer than t photons on the modes after i
    below = np.array(
        [[math.comb(r + t - 1, r) for t in range(p + 1)] for r in range(n - 1, 0, -1)], np.int64
    ).reshape(n - 1, p + 1)
    pair, head = np.nonzero(((occ[:, :-1] > 0) & (occ[:, 1:] == 0)).T)
    pair_photons, later = occ[head, pair], after[head, pair]
    tables = [[] for _ in range(n - 1)]
    for s in range(1, p + 1):
        pick = pair_photons == s
        q, t = pair[pick], later[pick]
        rows = head[pick, None] + below[q[:, None], t[:, None] + np.arange(s + 1)]
        rows -= below[q, t][:, None]
        rows.flags.writeable = False
        cut = np.searchsorted(q, np.arange(n))
        for i in range(n - 1):
            if cut[i] < cut[i + 1]:
                tables[i].append((s, rows[cut[i] : cut[i + 1]].T))
    return tuple(map(tuple, tables))


@functools.lru_cache(maxsize=_SPIN_CACHE)
def _spin_eigensystem(s: int) -> tuple[np.ndarray, ...]:
    """Eigensystem of i*(C_12 - C_21) on ``FockBasis(2, s)``.

    Returns read-only the eigenvalues, the eigenvectors, their conjugate
    transpose and the z weights m_1 - m_2 = s, s-2, ..., -s.  Callers take
    it from the cache only for s <= _SPIN_CACHE and call
    ``_spin_eigensystem.__wrapped__`` above, so no large eigenbasis
    outlives its lift.
    """
    k = np.arange(1, s + 1)
    g = np.diag(np.sqrt((s + 1 - k) * k), 1)
    w, v = np.linalg.eigh(1j * (g - g.T))
    out = w, v, v.conj().T, np.arange(s, -s - 1, -2)
    for a in out:
        a.flags.writeable = False
    return out


def _wigner_stacks(spins: dict, angles: np.ndarray) -> dict[int, np.ndarray]:
    """Spin-s/2 Wigner D-matrices of k couplers on ``FockBasis(2, s)``.

    ``spins`` maps each s to its :func:`_spin_eigensystem` and ``angles``
    is the (k, 3) alpha/beta/gamma table.  Returns one (k, s+1, s+1) stack
    per s; each block comes out as it would alone, whatever the chunking.
    """
    alpha, beta, gamma = (x[:, None] for x in angles.T)
    stacks = {}
    for s, (w, v, vh, d) in spins.items():
        # alpha phases on the left, gamma phases on the right, in this
        # operand order: fused complex products need not commute bitwise
        block = (v * np.exp(0.5j * beta * w)[:, None, :]) @ vh
        np.multiply(np.exp(0.5j * alpha * d)[:, :, None], block, out=block)
        block *= np.exp(0.5j * gamma * d)[:, None, :]
        stacks[s] = block
    return stacks


def lift_coupler(basis: FockBasis, c: Coupler) -> np.ndarray:
    """Lift one adjacent coupler to the p-photon basis.

    The z rotations lift to diagonal phases exp(i*(theta/2)*(m_i - m_j))
    and the middle rotation to exp(-(beta/2)*(C_ij - C_ji)).  The lift is
    block-diagonal, one spin-s/2 Wigner block per s = m_i + m_j (see
    :func:`lift_plan`).
    """
    return lift_plan(basis, MeshPlan(basis.n, 0.0, (c,)))


def _widen(acc: np.ndarray, k: int, photons) -> np.ndarray:
    """Re-embed lifts on the last k modes one mode further down the mesh.

    At level j = n - k + 1 the running product is 1 on modes 1..j-1 times
    the lifts L_s, s = 0..p, of one unitary on the last k modes.  ``acc``
    holds them on the (k+1)-mode Fock space whose first mode lumps modes
    1..j-1: L_s sits in the rows where that mode holds p - s photons, which
    start at row dim(k+1, s-1), and in its first dim(k, s) columns.  For
    each r in ``photons`` the result stacks the block-diagonal sum of L_s
    over s <= r, each L_s at that same offset: ``range(p + 1)`` gives
    level j - 1, and ``(p,)`` at k = n - 1 gives the dense product.
    Each block is one slice copy.
    """
    rows = sum(math.comb(k + r, r) for r in photons)
    out = np.zeros((rows, math.comb(k + photons[-1], k)), dtype=np.complex128)
    top = 0
    for r in photons:
        lo = 0
        for s in range(r + 1):
            hi = lo + math.comb(k + s - 1, s)
            out[top + lo : top + hi, lo:hi] = acc[lo:hi, : hi - lo]
            lo = hi
        top += lo
    return out


def _descend(acc: np.ndarray, n: int, p: int, j: int, low: int) -> tuple[np.ndarray, int]:
    """Step the running product from level j down to level ``low``.

    Level 1 is the dense dim x dim product, reached through level 2.
    """
    while j > max(low, 2):
        j -= 1
        acc = _widen(acc, n - j, range(p + 1))
    if low == 1 and j == 2:
        acc, j = _widen(acc, n - 1, (p,)), 1
    return acc, j


def lift_plan(basis: FockBasis, plan: MeshPlan, return_info: bool = False):
    """Lift a whole adjacent-coupler plan: ordered product of coupler lifts.

    A coupler on (i, i+1) acts on each group of s+1 states that share
    s = m_i + m_{i+1} and the other occupations through one (s+1)x(s+1)
    Wigner block that depends only on s and the angles.  The blocks come
    from the plan's angle table and one small ``eigh`` per s, cached for
    s <= 32, as one (k, s+1, s+1) stack per s for each chunk of k
    couplers; a chunk's blocks hold at most dim^2 entries.  Couplers are
    applied last to first, each multiplying the running product from the
    left, one matmul per s for all its groups at once.

    The running product follows the paper's recursion.  While every
    coupler applied so far acts on modes j..n (level j), the product is 1
    on modes 1..j-1 times the lifts of one SU(n-j+1) element, and it is
    held on the (n-j+2)-mode Fock space whose first mode lumps modes
    1..j-1: a D_j x W_j array, D_j = dim(n-j+2, p) and W_j = dim(n-j+1, p)
    (see :func:`_widen`).  A coupler reaching mode j-1 steps one level
    down by (p+1)(p+2)/2 slice copies; the dense dim x dim product is
    built only when a coupler touches mode 1 or the plan ends, and a plan
    whose first applied coupler touches mode 1 starts dense.  A coupler at
    level j costs O(D_j * W_j * (p+1)) and a dense one O(dim^2 * (p+1)),
    so a triangle plan, n-j couplers at each level j = 2..n-1 and n-1
    dense, costs sum_j (n-j) D_j W_j (p+1) + (n-1) dim^2 (p+1).  The state
    tables are cached per (modes, p).  The global phase enters once
    per photon.  With ``return_info=True`` also returns
    ``{"offdiag_types", "pairs"}`` describing the generator economy.
    """
    if basis.n != plan.n:
        raise ValidationError(f"basis is on {basis.n} modes but plan is on {plan.n}")
    _require_adjacent(plan, "lift_plan")
    n, p, dim = basis.n, basis.p, len(basis)
    couplers = plan.couplers[::-1]
    angles = np.array([tuple(c.angles) for c in couplers], dtype=float).reshape(-1, 3)
    # each coupler's level: the lowest mode touched so far, 1 meaning dense;
    # at level j >= 2 it acts on the pair i-j+2 of n-j+2 modes, and on the
    # dense product through level 2's tables
    levels = list(itertools.accumulate((c.i for c in couplers), min))
    where = [(n - j + 2, c.i - j + 1) for c, j in zip(couplers, (max(j, 2) for j in levels))]
    spaces = {m: _pair_tables(m, p) for m in sorted({m for m, _ in where})}
    tables = [spaces[m][i] for m, i in where]
    present = sorted({s for t in tables for s, _ in t})
    spins = {
        s: (_spin_eigensystem if s <= _SPIN_CACHE else _spin_eigensystem.__wrapped__)(s)
        for s in present
    }
    chunk = max(1, dim * dim // max(1, sum((s + 1) ** 2 for s in spins)))
    if levels and levels[0] > 1:
        acc, j = _descend(np.ones((p + 1, 1), dtype=np.complex128), n, p, n, levels[0])
    else:
        acc, j = np.eye(dim, dtype=np.complex128), 1
    for start in range(0, len(couplers), chunk):
        stacks = _wigner_stacks(spins, angles[start : start + chunk])
        for k in range(start, min(start + chunk, len(couplers))):
            if levels[k] < j:
                acc, j = _descend(acc, n, p, j, levels[k])
            for s, idx in tables[k]:
                rows = acc[idx].reshape(s + 1, -1)
                acc[idx] = (stacks[s][k - start] @ rows).reshape(idx.shape + (acc.shape[1],))
    acc = _descend(acc, n, p, j, 1)[0]
    acc *= np.exp(1j * p * plan.global_phase)
    if return_info:
        pairs = sorted({c.i for c in couplers})
        return acc, {"offdiag_types": len(pairs), "pairs": [(i, i + 1) for i in pairs]}
    return acc


@functools.lru_cache(maxsize=None)
def _glynn_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign vectors of Glynn's sum over k columns, d_1 = +1, built once per k.

    Returns read-only ``(signs, weights)``: column n of the (k, 2^(k-1))
    complex ``signs`` gives column j > 1 the sign -1 when bit j-2 of n is
    set, and ``weights[n]`` is prod_j d_j.  A (p, k) block times ``signs``
    is the table of its signed row sums; only the additions round.
    """
    n = np.arange(2 ** (k - 1))
    signs = np.ones((k, n.size), dtype=np.complex128)
    signs[1:] = 1.0 - 2.0 * ((n >> np.arange(k - 1)[:, None]) & 1)
    weights = signs.real.prod(axis=0)
    signs.flags.writeable = weights.flags.writeable = False
    return signs, weights


def permanent_ryser(a) -> complex:
    """Permanent of a square matrix by inclusion-exclusion over columns.

    Uses Glynn's form, per(A) = 2^(1-p) * sum_d (prod_k d_k) *
    prod_i sum_j d_j a_ij over sign vectors d with d_1 = +1.  It costs the
    same O(2^p * p) as Ryser's sum over column subsets, but its signed row
    sums cancel far less: per(ones(20)) comes out within 2e-13 of 20!,
    where Ryser's sum misses by 2e-7.  The sign vectors of the first
    _BLOCK columns and their products are built once per size and cached
    (:func:`_glynn_table`), so a call takes the (p, 2^(k-1)) row sums of
    its first k = min(p, _BLOCK) columns in one matmul, a product over rows
    and one weighted dot; each sign pattern of the remaining columns shifts
    those sums once.
    Sizes above 20 are refused.
    """
    m = as_complex_matrix(a)
    p = m.shape[0]
    if p > _PERMANENT_SIZE_CAP:
        raise ResourceError(f"permanent size {p} exceeds cap {_PERMANENT_SIZE_CAP}")
    low = min(p, _BLOCK)
    signs, weights = _glynn_table(low)
    sums = m[:, :low] @ signs
    if p == low:
        return complex(weights @ np.multiply.reduce(sums)) / 2 ** (p - 1)
    total = 0j
    for d in itertools.product((1.0, -1.0), repeat=p - low):
        total += math.prod(d) * (weights @ np.multiply.reduce(sums + (m[:, low:] @ d)[:, None]))
    return complex(total) / 2 ** (p - 1)


@functools.lru_cache(maxsize=_PHOTON_TABLE_CACHE)
def _photon_tables(n: int, p: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Rank maps of the photon-number recursion, four per level q = 1..p.

    For the states m of ``FockBasis(n, q)``, ``lower[j]`` holds the row of
    m - e_j in ``FockBasis(n, q - 1)`` (0 where m_j = 0) and ``root[j]``
    holds sqrt(m_j); both are (n, dim_q).  For the states k of
    ``FockBasis(n, q - 1)``, ``upper[i]`` holds the row of k + e_i in
    ``FockBasis(n, q)`` and ``weight[i]`` holds sqrt(k_i + 1); both are
    (n, dim_{q-1}).  All are read-only.  The rows come from the
    combinatorial number system: in descending lexicographic
    order a state's row is sum_k C(t_k + n - k - 1, n - k), t_k being the
    photons after mode k, so taking a photon from mode j lowers the row by
    C(t_k + n - k - 2, n - k - 1), the number of (t_k - 1)-photon states
    on the n - k modes after k, for each k < j.  Callers check the
    dimension cap first.
    """
    drop = np.array(
        [[basis_dimension(n - k, t - 1) if t else 0 for t in range(p + 1)] for k in range(1, n)],
        np.int64,
    ).reshape(n - 1, p + 1)
    levels, size = [], 1
    for q in range(1, p + 1):
        occ = _occupations(n, q)
        after = np.cumsum(occ[:, :0:-1], axis=1)[:, ::-1]  # photons after mode k
        steps = np.cumsum(drop[np.arange(n - 1), after], axis=1)
        lower = np.arange(len(occ))[:, None] - np.pad(steps, ((0, 0), (1, 0)))
        lower = np.where(occ > 0, lower, 0).T.copy()
        root = np.sqrt(occ.T)
        modes, rows = np.nonzero(occ.T)
        upper = np.empty((n, size), np.int64)
        upper[modes, lower[modes, rows]] = rows
        weight = np.take_along_axis(root, upper, axis=1)
        for table in (lower, root, upper, weight):
            table.flags.writeable = False
        levels.append((lower, root, upper, weight))
        size = len(occ)
    return tuple(levels)


def _lift_by_photons(m: np.ndarray, p: int) -> np.ndarray:
    """p-photon lift of any n x n matrix, one photon at a time.

    D_q[m', m] = (1/q) sum_{i,j} sqrt(m'_i m_j) U_ij D_{q-1}[m' - e_i, m - e_j]
    from D_0 = [[1]].  Each level gathers T_j = D_{q-1}[:, lower_j] *
    sqrt(m_j), mixes them in one (n x n) matmul V = (U/q) T and adds each
    V_i, its rows k weighted by sqrt(k_i + 1), into the rows k + e_i.  Only
    rows with m'_i > 0 receive V_i, so the adds touch n * dim_{q-1} rows,
    not n * dim_q.  Output columns go in chunks so that T and V hold at
    most dim^2 entries each.  Checks the dimension cap before building any
    table; no photon-number limit.
    """
    n = m.shape[0]
    dim = _capped_dimension(n, p)
    prev = np.ones((1, 1), dtype=np.complex128)
    for q, (lower, root, upper, weight) in enumerate(_photon_tables(n, p), start=1):
        size, rows = prev.shape[0], lower.shape[1]
        mix = m / q
        cur = np.zeros((rows, rows), dtype=np.complex128)
        step = max(1, dim * dim // (n * size))
        for start in range(0, rows, step):
            cols = slice(start, min(start + step, rows))
            t = np.empty((n, size, cols.stop - start), dtype=np.complex128)
            for j in range(n):
                np.multiply(prev[:, lower[j, cols]], root[j, cols], out=t[j])
            v = (mix @ t.reshape(n, -1)).reshape(t.shape)
            del t
            v *= weight[:, :, None]
            out = cur[:, cols]
            for i in range(n):
                out[upper[i]] += v[i]  # k -> k + e_i is one-to-one
        prev = cur
    return prev


def lift_via_permanents(u, p: int, tol: float = 1e-10) -> np.ndarray:
    """Lift a unitary to the p-photon basis, the permanent lift of U.

    Entry (m', m) equals per(U[m', m]) / sqrt(prod m'_i! * prod m_j!) where
    U[m', m] repeats row i of U m'_i times and column j m_j times.  The
    lift is built one photon at a time by the Laplace expansion of these
    permanents (:func:`_lift_by_photons`), never one entry at a time, so
    no permanent is evaluated: sum_q n^2 * dim_{q-1} * dim_q multiply-adds,
    with work arrays of at most dim^2 entries each besides the two
    levels held.  On one x86-64 core with one BLAS thread, n=4, p=4
    (dim 35) takes about 0.4 ms, n=9, p=5 (dim 1287) about 0.19 s and
    n=8, p=6 (dim 1716) about 0.4 s.  The basis ordering matches
    :class:`FockBasis`, so this output is directly comparable with
    :func:`lift_plan`.  The dimension cap is checked before any table is
    built, and p above 20 is refused.
    """
    m = as_complex_matrix(u)
    if not is_unitary(m, tol):
        raise ValidationError("lift_via_permanents requires a unitary matrix")
    check_int(p, "p", 0)
    if p > _PERMANENT_SIZE_CAP:
        raise ResourceError(f"photon number {p} exceeds permanent cap {_PERMANENT_SIZE_CAP}")
    return _lift_by_photons(m, p)
