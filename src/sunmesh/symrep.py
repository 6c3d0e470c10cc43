"""Symmetric p-photon representations of n-mode unitaries, two ways.

The generator route (:func:`lift_plan`) lifts each mesh coupler to the
C(n+p-1, p)-dimensional Fock space as one spin-s/2 Wigner block per photon
count s of its two modes, and follows the paper's recursion SU(n) = SU(2)
coupler times SU(n-1) block, so a coupler on modes j..n works in the
smaller Fock space it acts on.  The permanent route
(:func:`lift_via_permanents`) needs only the n x n matrix U and builds the
lift one photon at a time by the Laplace expansion of the permanents of
its entries.  The two routes are algebraically identical and are kept
independent so each can check the other.  Both find a state's row by one
rank, the combinatorial number system of :func:`_rank`: every state table
either route builds is the rank of the states it names.

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
from .mesh import MeshPlan, _require_adjacent

__all__ = [
    "FockBasis",
    "basis_dimension",
    "lifted_generator",
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
_SPIN_CACHE = 32  # Wigner eigensystems kept for s <= 32, about 0.4 MB in all


def dimension_cap() -> int:
    """Active lifted-dimension cap, overridable via TRIMESH_DIM_CAP."""
    raw = os.environ.get("TRIMESH_DIM_CAP", str(_DEFAULT_DIM_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"TRIMESH_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"TRIMESH_DIM_CAP must be positive, got {cap}")
    return cap


def basis_dimension(n: int, p: int) -> int:
    """Number of p-photon states on n modes: C(n+p-1, p), exact.

    Counted one factor at a time, so it raises :class:`OverflowError` as
    soon as the count passes a signed 64-bit integer, without building a
    huge binomial or silently wrapping.
    """
    check_int(n, "n", 1)
    check_int(p, "p", 0)
    k, dim = min(p, n - 1), 1
    for f in range(1, k + 1):
        dim = dim * (n + p - 1 - k + f) // f  # C(n+p-1-k+f, f), growing with f
        if dim > _INT64_MAX:
            raise OverflowError(f"basis dimension C({n + p - 1},{p}) exceeds 64-bit integer range")
    return dim


def _capped_dimension(n: int, p: int) -> int:
    """:func:`basis_dimension`, or :class:`ResourceError` above the cap."""
    dim, cap = basis_dimension(n, p), dimension_cap()
    if dim > cap:
        raise ResourceError(f"Fock basis dimension {dim} exceeds cap {cap}")
    return dim


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


def _rank(occ: np.ndarray) -> np.ndarray:
    """Row of each state of ``occ`` (shape (..., n)) in its :class:`FockBasis`.

    In lexicographically descending order the row of m is the combinatorial
    number system sum_k C(t_k + n-k-1, n-k) over k = 1..n-1, t_k being the
    photons after mode k: the states before m are those that put more
    photons on mode k and the same on modes 1..k-1, for some k.  Term k
    counts the states of fewer than t_k photons on the modes after k, at
    most the dimension of m's basis, so the binomial table built here is
    exact in int64 (building it raises rather than wrap).
    """
    n = occ.shape[-1]
    after = np.cumsum(occ[..., :0:-1], axis=-1)[..., ::-1]
    top = int(after.max(initial=0))
    terms = [[math.comb(t + r - 1, r) for t in range(top + 1)] for r in range(n - 1, 0, -1)]
    table = np.array(terms, np.int64).reshape(n - 1, top + 1)
    return table[np.arange(n - 1), after].sum(axis=-1)


class FockBasis:
    """Ordered p-photon occupation basis on n modes.

    The read-only (dim, n) ``occupations`` array lists the states with sum
    p in lexicographically descending order, so a state's row is its
    :func:`_rank`.  It is enumerated on first read and kept with the
    basis; no lift reads it.  A dimension above :func:`dimension_cap`
    raises :class:`ResourceError` before any state is enumerated.
    """

    def __init__(self, n: int, p: int):
        self.n = check_int(n, "n", 1)
        self.p = check_int(p, "p", 0)
        self.dim = _capped_dimension(n, p)

    @functools.cached_property
    def occupations(self) -> np.ndarray:
        return _occupations(self.n, self.p)

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"FockBasis(n={self.n}, p={self.p}, dim={self.dim})"


def lifted_generator(basis: FockBasis, i: int, j: int) -> np.ndarray:
    """Ladder generator C_ij in the given basis, as a dense float64 array.

    Off-diagonal action: C_ij maps |m> to sqrt((m_i + 1) * m_j) times the
    state with one photon moved from mode j to mode i.  The diagonal
    generator C_ii counts the photons in mode i.  The lift of C_ji is the
    conjugate transpose of the lift of C_ij.  The array takes 8 * dim^2
    bytes, 200 MB at the default cap.
    """
    for name, k in (("i", i), ("j", j)):
        if check_int(k, name, 1) > basis.n:
            raise ValidationError(f"{name} must be in 1..{basis.n}, got {k}")
    occ = basis.occupations
    cols = np.flatnonzero(occ[:, j - 1])
    target = occ[cols]
    target[:, j - 1] -= 1
    target[:, i - 1] += 1
    out = np.zeros((basis.dim, basis.dim))
    out[_rank(target), cols] = np.sqrt(target[:, i - 1] * occ[cols, j - 1])
    return out


@functools.lru_cache(maxsize=_PAIR_TABLE_CACHE)
def _pair_tables(n: int, p: int) -> tuple[tuple[tuple[int, np.ndarray], ...], ...]:
    """State tables of the SU(2) blocks of every adjacent pair on n modes.

    Entry i-1 belongs to the pair (i, i+1): for each s >= 1 present, its
    (s+1, groups) table lists the rows of ``FockBasis(n, p)`` with
    m_i + m_{i+1} = s, one column per setting of the other occupations,
    rows ordered m_i = s, ..., 0 as in ``FockBasis(2, s)``.  The s = 0
    block is 1.  A group is the :func:`_rank` of its head (m_i = s,
    m_{i+1} = 0) with a = 0..s photons moved to mode i+1.  Shared
    read-only, at most (n-1) * dim indices; callers hold a FockBasis of p
    photons on at least n modes, so the dimension cap has been checked.
    """
    occ = _occupations(n, p)
    pair, head = np.nonzero(((occ[:, :-1] > 0) & (occ[:, 1:] == 0)).T)
    photons, tables = occ[head, pair], [[] for _ in range(n - 1)]
    for s in sorted(set(photons.tolist())):
        # (groups, s+1, n): the heads of s photons, a = 0..s of them moved
        pick = photons == s
        group, q = np.repeat(occ[head[pick], None], s + 1, axis=1), pair[pick, None]
        at, moved = np.arange(len(q))[:, None], np.arange(s + 1)
        group[at, moved, q], group[at, moved, q + 1] = s - moved, moved
        rows = _rank(group)
        rows.flags.writeable = False
        first = np.flatnonzero(np.diff(q[:, 0], prepend=-1))  # each pair's first group
        for i, block in zip(q[first, 0].tolist(), np.split(rows, first[1:])):
            tables[i].append((s, block.T))
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


def _widen(acc: np.ndarray, edge: list, photons) -> np.ndarray:
    """Re-embed lifts on the last k modes one mode further down the mesh.

    At level j = n - k + 1 the running product is 1 on modes 1..j-1 times
    the lifts L_s, s = 0..p, of one unitary on the last k modes.  ``acc``
    holds them on the (k+1)-mode Fock space whose first mode lumps modes
    1..j-1: L_s sits in the rows where that mode holds p - s photons, from
    ``edge[s]`` = C(s+k-1, k), the states of fewer than s photons on the
    last k modes, to edge[s+1], and in its first dim(k, s) columns.  For
    each r in ``photons`` the result stacks the block-diagonal sum of L_s
    over s <= r, each at that same offset: ``range(p + 1)`` gives level
    j - 1, and ``(p,)`` at j = 2 gives level 1, the dense product.  Each
    block is one slice copy, so a walk from a column of ones builds exact
    0s and 1s.
    """
    out = np.zeros((sum(edge[r + 1] for r in photons), edge[-1]), dtype=np.complex128)
    top = 0
    for r in photons:
        for lo, hi in itertools.pairwise(edge[: r + 2]):
            out[top + lo : top + hi, lo:hi] = acc[lo:hi, : hi - lo]
        top += edge[r + 1]
    return out


def lift_plan(basis: FockBasis, plan: MeshPlan) -> np.ndarray:
    """Lift a whole adjacent-coupler plan: ordered product of coupler lifts.

    A coupler on (i, i+1) acts on each group of s+1 states that share
    s = m_i + m_{i+1} and the other occupations through one (s+1)x(s+1)
    Wigner block that depends only on s and the angles: its z rotations
    lift to diagonal phases exp(i*(theta/2)*(m_i - m_{i+1})) and its middle
    rotation to exp(-(beta/2)*(C_{i,i+1} - C_{i+1,i})).  Blocks are built
    for a chunk of couplers at a time (:func:`_wigner_stacks`) so that a
    chunk's blocks hold at most dim^2 entries.  Couplers are applied last
    to first, each multiplying the running product from the left, one
    matmul per s for all its groups at once.

    The running product follows the paper's recursion SU(n) = SU(2)
    coupler times SU(n-1) block.  While every coupler applied so far acts
    on modes j..n (level j), the product is 1 on modes 1..j-1 times the
    lifts of one SU(n-j+1) element, held as a D_j x W_j array on the
    (n-j+2)-mode Fock space whose first mode lumps modes 1..j-1,
    D_j = dim(n-j+2, p) and W_j = dim(n-j+1, p).  The walk starts at level
    n from a column of ones and steps down one level (:func:`_widen`) as
    couplers reach lower modes, then to level 1, the dense dim x dim
    product.  A coupler at level j costs O(D_j * W_j * (p+1)) and a dense
    one O(dim^2 * (p+1)).  The global phase enters once per photon, so at
    p = 0 the lift is [[1]] and no level is walked.
    """
    if basis.n != plan.n:
        raise ValidationError(f"basis is on {basis.n} modes but plan is on {plan.n}")
    _require_adjacent(plan, "lift_plan")
    if basis.p == 0:
        return np.ones((1, 1), dtype=np.complex128)
    n, p, dim = basis.n, basis.p, len(basis)
    couplers = plan.couplers[::-1]
    angles = np.array([tuple(c.angles) for c in couplers], dtype=float).reshape(-1, 3)
    # each coupler's level (the lowest mode touched so far, 1 meaning dense),
    # then 1 to end the walk; at level j >= 2 a coupler acts on the pair
    # i-j+2 of n-j+2 modes, and on the dense product through level 2's tables
    levels = [*itertools.accumulate((c.i for c in couplers), min), 1]
    where = [(n - j + 2, c.i - j + 1) for c, j in zip(couplers, (max(j, 2) for j in levels))]
    spaces = {m: _pair_tables(m, p) for m in sorted({m for m, _ in where})}
    tables = [spaces[m][i] for m, i in where]
    present = sorted({s for t in tables for s, _ in t})
    spins = {
        s: (_spin_eigensystem if s <= _SPIN_CACHE else _spin_eigensystem.__wrapped__)(s)
        for s in present
    }
    chunk = max(1, dim * dim // max(1, sum((s + 1) ** 2 for s in spins)))
    acc, j = np.ones((basis_dimension(min(n, 2), p), 1), dtype=np.complex128), n
    for k, low in enumerate(levels):
        while j > low:
            j -= 1
            edge = [math.comb(s + n - j - 1, n - j) for s in range(p + 2)]
            acc = _widen(acc, edge, (p,) if j == 1 else range(p + 1))
        if k == len(couplers):
            break
        if k % chunk == 0:
            stacks = _wigner_stacks(spins, angles[k : k + chunk])
        for s, idx in tables[k]:
            rows = acc[idx].reshape(s + 1, -1)
            acc[idx] = (stacks[s][k % chunk] @ rows).reshape(idx.shape + (acc.shape[1],))
    acc *= np.exp(1j * p * plan.global_phase)
    return acc


def permanent_ryser(a) -> complex:
    """Permanent of a square matrix by inclusion-exclusion over columns.

    Uses Glynn's form, per(A) = 2^(1-p) * sum_d (prod_k d_k) *
    prod_i sum_j d_j a_ij over sign vectors d with d_1 = +1.  It costs the
    same O(2^p * p) as Ryser's sum over column subsets, but its signed row
    sums cancel far less: per(ones(20)) comes out within 2e-13 of 20!,
    where Ryser's sum misses by 2e-7.  Column n of the (k, 2^(k-1)) sign
    table of the first k = min(p, _BLOCK) columns gives column j > 1 the
    sign -1 when bit j-2 of n is set, so a call takes their row sums in one
    matmul (only the additions round), a product over rows and one dot with
    the sign products; each sign pattern of the remaining columns shifts
    those sums once.
    Sizes above 20 are refused.
    """
    m = as_complex_matrix(a)
    p = m.shape[0]
    if p > _PERMANENT_SIZE_CAP:
        raise ResourceError(f"permanent size {p} exceeds cap {_PERMANENT_SIZE_CAP}")
    low = min(p, _BLOCK)
    pattern = np.arange(2 ** (low - 1))
    signs = np.ones((low, pattern.size), dtype=np.complex128)
    signs[1:] = 1.0 - 2.0 * ((pattern >> np.arange(low - 1)[:, None]) & 1)
    weights = signs.real.prod(axis=0)
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

    For the states m of ``FockBasis(n, q)``, ``lower[j]`` holds the
    :func:`_rank` of m - e_j (0 where m_j = 0) and ``root[j]`` holds
    sqrt(m_j); both are (n, dim_q).  For the states k of level q - 1,
    ``upper[i]`` holds the :func:`_rank` of k + e_i and ``weight[i]``
    holds sqrt(k_i + 1); both are (n, dim_{q-1}).  All are read-only.
    Each level's states are enumerated once, then carried to the next.
    Callers check the dimension cap first.
    """
    levels, below, unit = [], np.zeros((1, n), np.int64), np.eye(n, dtype=np.int64)
    for q in range(1, p + 1):
        occ = _occupations(n, q)
        state, j = np.nonzero(occ)
        lower = np.zeros((n, len(occ)), np.int64)
        lower[j, state] = _rank(occ[state] - unit[j])
        upper = _rank(below + unit[:, None])
        root = np.sqrt(occ.T)
        weight = np.take_along_axis(root, upper, axis=1)
        for table in (lower, root, upper, weight):
            table.flags.writeable = False
        levels.append((lower, root, upper, weight))
        below = occ
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
    levels held (timings in the README).  The basis ordering matches
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
