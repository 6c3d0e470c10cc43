"""Symmetric p-photon representations of n-mode unitaries, two ways.

The generator route lifts each mesh coupler by exponentiating bosonic
ladder generators in the C(n+p-1, p)-dimensional Fock basis and multiplies
the lifts in plan order.  The permanent route evaluates every matrix
element of the lifted unitary directly as a scaled permanent of a repeated
row/column submatrix.  The two routes are algebraically identical and are
kept independent so each can check the other.

A configurable dimension cap (``TRIMESH_DIM_CAP``, default 5000) guards
against accidental huge allocations.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ResourceError, ValidationError, check_int
from .linalg import as_complex_matrix, is_unitary
from .mesh import Coupler, MeshPlan

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
_INT64_MAX = 2**63 - 1


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


def _occupations(n: int, p: int):
    if n == 1:
        yield (p,)
        return
    for first in range(p, -1, -1):
        for rest in _occupations(n - 1, p - first):
            yield (first,) + rest


class FockBasis:
    """Ordered p-photon occupation basis on n modes.

    States are tuples (m_1, ..., m_n) with sum p, listed in lexicographically
    descending order; ``index`` maps a state back to its row.  Both lifting
    routes must share one basis object so their matrices are entrywise
    comparable.
    """

    def __init__(self, n: int, p: int):
        self.n = check_int(n, "n", 1)
        self.p = check_int(p, "p", 0)
        basis_dimension(n, p)
        self.states: tuple[tuple[int, ...], ...] = tuple(_occupations(n, p))
        self.index: dict[tuple[int, ...], int] = {s: r for r, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"FockBasis(n={self.n}, p={self.p}, dim={len(self.states)})"


def _check_mode_index(basis: FockBasis, value: int, name: str) -> int:
    check_int(value, name, 1)
    if value > basis.n:
        raise ValidationError(f"{name} must be in 1..{basis.n}, got {value}")
    return value


def lifted_generator(basis: FockBasis, i: int, j: int) -> "scipy.sparse.csr_matrix":
    """Sparse ladder generator C_ij in the given basis.

    Off-diagonal action: C_ij maps |m> to sqrt((m_i + 1) * m_j) times the
    state with one photon moved from mode j to mode i.  The diagonal
    generator C_ii counts the photons in mode i.  The lift of C_ji is the
    conjugate transpose of the lift of C_ij.
    """
    from scipy.sparse import csr_matrix

    _check_mode_index(basis, i, "i")
    _check_mode_index(basis, j, "j")
    dim = len(basis)
    rows, cols, vals = [], [], []
    if i == j:
        for r, state in enumerate(basis.states):
            if state[i - 1]:
                rows.append(r)
                cols.append(r)
                vals.append(float(state[i - 1]))
    else:
        for c, state in enumerate(basis.states):
            mj = state[j - 1]
            if mj == 0:
                continue
            target = list(state)
            target[i - 1] += 1
            target[j - 1] -= 1
            rows.append(basis.index[tuple(target)])
            cols.append(c)
            vals.append(math.sqrt((state[i - 1] + 1) * mj))
    return csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.float64)


def _check_cap(dim: int, what: str) -> None:
    cap = dimension_cap()
    if dim > cap:
        raise ResourceError(f"{what} dimension {dim} exceeds cap {cap}")


def _mixing_eigensystem(basis: FockBasis, i: int, j: int):
    """Eigendecomposition of the Hermitian i*(C_ij - C_ji) for one pair."""
    g = (lifted_generator(basis, i, j) - lifted_generator(basis, j, i)).toarray()
    return np.linalg.eigh(1j * g.astype(np.complex128))


def _phase_vector(basis: FockBasis, i: int, j: int) -> np.ndarray:
    return np.array([s[i - 1] - s[j - 1] for s in basis.states], dtype=np.float64)


def _lift_from_eigensystem(basis, c: Coupler, w, v) -> np.ndarray:
    mixing = (v * np.exp(0.5j * c.angles.beta * w)) @ v.conj().T
    d = _phase_vector(basis, c.i, c.j)
    za = np.exp(0.5j * c.angles.alpha * d)
    zg = np.exp(0.5j * c.angles.gamma * d)
    return za[:, None] * mixing * zg[None, :]


def lift_coupler(basis: FockBasis, c: Coupler) -> np.ndarray:
    """Lift one adjacent coupler to the p-photon basis.

    The z rotations lift to diagonal phases exp(i*(theta/2)*(m_i - m_j))
    and the middle rotation to exp(-(beta/2)*(C_ij - C_ji)), evaluated by
    eigendecomposition of the Hermitian mixing generator.
    """
    if not c.adjacent:
        raise ValidationError(f"lift_coupler requires an adjacent pair, got ({c.i}, {c.j})")
    if c.j > basis.n:
        raise ValidationError(f"coupler pair ({c.i}, {c.j}) does not fit {basis.n} modes")
    _check_cap(len(basis), "lift")
    w, v = _mixing_eigensystem(basis, c.i, c.j)
    return _lift_from_eigensystem(basis, c, w, v)


def lift_plan(basis: FockBasis, plan: MeshPlan, return_info: bool = False):
    """Lift a whole adjacent-coupler plan: ordered product of coupler lifts.

    The mixing-generator eigendecomposition is cached per mode pair, so a
    triangle plan touches only its n-1 adjacent pair types no matter how
    many couplers it contains.  The global phase enters once per photon.
    With ``return_info=True`` also returns ``{"offdiag_types", "pairs"}``
    describing the generator economy.
    """
    if basis.n != plan.n:
        raise ValidationError(f"basis is on {basis.n} modes but plan is on {plan.n}")
    for c in plan.couplers:
        if not c.adjacent:
            raise ValidationError(
                f"lift_plan requires adjacent couplers only, found ({c.i}, {c.j})"
            )
    dim = len(basis)
    _check_cap(dim, "lift")
    cache: dict[tuple[int, int], tuple] = {}
    acc = np.eye(dim, dtype=np.complex128)
    for c in plan.couplers:
        pair = (c.i, c.j)
        if pair not in cache:
            cache[pair] = _mixing_eigensystem(basis, c.i, c.j)
        w, v = cache[pair]
        acc = acc @ _lift_from_eigensystem(basis, c, w, v)
    acc *= np.exp(1j * basis.p * plan.global_phase)
    if return_info:
        info = {"offdiag_types": len(cache), "pairs": sorted(cache)}
        return acc, info
    return acc


def permanent_ryser(a) -> complex:
    """Permanent of a square matrix by Ryser's inclusion-exclusion.

    Column subsets are visited in Gray-code order so each step updates the
    running row sums by a single column, giving O(2^p * p) work.  Sizes
    above 20 are refused; the cost doubles per row and 2^20 is already a
    second-scale computation.
    """
    m = as_complex_matrix(a)
    p = m.shape[0]
    if p > _PERMANENT_SIZE_CAP:
        raise ResourceError(f"permanent size {p} exceeds cap {_PERMANENT_SIZE_CAP}")
    cols = m.T.copy()
    row_sum = np.zeros(p, dtype=np.complex128)
    total = 0.0 + 0.0j
    gray = 0
    size = 0
    for t in range(1, 1 << p):
        g = t ^ (t >> 1)
        bit = g ^ gray
        j = bit.bit_length() - 1
        if g & bit:
            row_sum += cols[j]
            size += 1
        else:
            row_sum -= cols[j]
            size -= 1
        gray = g
        term = complex(np.prod(row_sum))
        total += term if (p - size) % 2 == 0 else -term
    return total


def _inv_sqrt_factorial_product(state: tuple[int, ...]) -> float:
    """1 / sqrt(prod_i m_i!), exact integers up to 20 photons, else lgamma."""
    if sum(state) <= 20:
        prod = 1
        for m in state:
            prod *= math.factorial(m)
        return 1.0 / math.sqrt(prod)
    return math.exp(-0.5 * sum(math.lgamma(m + 1) for m in state))


def _mode_expansion(state: tuple[int, ...]) -> list[int]:
    out = []
    for mode, count in enumerate(state):
        out.extend([mode] * count)
    return out


def lift_via_permanents(
    u, p: int, tol: float = 1e-10, workers: int | None = None
) -> np.ndarray:
    """Lift a unitary to the p-photon basis entry by entry via permanents.

    Entry (m', m) equals per(U[m', m]) / sqrt(prod m'_i! * prod m_j!) where
    U[m', m] repeats row i of U m'_i times and column j m_j times.  The
    basis ordering matches :class:`FockBasis`, so this output is directly
    comparable with :func:`lift_plan`.  Rows may be evaluated in parallel;
    the result never depends on ``workers``.
    """
    m = as_complex_matrix(u)
    if not is_unitary(m, tol):
        raise ValidationError("lift_via_permanents requires a unitary matrix")
    check_int(p, "p", 0)
    if p > _PERMANENT_SIZE_CAP:
        raise ResourceError(f"photon number {p} exceeds permanent cap {_PERMANENT_SIZE_CAP}")
    basis = FockBasis(m.shape[0], p)
    dim = len(basis)
    _check_cap(dim, "lift")
    if p == 0:
        return np.ones((1, 1), dtype=np.complex128)

    expansions = [_mode_expansion(s) for s in basis.states]
    inv_norms = [_inv_sqrt_factorial_product(s) for s in basis.states]
    out = np.empty((dim, dim), dtype=np.complex128)

    def fill_row(r: int) -> None:
        rows = m[expansions[r], :]
        for c in range(dim):
            sub = rows[:, expansions[c]]
            out[r, c] = permanent_ryser(sub) * inv_norms[r] * inv_norms[c]

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_row, range(dim)))
    else:
        for r in range(dim):
            fill_row(r)
    return out
