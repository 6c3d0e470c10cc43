"""Factorization of unitaries into coupler meshes.

Three schemes are provided:

* :func:`triangle_decompose` builds the descending-chain triangle: for each
  column k the chain ``C_k = R_{n-1,n} ... R_{k,k+1}`` of adjacent rotations
  that zeroes the column bottom-up.  Couplers appear n(n-1)/2 times with
  multiplicity i on pair (i, i+1) and the mesh packs into 2n-3 layers.
* :func:`clements_decompose` builds the rectangular mesh of depth n via the
  alternating left/right nulling order, then folds the residual output
  phases into the coupler angles so no separate phase layer remains.
* :func:`reck_decompose` is the comparison baseline that eliminates each
  column against a fixed pivot row and therefore uses non-adjacent pairs.

:func:`canonicalize` rewrites a triangle plan into its minimal-parameter
form (chain heads full3, everything else constrained2, n^2 - 1 angles), and
:func:`recursive_view` exposes the chain nesting that makes the triangle a
recursive coset construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError, check_choice, check_int
from .linalg import _unitary, project_to_su
from .mesh import (
    ARITY_CONSTRAINED,
    ARITY_FULL,
    Coupler,
    MeshPlan,
    _triangle_pairs,
    reconstruct,
)
from .su2 import EulerAngles, push_phase_through_coupler, zeroing_angles

__all__ = [
    "triangle_decompose",
    "canonicalize",
    "RecursiveView",
    "recursive_view",
    "clements_decompose",
    "reck_decompose",
    "generator_ledger",
    "loss_analysis",
]

def _rotate(u: np.ndarray, v: np.ndarray, x: complex, y: complex) -> float:
    """Set ``(u, v)`` to ``K^H (u, v)`` in place and return ``rho = |(x, y)|``.

    ``K^H = [[x*, y*], [-y, x]] / rho`` inverts the coupler of
    ``zeroing_angles(x, y)``, built from the entries it zeroes; rho = 0 is a no-op.
    """
    rho = math.hypot(abs(x), abs(y))
    if rho:
        x, y = complex(x) / rho, complex(y) / rho
        top = x.conjugate() * u + y.conjugate() * v
        v *= x
        v -= y * u
        u[...] = top
    return rho


def triangle_decompose(m, tol: float = 1e-10) -> MeshPlan:
    """Factor a unitary into the descending-chain triangle mesh.

    The input is split as ``m = exp(i*phi) * w`` with ``det(w) = 1``, then w
    is reduced column by column: within column k, adjacent row rotations are
    applied from the bottom up, each zeroing one subdiagonal entry while
    leaving a real nonnegative pivot behind.  Because every zeroing step
    sees that real pivot as its second entry, all couplers after the first
    of each chain come out with ``gamma == alpha`` exactly, which is what
    :func:`canonicalize` later relies on.
    """
    return _eliminate(m, tol, adjacent=True)


def _eliminate(m, tol: float, adjacent: bool) -> MeshPlan:
    """Zero the SU(n) part of ``m`` column by column, bottom-up: row q of
    column k is rotated against row q-1 if ``adjacent``, else against row k.
    """
    phi, w = project_to_su(m, tol)
    n = w.shape[0]
    couplers = []
    for k in range(n - 1):
        for q in range(n - 1, k, -1):
            p = q - 1 if adjacent else k
            x, y = w[p, k], w[q, k]
            # The rotated column is exact: the pair norm above a zero.
            w[p, k], w[q, k] = _rotate(w[p, k + 1 :], w[q, k + 1 :], x, y), 0.0
            couplers.append(Coupler(p + 1, q + 1, zeroing_angles(x, y), ARITY_FULL))
    return MeshPlan(n, phi, tuple(couplers))


def _require_chain_order(plan: MeshPlan, op: str) -> None:
    if [(c.i, c.j) for c in plan.couplers] != _triangle_pairs(plan.n):
        raise ValidationError(f"{op} requires a plan in canonical chain order")


def canonicalize(
    plan: MeshPlan, m, tol: float = 1e-10, return_info: bool = False
) -> MeshPlan | tuple[MeshPlan, dict]:
    """Rewrite a triangle plan with the minimal n^2 - 1 parameter count.

    Chain-head couplers (pair (n-1, n)) keep all three angles; every other
    coupler is reduced to ``constrained2`` with ``gamma == alpha``.  The
    z-phase each reduction strips off is carried rightward through the rest
    of the mesh as a running diagonal, using the exact commutation rule of
    :func:`push_phase_through_coupler`.

    If the carried plan misses ``m`` by more than ``10 * tol`` (the input
    plan does not reproduce ``m``), the same pass is run on
    ``triangle_decompose(m, tol)`` instead, so the result is rebuilt from
    ``m`` alone: the input plan's angles are then not used, and only its
    chain pair order is checked.  Both paths are exact and need no search.

    With ``return_info=True`` also returns ``{"method", "residual"}``, where
    ``method`` is ``"analytic"`` for the input plan and ``"refined"`` for
    the rebuilt one.  Raises :class:`ToleranceError` carrying the smaller
    residual only if neither path reaches ``10 * tol``, which happens when
    ``10 * tol`` is below the floating-point rounding of the rebuild.
    """
    target = _unitary(m, tol)
    n = plan.n
    if target.shape[0] != n:
        raise ValidationError("plan and matrix dimensions disagree")
    _require_chain_order(plan, "canonicalize")

    candidate = _carry_phases(plan)
    residual = float(np.linalg.norm(reconstruct(candidate) - target))
    method = "analytic"
    if residual > 10.0 * tol:
        rebuilt = _carry_phases(triangle_decompose(target, tol))
        rebuilt_residual = float(np.linalg.norm(reconstruct(rebuilt) - target))
        if rebuilt_residual > 10.0 * tol:
            best = min(residual, rebuilt_residual)
            raise ToleranceError(
                f"canonicalization missed at residual {best:.3e}", residual=best
            )
        candidate, residual, method = rebuilt, rebuilt_residual, "refined"
    info = {"method": method, "residual": residual}
    return (candidate, info) if return_info else candidate


def _carry_phases(plan: MeshPlan) -> MeshPlan:
    """Reduce non-head couplers to ``gamma == alpha``, carrying the phases."""
    n = plan.n
    theta = [0.0] * n
    out = []
    for c in plan.couplers:
        p, q = c.i - 1, c.j - 1
        ang, mu = push_phase_through_coupler(theta[p], theta[q], c.angles, side="left")
        theta[p] = theta[q] = mu
        if c.i == n - 1:
            out.append(Coupler(c.i, c.j, ang, ARITY_FULL))
        else:
            # Split K(a, b, g) = K(a, b, a) * Rz(g - a) and hand the z
            # residue to the running diagonal.
            half = 0.5 * (ang.gamma - ang.alpha)
            out.append(
                Coupler(c.i, c.j, EulerAngles(ang.alpha, ang.beta, ang.alpha), ARITY_CONSTRAINED)
            )
            theta[p] += half
            theta[q] -= half
    mean = sum(theta) / n
    return MeshPlan(n, plan.global_phase + mean, tuple(out))


@dataclass(frozen=True)
class RecursiveView:
    """One level of the coset recursion behind the triangle mesh.

    A non-terminal level is ``left``, the partial chain that rotates the
    leading basis vector into the first column, followed by ``middle``, the
    chain's closing coupler on the top pair of the level, followed by
    ``right``, the view of the remaining full subgroup factor one dimension
    down.  The deepest level is a single ``terminal`` coupler.
    """

    left: tuple[Coupler, ...]
    middle: Coupler | None
    right: "RecursiveView | None"
    terminal: Coupler | None = None

    def flatten(self) -> tuple[Coupler, ...]:
        if self.terminal is not None:
            return (self.terminal,)
        return self.left + (self.middle,) + self.right.flatten()


def recursive_view(plan: MeshPlan) -> RecursiveView:
    """Split a canonical plan into its nested chain structure."""
    if not plan.couplers:
        raise ValidationError("recursive_view needs a plan with couplers")
    _require_chain_order(plan, "recursive_view")

    def build(couplers: tuple[Coupler, ...], d: int) -> RecursiveView:
        if len(couplers) == 1:
            return RecursiveView((), None, None, terminal=couplers[0])
        # a size-d subproblem's chain uses d-1 couplers
        chain, rest = couplers[: d - 1], couplers[d - 1 :]
        return RecursiveView(chain[:-1], chain[-1], build(rest, d - 1))

    return build(plan.couplers, plan.n)


def clements_decompose(m, tol: float = 1e-10) -> MeshPlan:
    """Factor a unitary into the depth-n rectangular mesh.

    Subdiagonal entries are nulled along antidiagonals, alternating between
    column operations (right factors) and row operations (left factors).
    The elimination leaves a diagonal of unit phases in the middle of the
    plan; that diagonal is commuted out to the left and then swept back
    across the whole mesh, where exact phase transfers at each coupler make
    it uniform so it folds into the global phase.  The output therefore
    contains couplers only.
    """
    a = _unitary(m, tol)
    n = a.shape[0]
    w = a.copy()
    # [lower mode, angles] rows, 0-based; the couplers are built once at the end
    left: list[list] = []
    right: list[list] = []
    for i in range(1, n):
        for j in range(i):
            if i % 2:
                # W <- W K^H on columns (c, c+1) is the step on (c+1, c).
                r, c = n - 1 - j, i - 1 - j
                u, v, x, y = w[:, c + 1], w[:, c], w[r, c + 1], w[r, c]
                ang, factors, lo = zeroing_angles(np.conj(x), y), right, c
            else:
                r, c = n - i + j, j
                u, v, x, y = w[r - 1], w[r], w[r - 1, c], w[r, c]
                ang, factors, lo = zeroing_angles(x, y), left, r - 1
            _rotate(u, v, x, y)
            w[r, c] = 0.0
            factors.append([lo, ang])

    theta = [math.atan2(w[k, k].imag, w[k, k].real) for k in range(n)]
    phase = 0.0

    # Stage 1: commute the diagonal leftward through the left factors so the
    # full plan sits to its right.
    for row in reversed(left):
        p = row[0]
        row[1], mu = push_phase_through_coupler(theta[p], theta[p + 1], row[1], side="right")
        theta[p] = theta[p + 1] = mu

    rows = left + right[::-1]

    # Stage 2: sweep the diagonal rightward through every coupler, choosing
    # at each pair the outgoing phase split that pins the running prefix sum
    # to its uniform target.  Once every adjacent pair has been crossed the
    # diagonal is the constant mean and becomes part of the global phase.
    mean = sum(theta) / n
    for row in rows:
        p, q = row[0], row[0] + 1
        psi_p = (q * mean) - (sum(theta[:q]) - theta[p])
        psi_q = (theta[p] - psi_p) + theta[q]
        ang, mu_in = push_phase_through_coupler(theta[p], theta[q], row[1], side="left")
        row[1], mu_out = push_phase_through_coupler(-psi_p, -psi_q, ang, side="right")
        phase += mu_in + mu_out
        theta[p], theta[q] = psi_p, psi_q
    phase += sum(theta) / n

    couplers = tuple(Coupler(p + 1, p + 2, ang, ARITY_FULL) for p, ang in rows)
    # An n=2 rectangle has a single physical column; pad with the identity
    # coupler of the zero pair so the layer count matches the scheme's
    # nominal depth, which every larger n already reaches.
    if n == 2:
        couplers += (Coupler(1, 2, zeroing_angles(0.0, 0.0)),)
    return MeshPlan(n, phase, couplers)


def reck_decompose(m, tol: float = 1e-10) -> MeshPlan:
    """Pivot-row elimination baseline that uses non-adjacent couplers.

    Column k is cleared against pivot row k directly, so the plan contains
    one coupler for every unordered mode pair (i, j), most of them not
    nearest neighbours.  Useful only as a comparison point; the mesh
    operations that assume adjacency reject its output.
    """
    return _eliminate(m, tol, adjacent=False)


def generator_ledger(scheme: str, n: int) -> dict:
    """Count the distinct generator types a scheme needs at dimension n.

    Off-diagonal counts refer to distinct pair types with j > i; the
    transpose partner of each is not counted separately.  The triangle uses
    only the n-1 adjacent pairs, so it saves (n-1)(n-2)/2 types over the
    all-pairs baseline.
    """
    check_int(n, "n", 2)
    if check_choice(scheme, "scheme", ("triangle", "reck")) == "triangle":
        offdiag = n - 1
        savings = (n - 1) * (n - 2) // 2
    else:
        offdiag = n * (n - 1) // 2
        savings = 0
    return {"offdiag_pairs": offdiag, "diagonal": n, "savings_vs_reck": savings}


def loss_analysis(plan: MeshPlan, per_coupler_loss_db: float) -> list[dict]:
    """Best- and worst-path coupler counts and attenuation per input mode.

    Light entering a mode traverses the mesh right to left in product
    order; every coupler whose pair it sits on must be crossed and may
    route it to either port.  For each input mode the minimum and maximum
    number of couplers over all routes is reported together with the
    attenuation at the given loss per coupler; a negative loss or a
    non-finite total raises :class:`ValidationError`.
    """
    loss = float(per_coupler_loss_db)
    if loss < 0:
        raise ValidationError("per-coupler loss must be nonnegative")
    # best[k, mode] and worst[k, mode]: the fewest and most couplers crossed
    # so far by a route from input ``mode`` now on mode k, for all inputs at
    # once; worst does not start as -best, whose -0.0 would print at n = 1
    start = np.eye(plan.n, dtype=bool)
    best, worst = np.where(start, 0.0, math.inf), np.where(start, 0.0, -math.inf)
    for c in reversed(plan.couplers):
        p, q = c.i - 1, c.j - 1
        best[p] = best[q] = np.minimum(best[p], best[q]) + 1
        worst[p] = worst[q] = np.maximum(worst[p], worst[q]) + 1
    report = []
    for mode, (b, w) in enumerate(zip(best.min(axis=0).tolist(), worst.max(axis=0).tolist()), 1):
        if not math.isfinite(w * loss):
            raise ValidationError(f"per-coupler loss {loss} over {int(w)} couplers is not finite")
        report.append(
            {
                "mode": mode,
                "best_couplers": int(b),
                "worst_couplers": int(w),
                "best_loss_db": b * loss,
                "worst_loss_db": w * loss,
            }
        )
    return report
