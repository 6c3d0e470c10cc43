"""Coupler meshes: typed plans of embedded 2x2 rotations on n modes.

A :class:`MeshPlan` is a global phase plus an ordered list of couplers.  The
matrix it denotes is

    U = exp(i * global_phase) * B_1 @ B_2 @ ... @ B_m

where ``B_k`` is coupler k embedded at its mode pair and the head of the
list is the leftmost factor.  Couplers carry a 1-based mode pair ``(i, j)``
with ``i < j``, z-y-z Euler angles, and an arity tag: ``full3`` for an
unconstrained rotation, ``constrained2`` for one with ``gamma == alpha``.

Plans with non-adjacent pairs (``j > i + 1``) can be represented, embedded,
multiplied out, and measured for depth, but the mode-locality operations
(multiplicity, merging, rendering) reject them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_choice, check_int, read_field
from .su2 import EulerAngles, euler_from_su2, su2_from_euler

__all__ = [
    "ARITY_FULL",
    "ARITY_CONSTRAINED",
    "Coupler",
    "MeshPlan",
    "coupler_matrix",
    "embed_coupler",
    "reconstruct",
    "depth",
    "multiplicity",
    "merge_adjacent",
    "parameter_count",
    "render",
    "plan_to_json",
    "plan_from_json",
]

ARITY_FULL = "full3"
ARITY_CONSTRAINED = "constrained2"

_CONSTRAINED_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Coupler:
    """One embedded 2x2 rotation acting on the mode pair ``(i, j)``."""

    i: int
    j: int
    angles: EulerAngles
    arity: str = ARITY_FULL

    def __post_init__(self):
        check_int(self.i, "i")
        check_int(self.j, "j")
        if not 1 <= self.i < self.j:
            raise ValidationError(f"need 1 <= i < j, got ({self.i}, {self.j})")
        if not isinstance(self.angles, EulerAngles):
            raise ValidationError("angles must be an EulerAngles instance")
        if not all(map(math.isfinite, self.angles)):
            raise ValidationError(f"coupler angles must be finite, got {tuple(self.angles)}")
        if check_choice(self.arity, "arity", (ARITY_FULL, ARITY_CONSTRAINED)) == ARITY_CONSTRAINED:
            if abs(self.angles.gamma - self.angles.alpha) > _CONSTRAINED_TIE_TOL:
                raise ValidationError(
                    "constrained2 coupler requires gamma == alpha, got "
                    f"alpha={self.angles.alpha!r} gamma={self.angles.gamma!r}"
                )

    @property
    def adjacent(self) -> bool:
        return self.j == self.i + 1


@dataclass(frozen=True)
class MeshPlan:
    """A global phase and an ordered coupler list on ``n`` modes."""

    n: int
    global_phase: float
    couplers: tuple[Coupler, ...]

    def __post_init__(self):
        check_int(self.n, "n", 1)
        object.__setattr__(self, "global_phase", float(self.global_phase))
        if not math.isfinite(self.global_phase):
            raise ValidationError(f"global_phase must be finite, got {self.global_phase}")
        object.__setattr__(self, "couplers", tuple(self.couplers))
        for c in self.couplers:
            if not isinstance(c, Coupler):
                raise ValidationError("couplers must be Coupler instances")
            if c.j > self.n:
                raise ValidationError(
                    f"coupler pair ({c.i}, {c.j}) does not fit in {self.n} modes"
                )


def _require_adjacent(plan: MeshPlan, op: str) -> None:
    for c in plan.couplers:
        if not c.adjacent:
            raise ValidationError(
                f"{op} supports nearest-neighbour couplers only, found ({c.i}, {c.j})"
            )


def coupler_matrix(c: Coupler) -> np.ndarray:
    """The 2x2 special unitary a coupler applies to its mode pair."""
    return su2_from_euler(c.angles)


def embed_coupler(n: int, c: Coupler) -> np.ndarray:
    """Embed a coupler into the n-dimensional identity at its mode pair."""
    check_int(n, "n")
    if c.j > n:
        raise ValidationError(f"coupler pair ({c.i}, {c.j}) does not fit in {n} modes")
    out = np.eye(n, dtype=np.complex128)
    k = coupler_matrix(c)
    idx = (c.i - 1, c.j - 1)
    out[np.ix_(idx, idx)] = k
    return out


def reconstruct(plan: MeshPlan) -> np.ndarray:
    """Multiply the plan out into its n x n unitary.

    All coupler matrices are built in one call and applied right to left
    as one vectorized two-row update per greedy layer (see :func:`depth`),
    so the cost is O(m * n) arithmetic in O(depth) Python steps.
    """
    table = np.array([tuple(c.angles) for c in plan.couplers], dtype=float).reshape(-1, 3)
    u = _product(plan.n, _pairs(plan), EulerAngles(*table.T))
    return cmath.exp(1j * math.fmod(plan.global_phase, 2.0 * math.pi)) * u


def _product(n: int, pairs: list[tuple[int, int]], angles: EulerAngles) -> np.ndarray:
    """The ordered product B_1 @ ... @ B_m of couplers on 1-based ``pairs``.

    ``angles`` holds arrays of shape ``(m, *batch)``; the result has shape
    ``(n, n, *batch)``.  Sorting by greedy layer only swaps couplers on
    disjoint modes, which commute, and within a layer no row repeats.
    """
    layers = np.array(_layer_assignment(n, pairs), dtype=np.intp)
    order = np.argsort(layers, kind="stable")
    # In layer order: k[a, b, t] is entry (a, b) of coupler t, with a unit
    # axis that broadcasts over the n columns; rows[:, t] are its two rows.
    k = su2_from_euler(angles)[:, :, order, None]
    rows = (np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1)[order].T
    # Layer L is the slice bounds[L-1]:bounds[L] of that order.
    bounds = np.searchsorted(layers[order], np.arange(1, layers.max(initial=0) + 2)).tolist()
    out = np.zeros((n, n) + k.shape[4:], dtype=np.complex128)
    out[np.arange(n), np.arange(n)] = 1.0
    for s, e in reversed(list(zip(bounds, bounds[1:]))):
        r = rows[:, s:e]
        u, v = out[r]
        out[r] = k[:, 0, s:e] * u + k[:, 1, s:e] * v
    return out


def _pairs(plan: MeshPlan) -> list[tuple[int, int]]:
    return [(c.i, c.j) for c in plan.couplers]


def _triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Mode pairs of the triangle plan in order: chains C_1 ... C_{n-1}."""
    return [(m, m + 1) for k in range(1, n) for m in range(n - 1, k - 1, -1)]


def _layer_assignment(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Greedy earliest-layer schedule; a coupler occupies modes i..j."""
    level = [0] * (n + 1)
    out = []
    for i, j in pairs:
        layer = 1 + max(level[i : j + 1])
        level[i : j + 1] = [layer] * (j + 1 - i)
        out.append(layer)
    return out


def depth(plan: MeshPlan) -> int:
    """Number of layers when couplers are packed greedily left to right."""
    layers = _layer_assignment(plan.n, _pairs(plan))
    return max(layers, default=0)


def multiplicity(plan: MeshPlan, i: int) -> int:
    """How many couplers act on the adjacent pair ``(i, i+1)``."""
    _require_adjacent(plan, "multiplicity")
    check_int(i, "i", 1, plan.n - 1)
    return sum(1 for c in plan.couplers if c.i == i)


def merge_adjacent(plan: MeshPlan) -> MeshPlan:
    """Fuse couplers on the same pair that are adjacent in time.

    Two couplers on pair (i, i+1) merge when nothing between them touches
    mode i or i+1; everything in between then commutes past, so the fused
    plan reconstructs to the same matrix.  Merged couplers are re-extracted
    as full3.
    """
    _require_adjacent(plan, "merge_adjacent")
    out: list[Coupler] = []
    for c in plan.couplers:
        target = None
        for k in range(len(out) - 1, -1, -1):
            prev = out[k]
            if prev.i == c.i:
                target = k
                break
            if prev.i in (c.i, c.j) or prev.j in (c.i, c.j):
                break
        if target is None:
            out.append(c)
        else:
            fused = coupler_matrix(out[target]) @ coupler_matrix(c)
            out[target] = Coupler(c.i, c.j, euler_from_su2(fused), ARITY_FULL)
    return MeshPlan(plan.n, plan.global_phase, tuple(out))


def parameter_count(plan: MeshPlan) -> int:
    """Total free angles: 3 per full3 coupler, 2 per constrained2."""
    return sum(3 if c.arity == ARITY_FULL else 2 for c in plan.couplers)


def render(plan: MeshPlan, format: str = "ascii") -> str:
    """Draw the mesh as text art or a standalone SVG document."""
    _require_adjacent(plan, "render")
    if check_choice(format, "render format", ("ascii", "svg")) == "ascii":
        return _render_ascii(plan)
    return _render_svg(plan)


def _render_ascii(plan: MeshPlan) -> str:
    n = plan.n
    layers = _layer_assignment(plan.n, _pairs(plan))
    ncols = max(max(layers, default=0), 1)
    margin = len(str(n))

    # One text row per mode, one gap row between modes; 5-character cells.
    cells = [
        ["-----" if r % 2 == 0 else "     " for _ in range(ncols)]
        for r in range(2 * n - 1)
    ]
    for c, layer in zip(plan.couplers, layers):
        col = layer - 1
        top = 2 * (c.i - 1)
        label = "3" if c.arity == ARITY_FULL else "2"
        cells[top][col] = "+---+"
        cells[top + 2][col] = "+---+"
        cells[top + 1][col] = f"| {label} |"

    lines = []
    for r in range(2 * n - 1):
        if r % 2 == 0:
            prefix = str(r // 2 + 1).rjust(margin) + " "
            sep = "-"
        else:
            prefix = " " * (margin + 1)
            sep = " "
        line = prefix + sep + sep.join(cells[r]) + sep
        if r % 2 == 1 and line.strip() == "":
            continue
        lines.append(line.rstrip() if r % 2 == 1 else line)
    return "\n".join(lines)


def _render_svg(plan: MeshPlan) -> str:
    n = plan.n
    layers = _layer_assignment(plan.n, _pairs(plan))
    ncols = max(max(layers, default=0), 1)
    x0, dx, y0, dy = 50, 60, 30, 40
    width = x0 + ncols * dx + 10
    height = y0 + (n - 1) * dy + 30

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for m in range(1, n + 1):
        y = y0 + (m - 1) * dy
        parts.append(
            f'  <text x="{x0 - 35}" y="{y + 4}" font-family="monospace" '
            f'font-size="12">{m}</text>'
        )
        parts.append(
            f'  <line x1="{x0 - 20}" y1="{y}" x2="{width - 10}" y2="{y}" '
            f'stroke="black"/>'
        )
    for c, layer in zip(plan.couplers, layers):
        cx = x0 + (layer - 1) * dx + dx // 2
        y_top = y0 + (c.i - 1) * dy
        h = (c.j - c.i) * dy + 20
        label = "3" if c.arity == ARITY_FULL else "2"
        parts.append(
            f'  <rect x="{cx - 14}" y="{y_top - 10}" width="28" height="{h}" '
            f'fill="white" stroke="black"/>'
        )
        parts.append(
            f'  <text x="{cx - 4}" y="{y_top + (c.j - c.i) * dy // 2 + 4}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def plan_to_json(plan: MeshPlan) -> dict:
    """Serialize a plan to the interchange dict."""
    return {
        "n": plan.n,
        "global_phase": float(plan.global_phase),
        "couplers": [
            {
                "i": c.i,
                "j": c.j,
                "alpha": c.angles.alpha,
                "beta": c.angles.beta,
                "gamma": c.angles.gamma,
                "arity": c.arity,
            }
            for c in plan.couplers
        ],
    }


def plan_from_json(obj) -> MeshPlan:
    """Parse the interchange dict back into a validated plan.

    Structural problems raise :class:`FormatError`; semantic ones (bad mode
    pair, broken constrained2 tie) surface as :class:`ValidationError` from
    the dataclass constructors.
    """
    n = read_field(obj, "n", "plan", int)
    phase = read_field(obj, "global_phase", "plan", float)
    couplers = []
    for idx, entry in enumerate(read_field(obj, "couplers", "plan", list)):
        where = f"coupler {idx}"
        i, j = (read_field(entry, key, where, int) for key in ("i", "j"))
        angles = (read_field(entry, key, where, float) for key in ("alpha", "beta", "gamma"))
        couplers.append(Coupler(i, j, EulerAngles(*angles), read_field(entry, "arity", where, str)))
    return MeshPlan(n, phase, tuple(couplers))
