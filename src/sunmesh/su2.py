"""Euler-angle algebra for 2x2 special unitaries.

The parameterization used everywhere in this package is the z-y-z product

    K(alpha, beta, gamma) = Rz(alpha) Ry(beta) Rz(gamma)

written out as

    [[ exp(+i(alpha+gamma)/2) cos(beta/2), -exp(+i(alpha-gamma)/2) sin(beta/2)],
     [ exp(-i(alpha-gamma)/2) sin(beta/2),  exp(-i(alpha+gamma)/2) cos(beta/2)]]

Angles returned by the extraction routines are normalized to beta in [0, pi]
and alpha, gamma in (-2*pi, 2*pi].  The map is 4*pi periodic in alpha and
gamma, and adding 2*pi to alpha flips the sign of the matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_choice
from .linalg import _unitary

__all__ = [
    "EulerAngles",
    "su2_from_euler",
    "euler_from_su2",
    "zeroing_angles",
    "push_phase_through_coupler",
]

_TWO_PI = 2.0 * math.pi


def _wrap_phase(x: float) -> float:
    """Wrap ``x`` into (-2*pi, 2*pi] by multiples of 4*pi.

    Shifting by 4*pi leaves the 2x2 matrix unchanged, so this never alters
    the operator a set of angles describes.
    """
    y = math.fmod(x, 2.0 * _TWO_PI)
    if y <= -_TWO_PI:
        y += 2.0 * _TWO_PI
    elif y > _TWO_PI:
        y -= 2.0 * _TWO_PI
    return y


@dataclass(frozen=True)
class EulerAngles:
    """The triple (alpha, beta, gamma) of z-y-z Euler angles."""

    alpha: float
    beta: float
    gamma: float

    def __iter__(self):
        yield self.alpha
        yield self.beta
        yield self.gamma


def su2_from_euler(angles: EulerAngles) -> np.ndarray:
    """Build the 2x2 special unitary K(alpha, beta, gamma).

    Accepts any finite real angles.  Each is first reduced mod 4*pi, which
    leaves the matrix unchanged and keeps the half-angle sums as exact as
    those of :func:`sunmesh.symrep.lift_plan`, which reduces the same way.
    Fields that are equal-shape arrays give shape ``(2, 2, *shape)``.
    """
    alpha, beta, gamma = (np.fmod(x, 2.0 * _TWO_PI) for x in angles)
    half_sum = 0.5 * (alpha + gamma)
    half_diff = 0.5 * (alpha - gamma)
    c = np.cos(0.5 * beta)
    s = np.sin(0.5 * beta)
    return np.array(
        [
            [np.exp(1j * half_sum) * c, -np.exp(1j * half_diff) * s],
            [np.exp(-1j * half_diff) * s, np.exp(-1j * half_sum) * c],
        ]
    )


def euler_from_su2(u, tol: float = 1e-10) -> EulerAngles:
    """Recover normalized Euler angles from a 2x2 special unitary.

    When ``beta`` is within ``tol`` of 0 or pi the decomposition is gimbal
    degenerate (only alpha+gamma or alpha-gamma is determined); the
    convention here is to set gamma to 0 and put the whole phase in alpha.
    """
    a = _unitary(u, tol)
    if a.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {a.shape}")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det - 1.0) > tol:
        raise ValidationError("matrix determinant is not 1 within tolerance")

    beta = 2.0 * math.atan2(abs(a[1, 0]), abs(a[0, 0]))
    if beta <= tol:
        return EulerAngles(_wrap_phase(2.0 * cmath.phase(a[0, 0])), beta, 0.0)
    if math.pi - beta <= tol:
        return EulerAngles(_wrap_phase(-2.0 * cmath.phase(a[1, 0])), beta, 0.0)
    top = cmath.phase(a[0, 0])
    bottom = cmath.phase(a[1, 0])
    return EulerAngles(top - bottom, beta, top + bottom)


def zeroing_angles(a: complex, b: complex) -> EulerAngles:
    """Angles of the rotation whose first column is ``(a, b)`` normalized.

    For ``rho = sqrt(|a|^2 + |b|^2) > 0`` the returned angles satisfy

        K(angles).conj().T @ [a, b] == [rho, 0]

    with ``rho`` real and positive, which is the elimination step every
    mesh factorization below is built from.  The phase of an exactly zero
    entry is taken to be 0, so the pair (0, 0), which needs no rotation,
    gives the identity coupler ``EulerAngles(0.0, 0.0, 0.0)``.
    """
    a = complex(a)
    b = complex(b)
    phase_a = cmath.phase(a) if a != 0 else 0.0
    phase_b = cmath.phase(b) if b != 0 else 0.0
    return EulerAngles(
        phase_a - phase_b,
        2.0 * math.atan2(abs(b), abs(a)),
        phase_a + phase_b,
    )


def push_phase_through_coupler(
    theta_i: float,
    theta_j: float,
    angles: EulerAngles,
    side: str = "left",
) -> tuple[EulerAngles, float]:
    """Commute a diagonal phase pair through a coupler exactly.

    With ``side="left"`` this realizes

        diag(exp(i*theta_i), exp(i*theta_j)) @ K(alpha, beta, gamma)
            == exp(i*mu) * K(alpha + theta_i - theta_j, beta, gamma)

    and with ``side="right"`` the mirrored identity where the difference
    lands in gamma instead.  In both cases ``mu = (theta_i + theta_j) / 2``.
    Returns the updated angles and ``mu``.
    """
    if check_choice(side, "side", ("left", "right")) == "left":
        new = EulerAngles(
            _wrap_phase(angles.alpha + theta_i - theta_j), angles.beta, angles.gamma
        )
    else:
        new = EulerAngles(
            angles.alpha, angles.beta, _wrap_phase(angles.gamma + theta_i - theta_j)
        )
    return new, 0.5 * (theta_i + theta_j)
