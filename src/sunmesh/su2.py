"""Euler-angle algebra for 2x2 special unitaries.

The parameterization used everywhere in this package is the z-y-z product

    K(alpha, beta, gamma) = Rz(alpha) Ry(beta) Rz(gamma)

written out as

    [[ exp(+i(alpha+gamma)/2) cos(beta/2), -exp(+i(alpha-gamma)/2) sin(beta/2)],
     [ exp(-i(alpha-gamma)/2) sin(beta/2),  exp(-i(alpha+gamma)/2) cos(beta/2)]]

The angles travel as :class:`EulerAngles`, a named tuple, so the field
order is stated once, in the type.  Of the extraction routines,
:func:`zeroing_angles` returns beta in [0, pi] and alpha, gamma in
(-2*pi, 2*pi], and :func:`push_phase_through_coupler` wraps the angle it
shifts into (-2*pi, 2*pi].  The map is 4*pi periodic in alpha and gamma,
and adding 2*pi to alpha flips the sign of the matrix.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import check_choice

__all__ = [
    "EulerAngles",
    "su2_from_euler",
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


class EulerAngles(NamedTuple):
    """The triple (alpha, beta, gamma) of z-y-z Euler angles."""

    alpha: float
    beta: float
    gamma: float


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
        new = angles._replace(alpha=_wrap_phase(angles.alpha + theta_i - theta_j))
    else:
        new = angles._replace(gamma=_wrap_phase(angles.gamma + theta_i - theta_j))
    return new, 0.5 * (theta_i + theta_j)
