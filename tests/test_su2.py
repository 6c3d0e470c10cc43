import cmath
import math

import numpy as np
import pytest

from sunmesh import (
    EulerAngles,
    ValidationError,
    project_to_su,
    push_phase_through_coupler,
    random_unitary_qr,
    su2_from_euler,
    zeroing_angles,
)

SQ2 = math.sqrt(0.5)


def random_su2(seed):
    _, u = project_to_su(random_unitary_qr(2, seed=seed))
    return u


def test_identity_angles_give_identity():
    assert np.allclose(su2_from_euler(EulerAngles(0.0, 0.0, 0.0)), np.eye(2))


def test_pure_z_rotation_is_diagonal():
    u = su2_from_euler(EulerAngles(0.8, 0.0, 0.0))
    want = np.diag([cmath.exp(0.4j), cmath.exp(-0.4j)])
    assert np.allclose(u, want, atol=1e-15)


def test_pure_y_rotation_is_real():
    u = su2_from_euler(EulerAngles(0.0, math.pi / 2, 0.0))
    want = np.array([[SQ2, -SQ2], [SQ2, SQ2]])
    assert np.allclose(u, want, atol=1e-15)


def test_su2_from_euler_unit_determinant():
    u = su2_from_euler(EulerAngles(1.1, 0.6, -2.0))
    assert abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0) < 1e-14
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)


def test_su2_from_euler_array_angles_match_scalar_calls():
    a, b, g = np.random.default_rng(3).uniform(-20.0, 20.0, (3, 4, 5))
    k = su2_from_euler(EulerAngles(a, b, g))
    assert k.shape == (2, 2, 4, 5)
    for idx in np.ndindex(4, 5):
        one = su2_from_euler(EulerAngles(float(a[idx]), float(b[idx]), float(g[idx])))
        assert one.shape == (2, 2)
        assert np.max(np.abs(k[(slice(None), slice(None)) + idx] - one)) <= 1e-15


def test_angles_are_four_pi_periodic_and_two_pi_flips_sign():
    base = EulerAngles(0.5, 1.2, -0.7)
    u = su2_from_euler(base)
    shifted = su2_from_euler(EulerAngles(base.alpha + 4 * math.pi, base.beta, base.gamma))
    flipped = su2_from_euler(EulerAngles(base.alpha + 2 * math.pi, base.beta, base.gamma))
    assert np.allclose(shifted, u, atol=1e-12)
    assert np.allclose(flipped, -u, atol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_euler_roundtrip_random(seed):
    # an SU(2) matrix is fixed by its first column, so the z-y-z map
    # reaches every one through the angles that zero its second entry
    u = random_su2(seed)
    ang = zeroing_angles(u[0, 0], u[1, 0])
    assert np.max(np.abs(su2_from_euler(ang) - u)) <= 1e-12
    assert 0.0 <= ang.beta <= math.pi
    assert -2 * math.pi < ang.alpha <= 2 * math.pi
    assert -2 * math.pi < ang.gamma <= 2 * math.pi


def test_zeroing_angles_real_pair():
    ang = zeroing_angles(3.0, 4.0)
    rotated = su2_from_euler(ang).conj().T @ np.array([3.0, 4.0])
    assert abs(rotated[0] - 5.0) < 1e-14
    assert abs(rotated[1]) < 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_zeroing_angles_complex_pairs(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    ang = zeroing_angles(a, b)
    rho = math.hypot(abs(a), abs(b))
    rotated = su2_from_euler(ang).conj().T @ np.array([a, b])
    assert abs(rotated[0] - rho) < 1e-13
    assert abs(rotated[1]) < 1e-13


def test_zeroing_angles_zero_entry_uses_zero_phase():
    ang = zeroing_angles(2.0j, 0.0)
    assert ang.beta == 0.0
    assert abs(ang.alpha - math.pi / 2) < 1e-15
    assert abs(ang.gamma - math.pi / 2) < 1e-15


def test_zeroing_angles_degenerate_pair():
    # (0, 0) needs no rotation: the zero-phase rule gives the identity coupler,
    # every angle +0.0 whatever the signs of the zeros
    for a, b in [(0.0, 0.0), (-0.0, 0j), (complex(-0.0, -0.0), -0.0), (0, 0)]:
        ang = zeroing_angles(a, b)
        assert ang == EulerAngles(0.0, 0.0, 0.0)
        assert all(math.copysign(1.0, x) == 1.0 for x in ang), (a, b)
        assert np.array_equal(su2_from_euler(ang), np.eye(2))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("seed", range(30))
def test_push_phase_commutes_diagonal_exactly(side, seed):
    rng = np.random.default_rng(seed)
    ti, tj = rng.uniform(-3.0, 3.0, size=2)
    ang = EulerAngles(*rng.uniform(-2.0, 2.0, size=3))
    new, mu = push_phase_through_coupler(ti, tj, ang, side=side)
    d = np.diag([cmath.exp(1j * ti), cmath.exp(1j * tj)])
    if side == "left":
        lhs = d @ su2_from_euler(ang)
    else:
        lhs = su2_from_euler(ang) @ d
    rhs = cmath.exp(1j * mu) * su2_from_euler(new)
    assert np.abs(lhs - rhs).max() < 1e-13
    assert abs(mu - 0.5 * (ti + tj)) < 1e-15


def test_push_phase_rejects_unknown_side():
    with pytest.raises(ValidationError):
        push_phase_through_coupler(0.1, 0.2, EulerAngles(0, 0, 0), side="middle")
