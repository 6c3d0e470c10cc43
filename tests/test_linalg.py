import math

import numpy as np
import pytest

from sunmesh import (
    FormatError,
    ValidationError,
    as_complex_matrix,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    project_to_su,
    random_unitary_qr,
)


def test_as_complex_matrix_coerces_lists():
    a = as_complex_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.complex128
    assert a.shape == (2, 2)
    assert a[1, 0] == 3.0 + 0.0j


@pytest.mark.parametrize(
    "bad",
    [
        [[1, 2, 3], [4, 5, 6]],
        [1, 2, 3],
        np.zeros((2, 2, 2)),
        np.zeros((0, 0)),
    ],
)
def test_as_complex_matrix_rejects_bad_shapes(bad):
    with pytest.raises(ValidationError):
        as_complex_matrix(bad)


def test_is_unitary_accepts_rotation_and_rejects_scaling():
    c, s = math.cos(0.3), math.sin(0.3)
    assert is_unitary([[c, -s], [s, c]])
    assert not is_unitary([[1.0, 0.0], [0.0, 1.0 + 1e-6]])
    assert is_unitary([[1.0, 0.0], [0.0, 1.0 + 1e-6]], tol=1e-3)


def test_project_to_su_strips_global_phase():
    u = np.exp(0.7j) * np.eye(3)
    phi, msu = project_to_su(u)
    assert abs(np.linalg.det(msu) - 1.0) < 1e-12
    # exp(i*phi) per mode recovers the original matrix
    assert np.allclose(np.exp(1j * phi) * msu, u, atol=1e-12)
    assert abs(phi - 0.7) < 1e-12


def test_project_to_su_random_input():
    u = random_unitary_qr(5, seed=4)
    phi, msu = project_to_su(u)
    assert abs(np.linalg.det(msu) - 1.0) < 1e-10
    assert np.allclose(np.exp(1j * phi) * msu, u, atol=1e-12)


def test_project_to_su_rejects_nonunitary():
    with pytest.raises(ValidationError):
        project_to_su(np.diag([1.0, 2.0]))


def test_random_unitary_qr_is_unitary_and_seeded():
    u = random_unitary_qr(6, seed=3)
    assert is_unitary(u, tol=1e-12)
    assert np.array_equal(u, random_unitary_qr(6, seed=3))
    assert not np.array_equal(u, random_unitary_qr(6, seed=4))


@pytest.mark.parametrize("n, seed", [(0, 0), (2.5, 0), (True, 0), ("3", 0), (3, 1.5), (3, -1)])
def test_random_unitary_qr_rejects_bad_inputs(n, seed):
    with pytest.raises(ValidationError):
        random_unitary_qr(n, seed=seed)


def test_random_unitary_qr_first_entry_law():
    # P(|U_11|^2 > s) = (1-s)^(n-1) implies E|U_11|^2 = 1/n.
    n, count = 4, 4000
    vals = [abs(random_unitary_qr(n, seed=s)[0, 0]) ** 2 for s in range(count)]
    mean = np.mean(vals)
    stderr = np.std(vals, ddof=1) / math.sqrt(count)
    assert abs(mean - 1.0 / n) < 4 * stderr


def test_matrix_json_roundtrip():
    u = random_unitary_qr(3, seed=11)
    doc = matrix_to_json(u)
    assert doc["n"] == 3
    assert np.array_equal(matrix_from_json(doc), u)


def test_matrix_json_roundtrip_is_exact_through_text():
    import json

    u = random_unitary_qr(4, seed=12)
    text = json.dumps(matrix_to_json(u))
    assert np.array_equal(matrix_from_json(json.loads(text)), u)


@pytest.mark.parametrize("n", [1, 2, 21])
def test_matrix_to_json_matches_per_entry_form(n):
    import json

    # the oracle: each entry converted on its own
    def per_entry(a):
        rows = range(a.shape[0])
        return [[[float(a[r, c].real), float(a[r, c].imag)] for c in rows] for r in rows]

    # signed zeros, subnormal, tiny, huge and non-finite parts, set part by
    # part (1j * inf would be nan + inf j), plus one row of ordinary values
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e308, 1.5, math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(113 + n)
    a = np.empty((n, n), dtype=np.complex128)
    a.real, a.imag = rng.choice(edges, size=(2, n, n))
    a.real[0, 0], a.imag[0, 0] = -0.0, -math.inf
    if n > 1:
        a[-1] = random_unitary_qr(n, seed=n)[-1]
    doc = matrix_to_json(a)
    want = json.dumps({"n": n, "entries": per_entry(a)}, indent=2)
    assert json.dumps(doc, indent=2) == want
    assert all(type(x) is float for row in doc["entries"] for pair in row for x in pair)


def test_matrix_from_json_ignores_extra_keys():
    doc = matrix_to_json(np.eye(2))
    doc["provenance"] = {"command": "test"}
    assert np.array_equal(matrix_from_json(doc), np.eye(2))


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"entries": [[[1, 0]]]},
        {"n": 1},
        {"n": 0, "entries": []},
        {"n": True, "entries": [[[1, 0]]]},
        {"n": 2, "entries": [[[1, 0], [0, 0]]]},
        {"n": 1, "entries": [[[1, 0], [0, 0]]]},
        {"n": 1, "entries": [[[1]]]},
        {"n": 1, "entries": [[["1", 0]]]},
        {"n": 1, "entries": [[[float("nan"), 0]]]},
        {"n": 1, "entries": [[[float("inf"), 0]]]},
        {"n": 1, "entries": [[[10**400, 0]]]},
    ],
)
def test_matrix_from_json_rejects_malformed(doc):
    with pytest.raises(FormatError):
        matrix_from_json(doc)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-12])
def test_tol_must_be_finite_and_non_negative(tol):
    with pytest.raises(ValidationError, match="tol"):
        is_unitary(np.eye(2), tol)
    with pytest.raises(ValidationError, match="tol"):
        project_to_su(np.eye(2), tol)


def test_zero_tol_is_valid():
    assert is_unitary(np.eye(3), 0.0)
    assert not is_unitary(np.diag([1.0, 1.0 + 1e-15]), 0.0)
