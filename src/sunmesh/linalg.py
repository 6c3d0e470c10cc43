"""Dense complex matrix helpers: unitarity checks, determinant phase removal,
seeded Haar-random unitaries, and the JSON matrix interchange format.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import FormatError, ValidationError, check_int, finite_float, read_field

__all__ = [
    "as_complex_matrix",
    "is_unitary",
    "project_to_su",
    "random_unitary_qr",
    "matrix_to_json",
    "matrix_from_json",
]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex128 array, validating its shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValidationError("matrix must be at least 1x1")
    return a


def is_unitary(m, tol: float = 1e-10) -> bool:
    """True when ``m.conj().T @ m`` is the identity within Frobenius norm tol.

    ``tol`` must be a finite number >= 0, else :class:`ValidationError`;
    the library entry points that take a ``tol`` check it here.
    """
    a = as_complex_matrix(m)
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    n = a.shape[0]
    return float(np.linalg.norm(a.conj().T @ a - np.eye(n))) <= tol


def _unitary(m, tol: float) -> np.ndarray:
    """``m`` as a complex matrix, else :class:`ValidationError` if it is not
    unitary within ``tol``."""
    a = as_complex_matrix(m)
    if not is_unitary(a, tol):
        raise ValidationError(f"matrix is not unitary within tol {tol!r}")
    return a


def project_to_su(m, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Split a unitary as ``m = exp(i*phi) * msu`` with ``det(msu) = 1``.

    Returns ``(phi, msu)`` where ``phi = Arg(det m) / n`` is the removed
    global phase per mode.  Input must be unitary within ``tol``.
    """
    a = _unitary(m, tol)
    n = a.shape[0]
    phi = cmath.phase(np.linalg.det(a)) / n
    return phi, a * cmath.exp(-1j * phi)


def random_unitary_qr(n: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary from a complex Ginibre QR.

    Draws an i.i.d. standard complex Gaussian matrix from a counter-based
    Philox stream, takes its QR factorization, and multiplies each column of
    Q by the conjugated phase of the matching diagonal entry of R.  That
    fixes the phase ambiguity of QR, which is exactly what makes the output
    Haar rather than merely unitary.
    """
    check_int(n, "n", 1)
    check_int(seed, "seed", 0)
    return _ginibre_qr(np.random.Generator(np.random.Philox(seed)), n)


def _ginibre_qr(rng, n: int, shape=()) -> np.ndarray:
    """Haar unitaries of shape ``(*shape, n, n)`` from one Ginibre QR draw."""
    size = (*shape, n, n)
    g = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.conj(d / np.abs(d))[..., None, :]


def matrix_to_json(m) -> dict:
    """Serialize a square complex matrix to the interchange dict."""
    a = as_complex_matrix(m)
    return {"n": a.shape[0], "entries": np.stack((a.real, a.imag), axis=-1).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the interchange dict back into a complex matrix.

    Raises :class:`FormatError` on any structural problem; numerical
    properties (such as unitarity) are deliberately not checked here.
    """
    n = read_field(obj, "n", "matrix", int)
    if n < 1:
        raise FormatError(f"matrix: 'n' must be >= 1, got {n}")
    entries = read_field(obj, "entries", "matrix", list)
    if len(entries) != n:
        raise FormatError(f"matrix: 'entries' must be a list of {n} rows")
    out = np.empty((n, n), dtype=np.complex128)
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"row {r} must be a list of {n} entries")
        for c, cell in enumerate(row):
            if not isinstance(cell, (list, tuple)) or len(cell) != 2:
                raise FormatError(f"entry ({r},{c}) must be a [re, im] pair")
            out[r, c] = complex(
                finite_float(cell[0], f"entry ({r},{c}) real part"),
                finite_float(cell[1], f"entry ({r},{c}) imaginary part"),
            )
    return out
