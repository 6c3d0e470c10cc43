"""Exception hierarchy shared by the library and the command line tool.

Every failure mode maps to one process exit code, its ``exit_code``:

* ``FormatError``        -> 1  (unreadable or structurally invalid input)
* ``ToleranceError``     -> 2  (a numerical target was not met)
* ``ValidationError``    -> 3  (mathematically invalid input)
* ``ResourceError``      -> 4  (a configured size or cost cap was exceeded)

It also holds the input checks that all modules share: integers, choices,
finite numbers and the fields of JSON documents.
"""

from __future__ import annotations

import math
from numbers import Real

__all__ = [
    "FormatError",
    "ValidationError",
    "ToleranceError",
    "ResourceError",
]


class FormatError(ValueError):
    """Input could not be parsed or its structure is wrong."""

    exit_code = 1


class ValidationError(ValueError):
    """Input parses fine but violates a mathematical precondition."""

    exit_code = 3


class ToleranceError(RuntimeError):
    """A computation finished but missed its numerical target.

    Carries the best residual achieved so callers can report it.
    """

    exit_code = 2

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ResourceError(RuntimeError):
    """The requested computation exceeds a configured resource cap."""

    exit_code = 4


def check_int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """Return ``value`` if it is a non-bool int in ``minimum..maximum``,
    else raise :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_choice(value, name: str, choices):
    """Return ``value`` if it is one of ``choices``, else raise
    :class:`ValidationError`."""
    if value not in choices:
        raise ValidationError(f"unknown {name} {value!r}")
    return value


def finite_float(x, where: str) -> float:
    """Convert a non-bool real to a finite float, else raise
    :class:`FormatError` naming ``where``."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise FormatError(f"{where}: expected a number, got {type(x).__name__}")
    try:
        val = float(x)
    except OverflowError:  # an int beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise FormatError(f"{where}: value must be finite")
    return val


def read_field(obj, key: str, where: str, kind: type):
    """Field ``key`` of the JSON object ``obj``, else :class:`FormatError`
    naming ``where``.

    The value must be a ``kind``: ``int`` means a non-bool int, and
    ``float`` a finite float (see :func:`finite_float`).
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object")
    if key not in obj:
        raise FormatError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is float:
        return finite_float(value, f"{where} {key}")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"{where}: {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value
