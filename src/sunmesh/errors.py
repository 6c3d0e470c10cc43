"""Exception hierarchy shared by the library and the command line tool.

Every failure mode maps to one process exit code:

* ``FormatError``        -> 1  (unreadable or structurally invalid input)
* ``ToleranceError``     -> 2  (a numerical target was not met)
* ``ValidationError``    -> 3  (mathematically invalid input)
* ``ResourceError``      -> 4  (a configured size or cost cap was exceeded)

It also holds the scalar input checks that all modules share.
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


class ValidationError(ValueError):
    """Input parses fine but violates a mathematical precondition."""


class ToleranceError(RuntimeError):
    """A computation finished but missed its numerical target.

    Carries the best residual achieved so callers can report it.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ResourceError(RuntimeError):
    """The requested computation exceeds a configured resource cap."""


def check_int(value, name: str, minimum: int | None = None) -> int:
    """Return ``value`` if it is a non-bool int >= ``minimum``, else raise
    :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def finite_float(x, where: str) -> float:
    """Convert a non-bool real to a finite float, else raise
    :class:`FormatError` naming ``where``."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise FormatError(f"{where}: expected a number, got {type(x).__name__}")
    val = float(x)
    if not math.isfinite(val):
        raise FormatError(f"{where}: value must be finite")
    return val
