import pytest

from sunmesh import FormatError, ResourceError, ToleranceError, ValidationError
from sunmesh.errors import finite_float


def test_each_error_carries_its_exit_code():
    errors = (FormatError, ToleranceError, ValidationError, ResourceError)
    assert [e.exit_code for e in errors] == [1, 2, 3, 4]


# an int beyond the float range is as unreadable as 1e400, which JSON reads as inf
@pytest.mark.parametrize("x", [10**400, -(10**400)])
def test_finite_float_rejects_ints_beyond_the_float_range(x):
    with pytest.raises(FormatError, match="^x: value must be finite$"):
        finite_float(x, "x")
