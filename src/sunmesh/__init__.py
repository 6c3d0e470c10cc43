"""Triangular mesh factorizations of unitary matrices.

A unitary on n modes factors into n(n-1)/2 two-mode couplers arranged in
descending chains, using only nearest-neighbour mode pairs.  This package
builds such plans (plus Reck and Clements reference schemes), canonicalizes
their phases to the minimal n^2-1 parameters, samples Haar-random plans
directly in angle coordinates, and lifts plans to multi-photon symmetric
representations by two independent routes.
"""

from . import decompose, errors, haar, linalg, mesh, su2, symrep
from .errors import *
from .linalg import *
from .su2 import *
from .mesh import *
from .decompose import *
from .haar import *
from .symrep import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *linalg.__all__,
    *su2.__all__,
    *mesh.__all__,
    *decompose.__all__,
    *haar.__all__,
    *symrep.__all__,
    "__version__",
]
