"""Numerical realization search and certification."""

from . import gn_numpy
from .numeric import (
    burnside_dim,
    centralizer_nullity,
    class_membership,
    jordan_matrix,
)
from .search import (
    MAX_ENTRIES,
    MAX_SIZE,
    RealizationResult,
    SearchBudget,
    backend_name,
    realize,
)

__all__ = [
    "backend_name",
    "kernel",
    "jordan_matrix",
    "burnside_dim",
    "centralizer_nullity",
    "class_membership",
    "SearchBudget",
    "RealizationResult",
    "realize",
    "MAX_SIZE",
    "MAX_ENTRIES",
]


def kernel():
    """The run(G, Q0, multiplicative, iters, stop_tol) Gauss-Newton kernel."""
    return gn_numpy.run
