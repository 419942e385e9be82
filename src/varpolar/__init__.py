"""Numerical variational analysis in R^n: lower Dini subderivatives,
generalized directional derivatives, subdifferential graph sampling and its
epsilon-enlargement, Minty variational inequalities, the
increase-along-rays property, and monotone polars of sampled operator
graphs, cross-validated against a curated library of exactly-known test
functions."""

from .core import (
    DEFAULT_BOX_HALF_WIDTH,
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    FunctionOracle,
    GraphSample,
    Region,
    Verdict,
    as_point,
    interval_rows,
)
from .library import FUNCTION_IDS, get_function, test_library
from .minty import EquivalenceReport, cross_validate
from .polar import (
    is_absorbing,
    is_monotone,
    polar_contains,
    polar_membership_via_iar,
    polar_of_sample,
)
from .subderivative import (
    LiminfScheme,
    SubderivEstimate,
    WitnessNotFoundError,
    lower_dini,
    mean_value_witness,
)
from .subdifferential import cdd_profile, epsilon_enlargement, sample_subdiff_graph

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BOX_HALF_WIDTH",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "DomainError",
    "EquivalenceReport",
    "FUNCTION_IDS",
    "FunctionOracle",
    "GraphSample",
    "LiminfScheme",
    "Region",
    "SubderivEstimate",
    "Verdict",
    "WitnessNotFoundError",
    "as_point",
    "cdd_profile",
    "cross_validate",
    "epsilon_enlargement",
    "get_function",
    "interval_rows",
    "is_absorbing",
    "is_monotone",
    "lower_dini",
    "mean_value_witness",
    "polar_contains",
    "polar_membership_via_iar",
    "polar_of_sample",
    "sample_subdiff_graph",
    "test_library",
]
