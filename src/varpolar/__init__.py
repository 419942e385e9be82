"""Numerical variational analysis in R^n: lower Dini subderivatives,
generalized directional derivatives, subdifferential membership and graph
sampling, Minty variational inequalities, the increase-along-rays property,
and monotone polars of sampled operator graphs, cross-validated against a
curated library of exactly-known test functions."""

from .core import (
    DEFAULT_BOX_HALF_WIDTH,
    DEFAULT_TOL,
    BallSet,
    DimensionMismatchError,
    DomainError,
    FunctionOracle,
    GraphSample,
    IntervalSet,
    PolytopeSet,
    Region,
    UnusableSampleError,
    Verdict,
    as_point,
)
from .library import FUNCTION_IDS, get_function, test_library
from .minty import (
    EquivalenceReport,
    cross_validate,
    iar_check,
    minty_subderivative,
    minty_subdifferential,
)
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
    clarke_directional,
    lower_dini,
    mean_value_witness,
)
from .subdifferential import (
    clarke_subdiff_contains,
    convex_subdiff_contains,
    epsilon_enlargement,
    sample_subdiff_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BallSet",
    "DEFAULT_BOX_HALF_WIDTH",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "DomainError",
    "EquivalenceReport",
    "FUNCTION_IDS",
    "FunctionOracle",
    "GraphSample",
    "IntervalSet",
    "LiminfScheme",
    "PolytopeSet",
    "Region",
    "SubderivEstimate",
    "UnusableSampleError",
    "Verdict",
    "WitnessNotFoundError",
    "as_point",
    "clarke_directional",
    "clarke_subdiff_contains",
    "convex_subdiff_contains",
    "cross_validate",
    "epsilon_enlargement",
    "get_function",
    "iar_check",
    "is_absorbing",
    "is_monotone",
    "lower_dini",
    "mean_value_witness",
    "minty_subderivative",
    "minty_subdifferential",
    "polar_contains",
    "polar_membership_via_iar",
    "polar_of_sample",
    "sample_subdiff_graph",
    "test_library",
]
