"""The traced benchmark's per-layer metrics name functions of the package.

The benchmark's trace mode wraps every public module-level function of the
eight package modules and exits with "no measurement for ..." when a metric
named in BENCHMARK.json has none, so renaming, privatizing or deleting such a
function breaks it. These checks read BENCHMARK.json and import the package;
they run no benchmark."""

import importlib
import inspect
import json
import re
from pathlib import Path

import numpy as np

from varpolar import subderivative
from varpolar.core import FunctionOracle
from varpolar.library import get_function, test_library as library_oracles

MODULES = ("core", "library", "subderivative", "subdifferential", "minty", "polar", "suites", "cli")
METRIC = re.compile(rf"({'|'.join(MODULES)})\.(\w+)\.(calls|self_s|points|pairs|kept_ratio)")

#: The suite entry points whose first argument keys the per-cell wall times.
SUITE_ENTRY_POINTS = ("equivalence_report", "thm3_suite", "cdd_suite", "predicates_suite")


def _per_layer_names() -> list[str]:
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return [m["name"] for m in json.loads(path.read_text(encoding="utf-8"))["per_layer"]]


def test_per_layer_metrics_name_public_functions():
    traced = set()
    for name in _per_layer_names():
        match = METRIC.fullmatch(name)
        if match:
            traced.add((match[1], match[2]))
    assert ("polar", "polar_contains") in traced
    # the two names the tracer wraps by hand: a method and a per-entry side-oracle
    assert inspect.isfunction(FunctionOracle.values)
    assert any(f.exact_subdifferential is not None for f in library_oracles())
    traced -= {("core", "values"), ("library", "exact_subdifferential")}
    for module, attr in sorted(traced):
        mod = importlib.import_module(f"varpolar.{module}")
        obj = getattr(mod, attr, None)
        public = not attr.startswith("_") and inspect.isfunction(obj)
        assert public and obj.__module__ == mod.__name__, f"{module}.{attr}"


def test_suite_entry_points_take_the_function_id_first():
    suites = importlib.import_module("varpolar.suites")
    for attr in SUITE_ENTRY_POINTS:
        first = next(iter(inspect.signature(getattr(suites, attr)).parameters))
        assert first == "function_id", attr


def test_clarke_kernel_returns_one_value_per_base_point():
    # the tracer counts subderivative.clarke_directional_values.points as
    # len(result[0]), so that must stay the number of base points
    f = get_function("twowell")
    for n in (0, 1, subderivative._CLARKE_BLOCK + 44):
        values, per_delta = subderivative.clarke_directional_values(
            f, np.linspace(-1.0, 1.0, n)[:, None], [1.0]
        )
        assert len(values) == n
        assert per_delta.shape == (n, len(subderivative.DEFAULT_DELTAS))
