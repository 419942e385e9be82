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
import typing
from pathlib import Path

import numpy as np

from varpolar import core, subderivative
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
    # the tracer keys a cell by str() of the first argument: the oracle,
    # whose str is its name, the function id
    suites = importlib.import_module("varpolar.suites")
    for attr in SUITE_ENTRY_POINTS:
        fn = getattr(suites, attr)
        first = next(iter(inspect.signature(fn).parameters.values()))
        assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, attr
        assert typing.get_type_hints(fn)[first.name] is FunctionOracle, attr
    for f in library_oracles():
        assert str(f) == f.name


def test_run_suites_passes_the_oracle_positionally(monkeypatch):
    # a keyword call leaves the tracer no args[0] to key the cell by
    suites = importlib.import_module("varpolar.suites")
    firsts = []
    for attr in SUITE_ENTRY_POINTS:
        real = getattr(suites, attr)

        def spy(*args, _real=real, **kwargs):
            firsts.append((_real.__name__, str(args[0])))
            return _real(*args, **kwargs)

        monkeypatch.setattr(suites, attr, spy)
    small = suites.SuiteParams(resolution=9, resolution_2d=5, thm3_candidates=5, thm3_candidates_2d=3)
    suites.run_suites([get_function("abs")], ["all"], small)
    assert sorted(firsts) == sorted((attr, "abs") for attr in SUITE_ENTRY_POINTS)


def test_clarke_kernel_returns_one_value_per_base_point(monkeypatch):
    # the tracer counts subderivative.clarke_directional_values.points as
    # len(result[0]), so that must stay the number of base points. A row
    # block holds at most core._BLOCK_ENTRIES rows, so the last batch spans
    # at least two blocks
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 256)
    blocks = []

    def spy(rows, cols):
        found = list(core._row_blocks(rows, cols))
        blocks.append(len(found))
        return found

    monkeypatch.setattr(subderivative, "_row_blocks", spy)
    f = get_function("twowell")
    for n in (0, 1, core._BLOCK_ENTRIES + 44):
        values, per_delta = subderivative.clarke_directional_values(
            f, np.linspace(-1.0, 1.0, n)[:, None], [1.0]
        )
        assert len(values) == n
        assert per_delta.shape == (n, len(subderivative.DEFAULT_DELTAS))
    assert blocks[-1] >= 2
