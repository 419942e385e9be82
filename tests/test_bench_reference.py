"""The suites' verdict summaries at every resolution the benchmark runs.

A benchmark run draws its 1-D resolution from a family of three around the
workload's default (63, 65, 67 or 255, 257, 259) and fails a cell whose
verdict summary differs from ``bench/reference.json``. A change that moves
one summary at one member of a family passes every other test and fails
only that benchmark run. These checks run each workload's suites in process
at every stored resolution and compare every cell with the stored summary;
they read ``bench/reference.json`` and write nothing."""

import json
from pathlib import Path

import pytest

from varpolar.library import get_function
from varpolar.suites import SuiteParams, run_suites

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text(encoding="utf-8")
)

#: The verdict keys of a cell that the benchmark compares.
SUMMARY_KEYS = (
    "agree", "indeterminate", "hard", "candidates", "checks", "pass", "fail",
    "monotone", "absorbing", "absorbing_related", "absorbing_unattributed", "hard_count",
)

#: The benchmark's 2-D resolution; it does not vary with the seed.
RESOLUTION_2D = 17


def _cells(result: dict) -> dict[str, dict]:
    return {
        f"{suite}/{fid}": {k: cell[k] for k in SUMMARY_KEYS if k in cell}
        for suite, sec in result["suites"].items()
        for fid, cell in sec["functions"].items()
    }


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_every_cell_matches_the_benchmark_reference(workload):
    family = sorted(REFERENCE[workload], key=int)
    keys = set(REFERENCE[workload][family[0]]["cells"])
    suites = sorted({key.split("/")[0] for key in keys})
    functions = [get_function(fid) for fid in sorted({key.split("/")[1] for key in keys})]
    one_d = [f for f in functions if f.dim == 1]
    two_d = [f for f in functions if f.dim == 2]

    def cells(fs, res):
        params = SuiteParams(resolution=int(res), resolution_2d=RESOLUTION_2D)
        return _cells(run_suites(fs, suites, params)) if fs else {}

    # the 1-D resolution moves only the 1-D entries: those run at every
    # member of the family, the 2-D ones once
    cells_2d = cells(two_d, family[0])
    for res in family:
        got = {**cells(one_d, res), **cells_2d}
        assert got == REFERENCE[workload][res]["cells"], (workload, res)
