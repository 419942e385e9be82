"""Tests of the benchmark harness itself (not collected by the repository's
test run, whose testpaths is tests/):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = (
    "[run]\n"
    "functions = abs, neg_abs, twowell, norm2d\n"
    "suites = prop1, thm2, thm3, cdd, predicates\n"
    "resolution = 9\n"
    "resolution_2d = 5\n"
    "thm3_candidates = 5\n"
    "thm3_candidates_2d = 3\n"
    f"out = {run.REPORT_DIR}\n"
)


def _tiny_run(work: Path, trace: bool, probe: bool = False) -> tuple[dict, dict]:
    work.mkdir()
    (work / "run.ini").write_text(TINY, encoding="utf-8")
    runner = run.Runner(work, deadline=time.monotonic() + 120.0)
    args = ["--config", str(work / "run.ini")]
    if trace:
        args += ["--trace", str(work / "spans.json")]
    res = runner.child(*args, probe=probe)
    assert res is not None and res["error"] is None
    res["spans_path"] = str(work / "spans.json")
    report = json.loads((work / run.REPORT_DIR / "report.json").read_text(encoding="utf-8"))
    return res, report


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    return [_tiny_run(base / name, trace) for name, trace in (("plain", False), ("t1", True), ("t2", True))] + [
        _tiny_run(base / "probed", False, probe=True)
    ]


def test_traced_counts_repeat_exactly(tiny_runs):
    (_, _), (t1, _), (t2, _), _ = tiny_runs
    for key in ("core.values.points", "library.exact_subdifferential.calls", "core.values.calls"):
        assert t1["layers"][key] == t2["layers"][key] > 0


def test_tracing_and_probe_do_not_change_verdicts(tiny_runs):
    (_, plain), (_, traced), _, (_, probed) = tiny_runs
    for other in (traced, probed):
        assert run.report_cells(plain) == run.report_cells(other)
        assert run.report_sha256(plain) == run.report_sha256(other)


def test_probed_child_gets_reference_speed_times(tiny_runs):
    _, _, _, (probed, _) = tiny_runs
    for key in ("setup", "suite"):
        assert probed[f"{key}_probe_s"] > 0 and probed[f"{key}_ref_s"] > 0


def test_scale_uses_only_kernels_inside_each_interval(tmp_path):
    record = tmp_path / "probe.json"
    # [start, end, cpu_s] per kernel; only the middle two lie inside the suite window
    record.write_text(json.dumps([[0.0, 1.0, 9.0], [2.0, 3.0, 0.001], [3.0, 4.0, 0.003], [4.5, 6.0, 9.0]]))
    measured = {"setup_window": [2.0, 3.0], "setup_cpu_s": 0.5, "suite_window": [1.5, 5.0], "cpu_s": 4.0}
    assert run.Runner._scale(measured, record)
    assert measured["setup_ref_s"] == pytest.approx(0.5 * run.PROBE_REF_S / 0.001)
    assert measured["suite_probe_s"] == pytest.approx(0.002)
    assert measured["suite_ref_s"] == pytest.approx(4.0 * run.PROBE_REF_S / 0.002)
    assert not run.Runner._scale({"setup_window": [7.0, 8.0], "setup_cpu_s": 0.5}, record)


def test_trace_covers_every_per_layer_metric(tiny_runs):
    (plain, _), (t1, _), _, _ = tiny_runs
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = run.layer_metrics(plain, t1)
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in metrics] == []
    assert metrics["suites.cdd.norm2d.wall_s"] > 0


def test_spans_name_their_parents(tiny_runs):
    _, (t1, _), _, _ = tiny_runs
    spans = json.loads(Path(t1["spans_path"]).read_text(encoding="utf-8"))
    ids = {s[0] for s in spans["spans"]}
    assert spans["spans"]
    assert all(s[4] == -1 or s[4] in ids for s in spans["spans"])
    assert all(s[2] <= s[3] for s in spans["spans"])


def test_seed_zero_is_the_documented_config():
    assert run.WORKLOADS["rays"].resolution_for(0) == 65
    assert run.WORKLOADS["numeric_1d_hires"].resolution_for(0) == 257
    for name, workload in run.WORKLOADS.items():
        refs = json.loads((run.BENCH / "reference.json").read_text(encoding="utf-8"))[name]
        for seed in range(20):
            r = workload.resolution_for(seed)
            assert r == workload.resolution_for(seed) and r % 2 == 1
            assert str(r) in refs


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rays", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
