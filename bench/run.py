"""Benchmark of ``varpolar suite``: the verifier's end-to-end run over the
curated library, split into three workloads that stress different layers.

    python3 bench/run.py --workload rays --seed 0 --seconds 30 --trace 0

Every sample runs in a fresh single-threaded interpreter (bench/child.py)
that imports ``varpolar`` from this checkout's ``src/`` and calls
``varpolar.cli.main(["suite", "--config", RUN.ini])``. Each report is checked
cell by cell against bench/reference.json. End-to-end times are CPU seconds
scaled by a core-speed probe (bench/probe.py) that shares the child's core.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count (suite, function) cells, and ``metrics``
holds the end-to-end metrics of
BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
Everything else (per-sample values, environment, report digests) goes to
``.bench_out/`` and to standard error. bench/README.md says why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import CELL_TASKS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REPORT_DIR = "report"

ALL_SUITES = ("prop1", "thm2", "thm3", "cdd", "predicates")
ALL_FUNCTIONS = (
    "abs", "square", "neg_abs", "ind_halfline", "ind_origin", "maxzero", "twowell", "norm2d", "mixed2d",
)
#: 2-D per-axis resolution of every workload. It is not varied by the seed:
#: 2-D equivalence work grows as resolution^4, so the nearest odd neighbours
#: (15, 19) would change wall time by -40% / +56%, far outside any bound.
RESOLUTION_2D = 17
#: Fresh interpreters that only import varpolar.cli, for setup_s.
IMPORT_SAMPLES = 5
#: CPU seconds of one probe kernel (bench/probe.py) at the reference core
#: speed. End-to-end times are CPU times scaled to it. The value puts suite_s
#: near the plain wall time of a suite run on an otherwise idle core of a
#: 2-core virtual machine (Xeon with AVX-512, Python 3.11, numpy 2.4).
PROBE_REF_S = 0.00048
#: Niceness of the core-speed probe. At 10 it takes about a tenth of the
#: shared core, so a sample takes about a tenth longer than alone, and it
#: still measures the core's speed every few milliseconds.
PROBE_NICE = 10
#: Every run ends well within the 180 s a run may take.
RUN_DEADLINE_S = 170.0

#: Verdict keys compared against the reference; other report keys may change.
SUMMARY_KEYS = (
    "agree", "indeterminate", "hard", "candidates", "checks", "pass", "fail",
    "monotone", "absorbing", "absorbing_related", "absorbing_unattributed", "hard_count",
)


@dataclass(frozen=True)
class Workload:
    suites: tuple[str, ...]
    functions: tuple[str, ...]
    resolution: int  # 1-D grid resolution at seed 0

    def resolution_for(self, seed: int) -> int:
        """Seed 0 is the documented config; other seeds draw the 1-D
        resolution from the odd neighbours around it."""
        if seed == 0:
            return self.resolution
        return random.Random(seed).choice(self.resolution_family())

    def resolution_family(self) -> tuple[int, ...]:
        return (self.resolution - 2, self.resolution, self.resolution + 2)

    def cells(self) -> list[str]:
        return [f"{s}/{f}" for s in self.suites for f in sorted(self.functions)]


WORKLOADS = {
    "rays": Workload(("prop1", "thm2", "thm3"), ALL_FUNCTIONS, 65),
    "cdd": Workload(("cdd", "predicates"), ALL_FUNCTIONS, 65),
    "numeric_1d_hires": Workload(ALL_SUITES, ("neg_abs", "twowell"), 257),
}


def write_config(path: Path, workload: Workload, resolution: int) -> None:
    """The run's only input. Reports go to ``REPORT_DIR`` relative to the
    child's working directory, so report bytes do not depend on where the
    checkout lives."""
    path.write_text(
        "[run]\n"
        f"functions = {', '.join(workload.functions)}\n"
        f"suites = {', '.join(workload.suites)}\n"
        f"resolution = {resolution}\n"
        f"resolution_2d = {RESOLUTION_2D}\n"
        f"out = {REPORT_DIR}\n"
        "format = json\n",
        encoding="utf-8",
    )


class Runner:
    """Starts the single-threaded child processes of one benchmark run, each
    one waited for and killed if it would outlive the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "VARPOLAR_THREADS"}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0
        self.core = min(os.sched_getaffinity(0))

    def _pin(self) -> None:
        os.sched_setaffinity(0, {self.core})

    def _pin_nice(self) -> None:
        self._pin()
        os.nice(PROBE_NICE)

    def child(self, *args: str, probe: bool = False) -> dict | None:
        """Run child.py once. With ``probe``, child and core-speed probe share
        one core, and the child's import and suite CPU times are also given
        scaled to the reference core speed (``setup_ref_s``, ``suite_ref_s``)."""
        self.count += 1
        result = self.work / f"child-{self.count}.json"
        record = self.work / f"probe-{self.count}.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), "--result", str(result), *args]
        with self._probe(record) if probe else contextlib.nullcontext():
            try:
                proc = subprocess.run(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL, timeout=timeout,
                                      preexec_fn=self._pin if probe else None)
            except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
                print(f"child timed out: {' '.join(args)}", file=sys.stderr)
                return None
        if proc.returncode != 0 or not result.exists():
            print(f"child failed with exit code {proc.returncode}", file=sys.stderr)
            return None
        measured = json.loads(result.read_text(encoding="utf-8"))
        if probe and not self._scale(measured, record):
            print("core-speed probe recorded nothing during the child", file=sys.stderr)
            return None
        return measured

    @contextlib.contextmanager
    def _probe(self, record: Path):
        """bench/probe.py on the child's core, running and warmed up for the
        whole block; stopped and waited for on every way out of it."""
        proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(record)], env=self.env,
                                cwd=self.work, stdout=subprocess.PIPE, text=True, preexec_fn=self._pin_nice)
        try:
            proc.stdout.readline()  # "ready"
            yield
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    @staticmethod
    def _scale(measured: dict, record: Path) -> bool:
        """Add the reference-speed CPU times of the child's import and suite
        call: CPU time times PROBE_REF_S over the probe's mean kernel time in
        the same interval. False if the probe has no kernel in an interval."""
        if not record.exists():
            return False
        kernels = json.loads(record.read_text(encoding="utf-8"))
        for key, window, cpu in (("setup", "setup_window", "setup_cpu_s"), ("suite", "suite_window", "cpu_s")):
            if window not in measured:
                continue
            lo, hi = measured[window]
            times = [c for start, end, c in kernels if start >= lo and end <= hi]
            if not times:
                return False
            measured[f"{key}_probe_s"] = statistics.fmean(times)
            measured[f"{key}_ref_s"] = measured[cpu] * PROBE_REF_S / measured[f"{key}_probe_s"]
        return True


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def report_cells(report: dict) -> dict[str, dict]:
    """Verdict summary of every (suite, function) cell of a report."""
    return {
        f"{suite}/{fid}": {k: cell[k] for k in SUMMARY_KEYS if k in cell}
        for suite, sec in report["suites"].items()
        for fid, cell in sec.get("functions", {}).items()
    }


def verdict_count(report: dict) -> int:
    """Rows of prop1/thm2, thm3 candidate pairs, cdd checks, and the two
    predicate checks (monotone, absorbing) per function."""
    n = 0
    for suite, sec in report["suites"].items():
        for cell in sec.get("functions", {}).values():
            if suite in ("prop1", "thm2"):
                n += cell["agree"] + cell["indeterminate"] + cell["hard"]
            elif suite == "thm3":
                n += cell["candidates"]
            elif suite == "cdd":
                n += cell["checks"]
            else:
                n += 2
    return n


def report_sha256(report: dict) -> str:
    """Digest of report.json without its timing block, as cli writes it."""
    payload = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failed_cells(report: dict | None, expected: list[str], reference: dict | None) -> list[str]:
    """Cells that are missing, have hard disagreements, or whose verdict
    summary differs from the reference (when one is stored)."""
    if report is None:
        return list(expected)
    got = report_cells(report)
    bad = []
    for key in expected:
        cell = got.get(key)
        if cell is None or cell.get("hard_count", 0) > 0:
            bad.append(key)
        elif reference is not None and cell != reference["cells"].get(key):
            bad.append(key)
    return bad


def load_reference(workload: str, resolution: int) -> dict | None:
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    return refs.get(workload, {}).get(str(resolution))


# ---------------------------------------------------------------------------
# One sample
# ---------------------------------------------------------------------------

def sample(runner: Runner, config: Path, workload: Workload, reference: dict | None,
           trace: Path | None = None, probe: bool = False) -> dict:
    """Run the suite once in a fresh process and check its report."""
    report_dir = runner.work / REPORT_DIR
    shutil.rmtree(report_dir, ignore_errors=True)
    args = ["--config", str(config)] + (["--trace", str(trace)] if trace else [])
    res = runner.child(*args, probe=probe)
    report = None
    if res is not None and res.get("error") is None and (report_dir / "report.json").exists():
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    expected = workload.cells()
    bad = failed_cells(report, expected, reference)
    out = {"attempted": len(expected), "failed": bad, "measured": res}
    if report is not None:
        out["verdicts"] = verdict_count(report)
        out["report_sha256"] = report_sha256(report)
        out["cells"] = report_cells(report)
    return out


def end_to_end(runner: Runner, seconds: float, run_sample) -> tuple[dict, list[dict]]:
    imports = [runner.child(probe=True) for _ in range(IMPORT_SAMPLES)]
    setups = [i["setup_ref_s"] for i in imports if i is not None]
    samples = []
    longest = 0.0
    start = time.monotonic()
    # Whole samples only; another one starts when even the slowest so far
    # would still end within the measuring time.
    while True:
        t = time.monotonic()
        samples.append(run_sample(probe=True))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > seconds:
            break
    ok = [s for s in samples if s["measured"] is not None and "verdicts" in s]
    setups += [s["measured"]["setup_ref_s"] for s in samples if s["measured"] is not None]
    if not ok or not setups:
        return {}, samples
    return {
        "suite_s": statistics.median([s["measured"]["suite_ref_s"] for s in ok]),
        "setup_s": statistics.median(setups),
        "verdicts_per_s": statistics.median([s["verdicts"] / s["measured"]["suite_ref_s"] for s in ok]),
        "peak_rss_mb": statistics.median([s["measured"]["peak_rss_mb"] for s in ok]),
    }, samples


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from one untraced and one traced sample's
    measurements; cells the workload does not run read 0."""
    metrics = {f"suites.{task}.{fid}.wall_s": 0.0 for task in CELL_TASKS.values() for fid in ALL_FUNCTIONS}
    metrics.update(traced["layers"])
    metrics["process.cpu_s"] = plain["cpu_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics


def per_layer(run_sample, trace_path: Path) -> tuple[dict, list[dict]]:
    plain = run_sample()
    traced = run_sample(trace_path)
    if plain["measured"] is None or traced["measured"] is None or "layers" not in traced["measured"]:
        return {}, [plain, traced]
    return layer_metrics(plain["measured"], traced["measured"]), [plain, traced]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "varpolar" / "__init__.py").is_file():
        print(f"error: no varpolar source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    resolution = workload.resolution_for(args.seed)
    reference = load_reference(args.workload, resolution)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.ini"
    write_config(config, workload, resolution)

    runner = Runner(work, deadline)
    load_before = os.getloadavg()
    warm = runner.child("--env")  # fills __pycache__ and the page cache; not measured

    def run_sample(trace: Path | None = None, probe: bool = False) -> dict:
        return sample(runner, config, workload, reference, trace, probe)

    if args.trace:
        metrics, samples = per_layer(run_sample, OUT / f"{tag}-spans.json")
    else:
        metrics, samples = end_to_end(runner, args.seconds, run_sample)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(len(s["failed"]) for s in samples)
    if not args.trace and metrics:
        metrics["cell_pass_ratio"] = 1.0 - failed / attempted

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "resolution": resolution,
        "resolution_2d": RESOLUTION_2D,
        "reference_found": reference is not None,
        "env": None if warm is None else warm.get("env"),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "samples": samples,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{tag}: resolution {resolution}, env {record['env']}, "
          f"load {load_before[0]:.2f} -> {record['loadavg_after'][0]:.2f}", file=sys.stderr)
    for s in samples:
        if s["failed"]:
            print(f"failed cells: {', '.join(s['failed'])}", file=sys.stderr)
        if reference is not None and s.get("report_sha256") not in (None, reference["report_sha256"]):
            print("note: report bytes differ from the reference (information only)", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
