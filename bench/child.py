"""One measured process: import varpolar from a given source tree, optionally
run ``varpolar suite`` on a config file through ``varpolar.cli.main``, and
write the measurements as JSON.

run.py starts this script in a fresh interpreter for every sample, so that
each sample pays its own import and has its own peak memory. Besides wall
times it records the CPU time of the import and of the suite call, and the
``time.monotonic`` interval of each, so that run.py can scale them by the
core-speed probe (bench/probe.py) that ran beside it.

    python3 bench/child.py --src SRC --result OUT.json [--config RUN.ini]
                           [--trace SPANS.json] [--env]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--config")
    ap.add_argument("--trace")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    m0, c0, t0 = time.monotonic(), time.process_time(), time.perf_counter()
    import varpolar.cli

    setup_s = time.perf_counter() - t0
    setup_cpu_s = time.process_time() - c0
    setup_window = (m0, time.monotonic())
    import varpolar

    if not Path(varpolar.__file__).resolve().is_relative_to(src):
        print(f"varpolar imported from {varpolar.__file__}, not from {src}", file=sys.stderr)
        return 3

    result: dict = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "setup_window": setup_window}
    if args.env:
        result["env"] = environment()
    if args.config:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(varpolar)
        error = None
        m1, c1, t1 = time.monotonic(), time.process_time(), time.perf_counter()
        try:
            rc = varpolar.cli.main(["suite", "--config", args.config])
        except Exception:  # reported as failed cells by run.py
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            rc = None
        wall_s = time.perf_counter() - t1
        cpu_s = time.process_time() - c1
        suite_window = (m1, time.monotonic())
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            suite_window=suite_window,
            exit_code=rc,
            error=error,
            peak_rss_mb=ru.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
