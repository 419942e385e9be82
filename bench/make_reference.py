"""Regenerate bench/reference.json: the per-cell verdict summary of every
workload at every 1-D resolution its seeds can draw, taken from the source
tree of this checkout.

    python3 bench/make_reference.py

Run it only at a commit whose verdicts are known good; the stored summaries
are what every benchmark run is checked against. It refuses to store a
configuration with hard disagreements.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work, deadline=time.monotonic() + 3600.0)
    config = work / "run.ini"
    refs: dict[str, dict] = {}
    for name, workload in run.WORKLOADS.items():
        for resolution in workload.resolution_family():
            run.write_config(config, workload, resolution)
            s = run.sample(runner, config, workload, reference=None)
            if s["failed"]:
                print(f"{name} @ {resolution}: failed cells {s['failed']}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(resolution)] = {
                k: s[k] for k in ("verdicts", "report_sha256", "cells")
            }
            print(f"{name} @ {resolution}: {s['verdicts']} verdicts, {s['measured']['wall_s']:.1f} s")
    (run.BENCH / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
