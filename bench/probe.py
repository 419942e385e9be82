"""Core-speed probe: repeats a fixed numpy kernel, which does not use
varpolar, on the same CPU core as a measured child, and records how much CPU
time each repetition took.

The cores of a small shared virtual machine run at a speed that changes
within a second: a neighbour on the host can halve it. The probe and the
child are pinned to one core, the probe at low priority, and take turns on
it every few milliseconds, so they see the same slow and fast spells. run.py
scales the child's CPU time by the probe's mean kernel time over the same
interval (bench/README.md, "Timing on a shared machine").

    python3 bench/probe.py RECORD.json

It prints ``ready`` once warmed up, runs until SIGTERM, then writes a JSON
list of ``[start, end, cpu_s]`` per repetition (``time.monotonic`` seconds,
comparable across processes) and exits.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

_rng = np.random.default_rng(12345)
_POINTS = _rng.standard_normal((1_000, 2))
_TILT = np.array([0.3, -0.2])


def kernel() -> float:
    """Elementwise evaluation over small arrays: the kind of numpy work whose
    slow-down tracked the suite's most closely. Its data (about 50 KB) is
    cheap to bring back into the core's caches after the suite's turn."""
    s = 0.0
    for i in range(40):
        d = _POINTS * (1.0 + i * 1e-3)
        v = np.abs(d[:, 0]) + np.maximum(d[:, 1], 0.0) ** 2 - d @ _TILT
        s += float(v.min())
    return s


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    for _ in range(20):
        kernel()
    print("ready", flush=True)
    record = []
    while not stop:
        t, c = time.monotonic(), time.process_time()
        kernel()
        record.append((t, time.monotonic(), time.process_time() - c))
    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
