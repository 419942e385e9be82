"""Layer tracing applied from outside the package.

The tracer replaces every public function of the eight varpolar modules with
a timing wrapper, in every module that holds a binding to it: ``from .x
import f`` copies the binding, so patching only the defining module would
miss callers such as ``varpolar.minty.lower_dini_values`` or
``varpolar.cli.run_suites``. ``FunctionOracle.values`` is wrapped on the
class and each library entry's ``exact_subdifferential`` on the entry.

Every wrapped call adds to per-name aggregates (calls, inclusive time, self
time = inclusive time minus the time of wrapped calls made inside it). Calls
that are not leaves also become spans (id, name, start, end, parent id), kept
in memory and written out by :meth:`Tracer.write`. The three leaves below are
called up to ~10^6 times per run, so they are aggregated only.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

MODULES = ("core", "library", "subderivative", "subdifferential", "minty", "polar", "suites", "cli")
LEAVES = frozenset({"core.values", "core.as_point", "library.exact_subdifferential"})

#: Work counts kept besides calls and self time.
COUNTS = (
    "core.values.points",
    "subderivative.clarke_directional_values.points",
    "subdifferential.sample_subdiff_graph.pairs",
    "subdifferential.epsilon_enlargement.offered",
    "subdifferential.epsilon_enlargement.kept",
    "cli.report_bytes",
)

#: suites function -> task name used in the per-cell metrics
CELL_TASKS = {
    "equivalence_report": "equivalence",
    "thm3_suite": "thm3",
    "cdd_suite": "cdd",
    "predicates_suite": "predicates",
}


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.cells: dict[str, float] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [child seconds, span id] per active call
        self._next_id = 0

    def wrap(self, name: str, fn, on_return=None):
        """Timing wrapper for ``fn``. ``on_return(args, result, seconds)`` adds
        work counts after each successful call."""
        leaf = name in LEAVES
        stack = self._stack
        self.calls.setdefault(name, 0)  # never-called functions report 0
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_id = stack[-1][1] if stack else -1
            if leaf:
                span_id = parent_id
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[0]
                if not leaf:
                    self.spans.append((span_id, name, start - self.t0, end - self.t0, parent_id))
            if on_return is not None:
                on_return(args, result, dur)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s modules in place."""
        mods = {short: getattr(package, short) for short in MODULES}
        entries = mods["library"].test_library()
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj, self._hook(short, attr))
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

        oracle = mods["core"].FunctionOracle
        oracle.values = self.wrap("core.values", oracle.values, self._count_values)
        for entry in entries:
            if entry.exact_subdifferential is not None:
                # FunctionOracle is a frozen dataclass.
                object.__setattr__(
                    entry,
                    "exact_subdifferential",
                    self.wrap("library.exact_subdifferential", entry.exact_subdifferential),
                )

    def _hook(self, short: str, attr: str):
        """Work counter for the few functions whose metrics need more than
        calls and self time."""
        name = f"{short}.{attr}"
        counts = self.counts
        if short == "suites" and attr in CELL_TASKS:
            task = CELL_TASKS[attr]

            def cell(args, result, dur):
                key = f"{task}.{args[0]}"
                self.cells[key] = self.cells.get(key, 0.0) + dur

            return cell
        if name == "subderivative.clarke_directional_values":

            def base_points(args, result, dur):
                counts[f"{name}.points"] += len(result[0])

            return base_points
        if name == "subdifferential.sample_subdiff_graph":

            def pairs(args, result, dur):
                counts[f"{name}.pairs"] += len(result)

            return pairs
        if name == "subdifferential.epsilon_enlargement":

            def kept(args, result, dur):
                counts[f"{name}.offered"] += len(args[0])
                counts[f"{name}.kept"] += len(result)

            return kept
        if name == "cli.write_reports":

            def report_bytes(args, result, dur):
                counts["cli.report_bytes"] += sum(p.stat().st_size for p in result if p.name == "report.json")

            return report_bytes
        return None

    def _count_values(self, args, result, dur) -> None:
        self.counts["core.values.points"] += len(result)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<name>.calls`` and ``<name>.self_s`` for
        every wrapped name, the work counts, and derived ratios."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        values_calls = self.calls.get("core.values", 0)
        out["core.values.points_per_call"] = (
            self.counts.get("core.values.points", 0.0) / values_calls if values_calls else 0.0
        )
        offered = self.counts.get("subdifferential.epsilon_enlargement.offered", 0.0)
        out["subdifferential.epsilon_enlargement.kept_ratio"] = (
            self.counts.get("subdifferential.epsilon_enlargement.kept", 0.0) / offered if offered else 0.0
        )
        for cell, seconds in self.cells.items():
            out[f"suites.{cell}.wall_s"] = seconds
        return out

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "names": names,
            "spans": [[i, index[n], round(a, 7), round(b, 7), p] for i, n, a, b, p in self.spans],
            "aggregates": {
                n: {"calls": self.calls[n], "total_s": self.total_s[n], "self_s": self.self_s[n]}
                for n in sorted(self.calls)
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
