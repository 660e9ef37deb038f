"""Spans and exact counters around calls into edgeplan's modules.

The tracer replaces, while installed, the names that ``edgeplan.cli``
calls and the module attributes it looks up at call time. Nothing under
``src/`` changes. Spans are kept in memory and written out when the run
ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import edgeplan.cli
import edgeplan.gen
import edgeplan.ilp
import edgeplan.quant


def _count_table(t, args, r):
    t.counters["delay.table_entries"] += len(r.cp) + len(r.cm)


def _count_bnb(t, args, r):
    t.counters["solver.bnb.leaves"] += r.nodes_explored
    t.counters["solver.bnb.budget_exceeded"] += r.status == "budget_exceeded"
    if r.plan is not None and r.objective > 0:
        t.root_gaps.append((r.objective - r.lower_bound_at_root) / r.objective)


def _count_ilp(t, args, r):
    t.counters["ilp.rows"] += len(r.constraints)
    t.counters["ilp.cols"] += len(r.binaries)


def _count_lp(t, args, r):
    t.counters["ilp.lp_bytes"] += len(r.encode())


def _count_sim(t, args, r):
    t.counters["sim.events"] += len(r.events)


def _count_filter(t, args, r):
    t.counters["quant.elements"] += args[0].values.size
    t.counters["quant.bits_kept"] += len(r)
    t.counters["quant.bits_tested"] += len(set(args[1]))


def _count_analyze(t, args, r):
    t.counters["quant.elements"] += args[0].values.size


# (module, attribute, span name, counter). The first block is what
# edgeplan.cli binds at import; the rest is looked up at call time. Counters
# run after the span closes, so they add no time to it.
TARGETS = (
    (edgeplan.cli, "load_instance", "core.load_instance", None),
    (edgeplan.cli, "build_delay_table", "delay.build_table", _count_table),
    (edgeplan.cli, "solve_branch_and_bound", "solver.bnb", _count_bnb),
    (edgeplan.cli, "check_plan_feasible", "ilp.check_plan", None),
    (edgeplan.cli, "build_ilp", "ilp.build", _count_ilp),
    (edgeplan.cli, "simulate", "sim.simulate", _count_sim),
    (edgeplan.cli, "trace_to_timeline", "sim.timeline", None),
    (edgeplan.cli, "analyze_tensor", "quant.analyze_tensor", _count_analyze),
    (edgeplan.cli, "load_weight_tensor", "quant.load_tensor", None),
    (edgeplan.cli, "input_digest", "cli.digest", None),
    (edgeplan.quant, "feasible_bits", "quant.feasible_bits", _count_filter),
    (edgeplan.quant, "distribution_stats", "quant.distribution_stats", None),
    (edgeplan.ilp, "write_lp", "ilp.write_lp", _count_lp),
    (edgeplan.gen, "generate_instance", "gen.instance", None),
)

# Counters that must repeat exactly for the same inputs and code.
EXACT_COUNTERS = ("delay.table_entries", "solver.bnb.leaves",
                  "solver.bnb.budget_exceeded", "ilp.rows", "ilp.cols",
                  "ilp.lp_bytes", "sim.events", "quant.elements")


class Tracer:
    """Records spans (name, start, end, parent, call id) and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.root_gaps: list[float] = []
        self.call_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "call": self.call_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, call_id: str, name: str):
        """Context manager for one CLI call: a new call id and its span."""
        tracer = self

        class _Call:
            def __enter__(self):
                tracer.call_id = call_id
                self.span = tracer._open(name)

            def __exit__(self, *exc):
                tracer._close(self.span)
                tracer.call_id = None
        return _Call()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self, args, result)
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def layer_times(spans: list[dict], calls: dict) -> dict[str, float]:
    """Busy seconds per span name over the calls given as {call id: speed
    factor}, plus cli.self: each command span minus the spans directly
    under it."""
    busy: Counter = Counter()
    children: Counter = Counter()
    commands = {}
    for s in spans:
        if s["call"] not in calls:
            continue
        dur = (s["end"] - s["start"]) * calls[s["call"]]
        busy[s["name"]] += dur
        if s["parent"] is None:
            commands[s["id"]] = dur
        else:
            children[s["parent"]] += dur
    busy["cli.self"] = sum(dur - children[i] for i, dur in commands.items())
    return dict(busy)


def span_counts(spans: list[dict], calls: set) -> Counter:
    return Counter(s["name"] for s in spans if s["call"] in calls)
