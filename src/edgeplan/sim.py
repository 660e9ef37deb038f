"""Event-driven replay of autoregressive inference over a placement plan.

One query, n rounds. Each round pushes a single token through the layer
chain: a compute event per layer, a transfer event per consecutive layer
pair. The autoregressive dependency serializes everything, so the trace is
a single timeline and its completion time must reproduce the closed-form
objective (the central cross-check of the delay model).

The replay reads no delay table. It evaluates the scalar reference
functions compute_cp and compute_cm once per layer and per consecutive
layer pair, straight from the cluster and model specs, and spreads each
n-round total evenly over the n rounds. Agreement between its completion
time and a plan's objective therefore checks the vectorised table the
solvers read against an independent evaluation of the delay model.

The trace is columnar: the 2L-1 steps of one round (duration, kind, layer,
resource) times n rounds, plus one float64 array with the end time of
every event. The ends are np.cumsum over the step durations tiled n times.
np.add.accumulate adds strictly left to right, and IEEE addition of the
same operands in the same order rounds the same way, so every end equals
the running sum `t += duration` of an event-by-event loop bit for bit.
Each event starts where the previous one ended, the first at 0.0.
trace_to_timeline formats one prefix per step and one repr per end time,
so `simulate` and the timeline build no per-event objects; SimTrace.events
builds the SimEvent tuple only when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

import numpy as np

from .core import ProblemInstance
from .delay import DelayOptions, compute_cm, compute_cp

TIMELINE_HEADER = "round,kind,resource,start_s,end_s"


class InfeasiblePlan(ValueError):
    pass


@dataclass(frozen=True)
class SimEvent:
    start: float
    end: float
    kind: str  # "compute" or "transfer"
    round: int  # 1-based
    layer: int
    resource: str  # "server:<i>" or "link:<i>-><j>"


@dataclass(frozen=True)
class SimStep:
    """One event of every round: its n-round total spread over n rounds."""
    duration: float
    kind: str
    layer: int
    resource: str


class SimTrace:
    """A replay timeline.

    `simulate` returns the columnar form: `steps`, the events of one round
    in order; `rounds`, the number of rounds; and `ends`, the end time of
    each of the rounds * len(steps) events. SimTrace(events, completion_time)
    wraps events built one by one instead; its `steps` is None.
    """

    def __init__(self, events: Iterable[SimEvent], completion_time: float):
        self._events: Optional[tuple[SimEvent, ...]] = tuple(events)
        self.completion_time = completion_time
        self.steps: Optional[tuple[SimStep, ...]] = None
        self.rounds = 0
        self.ends = np.array([e.end for e in self._events], dtype=np.float64)

    @classmethod
    def from_steps(cls, steps: tuple[SimStep, ...], rounds: int) -> "SimTrace":
        """`rounds` rounds of `steps`, back to back from time 0.0."""
        durations = np.array([s.duration for s in steps], dtype=np.float64)
        trace = cls.__new__(cls)
        trace._events = None
        trace.steps, trace.rounds = steps, rounds
        trace.ends = np.cumsum(np.tile(durations, rounds))
        trace.completion_time = float(trace.ends[-1]) if trace.ends.size else 0.0
        return trace

    @property
    def events(self) -> tuple[SimEvent, ...]:
        """One SimEvent per event, built from the columns on first access."""
        if self._events is None:
            ends = self.ends.tolist()
            self._events = tuple(
                SimEvent(start, end, s.kind, r, s.layer, s.resource)
                for (r, s), start, end in zip(
                    product(range(1, self.rounds + 1), self.steps),
                    [0.0, *ends[:-1]], ends))
        return self._events


def simulate(assignments, instance: ProblemInstance,
             options: DelayOptions = DelayOptions()) -> SimTrace:
    """Replay the plan; raises InfeasiblePlan on unknown servers, bits
    outside a layer's feasible set, or missing links."""
    cluster, model = instance.cluster, instance.model
    L = model.num_layers
    n = instance.tokens
    if len(assignments) != L:
        raise InfeasiblePlan(f"{len(assignments)} assignments for {L} layers")
    per_round = n or 1  # n = 0 replays no round
    steps = []
    for l, (i, b) in enumerate(assignments):
        if not 0 <= i < cluster.num_servers:
            raise InfeasiblePlan(f"layer {l}: unknown server {i}")
        if b not in instance.feasible_bits[l]:
            raise InfeasiblePlan(f"layer {l}: {b} bits outside the feasible set "
                                 f"{instance.feasible_bits[l]}")
        layer = model.layers[l]
        total = compute_cp(layer, cluster.servers[i], b, n, options)
        steps.append(SimStep(total / per_round, "compute", l, f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            link = cluster.link(i, j)
            if i != j and link is None:
                raise InfeasiblePlan(f"no link {i}->{j} for layers {l}->{l + 1}")
            total = compute_cm(layer, link, b, n, model.batch_size,
                               model.embedding_size, options, same_server=i == j)
            steps.append(SimStep(total / per_round, "transfer", l, f"link:{i}->{j}"))
    return SimTrace.from_steps(tuple(steps), n)


def trace_to_timeline(trace: SimTrace) -> list[str]:
    """CSV rows (header included), one per event, in time order."""
    rows = [TIMELINE_HEADER]
    if trace.steps is None:  # events given one by one
        rows += [f"{e.round},{e.kind},{e.resource},{e.start!r},{e.end!r}"
                 for e in trace.events]
        return rows
    ends = list(map(repr, trace.ends.tolist()))
    prefixes = [f",{s.kind},{s.resource}," for s in trace.steps]
    labels = [r + p for r in map(str, range(1, trace.rounds + 1)) for p in prefixes]
    rows += [label + start + "," + end
             for label, start, end in zip(labels, ["0.0", *ends[:-1]], ends)]
    return rows
