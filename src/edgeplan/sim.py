"""Event-driven replay of autoregressive inference over a placement plan.

One query, n rounds. Each round pushes a single token through the layer
chain: a compute event per layer, a transfer event per consecutive layer
pair. The autoregressive dependency serializes everything, so the trace is
a single timeline and its completion time must reproduce the closed-form
objective (the central cross-check of the delay model).

The replay reads no delay table. It evaluates the scalar reference
functions compute_cp and compute_cm once per layer and per consecutive
layer pair, straight from the cluster and model specs, each hop's link
read by ClusterSpec.link from the view the table reads, and spreads each
n-round total over the n rounds. Agreement between its completion time
and a plan's objective therefore checks the table's arithmetic against an
independent evaluation of the delay model. It keeps no plan rule of its
own and checks none: it takes a plan delay.check_plan_feasible accepts,
as the delay table takes a valid instance. The `simulate` command runs
that checker before the replay, as `plan` runs it on every plan it
emits.

The trace is columnar: the 2L-1 steps of one round (duration, kind, layer,
resource) times n rounds, plus one float64 array with the end time of
every event. The ends are np.cumsum over the step durations tiled n times.
np.add.accumulate adds strictly left to right, and IEEE addition of the
same operands in the same order rounds the same way, so every end equals
the running sum `t += duration` of an event-by-event loop bit for bit.
Each event starts where the previous one ended, the first at 0.0.
trace_to_timeline returns the timeline file's text, one join over pieces
placed by slice assignment: one repr per end time, also the next row's
start, one label per round and one prefix per step. No per-event object
and no per-row string is built; SimTrace.events builds the SimEvent tuple
only when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .core import ProblemInstance
from .delay import DelayOptions, compute_cm, compute_cp

TIMELINE_HEADER = "round,kind,resource,start_s,end_s"


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
    """A replay timeline in columnar form: `steps`, the events of one round
    in order, run `rounds` times back to back from time 0.0; `ends`, the
    end time of each of the rounds * len(steps) events; and
    `completion_time`, the last end (0.0 with no event)."""

    def __init__(self, steps: tuple[SimStep, ...], rounds: int):
        durations = np.array([s.duration for s in steps], dtype=np.float64)
        self.steps, self.rounds = steps, rounds
        # accumulated in place: one n-event array, not a tile and its sum
        self.ends = np.tile(durations, rounds)
        np.cumsum(self.ends, out=self.ends)
        self.completion_time = float(self.ends[-1]) if self.ends.size else 0.0

    @cached_property
    def events(self) -> tuple[SimEvent, ...]:
        """One SimEvent per event, built from the columns on first access."""
        ends = self.ends.tolist()
        return tuple(
            SimEvent(start, end, s.kind, r, s.layer, s.resource)
            for (r, s), start, end in zip(
                product(range(1, self.rounds + 1), self.steps),
                [0.0, *ends[:-1]], ends))


def simulate(assignments, instance: ProblemInstance,
             options: DelayOptions = DelayOptions()) -> SimTrace:
    """Replay a plan that delay.check_plan_feasible accepts, as the
    delay table takes a valid instance; raises MemoryError when numpy
    cannot index its n * (2L - 1) events, as when they do not fit in
    memory."""
    cluster, model = instance.cluster, instance.model
    L = model.num_layers
    n = instance.tokens
    if n * (2 * L - 1) > np.iinfo(np.intp).max:
        raise MemoryError
    per_round = n or 1  # n = 0 replays no round
    steps = []
    for l, (i, b) in enumerate(assignments):
        layer = model.layers[l]
        total = compute_cp(layer, cluster.servers[i], b, n, options)
        steps.append(SimStep(total / per_round, "compute", l, f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            total = compute_cm(layer, cluster.link(i, j), b, n, model.batch_size,
                               model.embedding_size, options)
            steps.append(SimStep(total / per_round, "transfer", l, f"link:{i}->{j}"))
    return SimTrace(tuple(steps), n)


def trace_to_timeline(trace: SimTrace) -> str:
    """The timeline file's text: the header, then one CSV row per event in
    time order, each line ending in a newline."""
    ends = list(map(repr, trace.ends.tolist()))
    N, S = len(ends), len(trace.steps)
    if not N:
        return TIMELINE_HEADER + "\n"
    # the header, five pieces per row and the last newline; row q is
    # "\n<round>", ",<kind>,<resource>,", its start, "," and its end, at
    # 1 + 5q .. 5 + 5q, and its start is the end of row q - 1
    parts = [","] * (5 * N + 2)
    parts[0], parts[3], parts[-1] = TIMELINE_HEADER, "0.0", "\n"
    labels = [f"\n{r}" for r in range(1, trace.rounds + 1)]
    for k in range(S):
        parts[1 + 5 * k:-1:5 * S] = labels
    parts[2:-1:5] = [f",{s.kind},{s.resource}," for s in trace.steps] * trace.rounds
    parts[8:-1:5] = ends[:-1]
    parts[5:-1:5] = ends
    return "".join(parts)
