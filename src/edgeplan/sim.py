"""Replay of autoregressive inference over a placement plan.

One query, n rounds. Each round pushes a single token through the layer
chain: a compute event per layer, a transfer event per consecutive layer
pair. The autoregressive dependency serializes everything, and every
round repeats the same 2L-1 step durations, so one round and the round
count describe the whole replay. Its completion time must equal the
plan's objective bit for bit (the central cross-check of the delay model).

The replay reads no delay table. It evaluates the scalar reference
functions compute_cp and compute_cm once per layer and per consecutive
layer pair, straight from the cluster and model specs, each hop's link
read by ClusterSpec.link from the view the table reads. The completion
time sums those n-token totals in delay.path_delay's order: the computes,
then the transfers, then their sum. Its exact agreement with a plan's
objective therefore checks the table's arithmetic against an independent
evaluation of the delay model. It keeps no plan rule of its own and
checks none: it takes a plan delay.check_plan_feasible accepts, as the
delay table takes a valid instance. The `simulate` command runs that
checker before the replay, as `plan` runs it on every plan it emits.

The trace lists round 1: each step's total spread evenly over the n
rounds, each event starting where the previous one ended, the first at
0.0. With n = 0 there is no round and no event.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemInstance
from .delay import DelayOptions, compute_cm, compute_cp

TIMELINE_HEADER = "round,kind,resource,start_s,end_s"


@dataclass(frozen=True)
class SimEvent:
    start: float
    end: float
    kind: str  # "compute" or "transfer"
    resource: str  # "server:<i>" or "link:<i>-><j>"


@dataclass(frozen=True)
class SimTrace:
    """A replay: `events`, round 1's events in time order; `rounds`, the
    round count n; and `completion_time`, the n rounds' total."""
    events: tuple[SimEvent, ...]
    rounds: int
    completion_time: float

    @property
    def round_time(self) -> float:
        """The end of one round, 0.0 with no event."""
        return self.events[-1].end if self.events else 0.0


def simulate(assignments, instance: ProblemInstance,
             options: DelayOptions = DelayOptions()) -> SimTrace:
    """Replay a plan that delay.check_plan_feasible accepts, as the
    delay table takes a valid instance."""
    cluster, model = instance.cluster, instance.model
    L = model.num_layers
    n = instance.tokens
    steps = []  # (n-token total, kind, resource) in time order
    compute = comm = 0.0
    for l, (i, b) in enumerate(assignments):
        layer = model.layers[l]
        total = compute_cp(layer, cluster.servers[i], b, n, options)
        compute += total
        steps.append((total, "compute", f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            total = compute_cm(layer, cluster.link(i, j), b, n, model.batch_size,
                               model.embedding_size, options)
            comm += total
            steps.append((total, "transfer", f"link:{i}->{j}"))
    events = []
    t = 0.0
    for total, kind, resource in steps if n else ():  # n = 0 replays no round
        end = t + total / n
        events.append(SimEvent(t, end, kind, resource))
        t = end
    return SimTrace(tuple(events), n, compute + comm)


def trace_to_timeline(trace: SimTrace) -> str:
    """The timeline file's text: the header, then one CSV row per event of
    round 1 in time order, each line ending in a newline."""
    rows = [TIMELINE_HEADER]
    rows += [f"1,{e.kind},{e.resource},{e.start!r},{e.end!r}" for e in trace.events]
    return "\n".join(rows) + "\n"
