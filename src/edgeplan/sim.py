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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemInstance
from .delay import DelayOptions, compute_cm, compute_cp


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
class SimTrace:
    events: tuple[SimEvent, ...]
    completion_time: float


def simulate(assignments, instance: ProblemInstance,
             options: DelayOptions = DelayOptions()) -> SimTrace:
    """Replay the plan; raises InfeasiblePlan on unknown servers, bits
    outside a layer's feasible set, or missing links."""
    cluster, model = instance.cluster, instance.model
    L = model.num_layers
    n = instance.tokens
    if len(assignments) != L:
        raise InfeasiblePlan(f"{len(assignments)} assignments for {L} layers")
    steps = []  # (n-round total, kind, layer, resource) in replay order
    for l, (i, b) in enumerate(assignments):
        if not 0 <= i < cluster.num_servers:
            raise InfeasiblePlan(f"layer {l}: unknown server {i}")
        if b not in instance.feasible_bits[l]:
            raise InfeasiblePlan(f"layer {l}: {b} bits outside the feasible set "
                                 f"{instance.feasible_bits[l]}")
        layer = model.layers[l]
        steps.append((compute_cp(layer, cluster.servers[i], b, n, options),
                      "compute", l, f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            link = cluster.link(i, j)
            if i != j and link is None:
                raise InfeasiblePlan(f"no link {i}->{j} for layers {l}->{l + 1}")
            steps.append((compute_cm(layer, link, b, n, model.batch_size,
                                     model.embedding_size, options,
                                     same_server=i == j),
                           "transfer", l, f"link:{i}->{j}"))
    events: list[SimEvent] = []
    t = 0.0
    for r in range(1, n + 1):
        for total, kind, l, resource in steps:
            dur = total / n
            events.append(SimEvent(t, t + dur, kind, r, l, resource))
            t += dur
    return SimTrace(events=tuple(events), completion_time=t)


def trace_to_timeline(trace: SimTrace) -> list[str]:
    """CSV rows (header included), one per event, in time order."""
    rows = ["round,kind,resource,start_s,end_s"]
    for e in trace.events:
        rows.append(f"{e.round},{e.kind},{e.resource},{e.start!r},{e.end!r}")
    return rows
