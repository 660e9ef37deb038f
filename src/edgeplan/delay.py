"""Closed-form delay model: per-layer compute delay, per-link transfer
delay, and total completion time of a placement.

Compute delay of running layer l on server i at b bits for n tokens:

    cp = n * (flops_l / throughput_i) * (b * p_l / original_precision_l)

Transfer delay of shipping layer l's output across a link for n rounds:

    cm = n * (payload_l * b / capacity + prop_delay)

The paper's formulas admit more than one reading, and DelayOptions is the
one record of which reading a run uses. Its to_doc/from_doc are the one
codec between that record and a plan's ``options`` block:

- cp_scaling: the b * p_l / original_precision scaling in cp is kept by
  default; "without_pl" drops the p_l factor (scaling b/original_precision)
  since its dimensional role is debatable.
- per_token_activation: the per-round payload defaults to batch_size *
  embedding_size elements (each autoregressive round moves one token's
  activation; the KV cache keeps earlier tokens resident). False uses the
  layer's declared output_size instead, the literal reading.
- storage: "compact" hosts a layer in core.storage_bytes, b * param_count
  / 8 bytes; "literal" multiplies that by the layer's output size.

compute_cp and compute_cm are the scalar reference. build_delay_table
runs each layer at the smallest width its filter kept (its docstring
shows no other width can win) and evaluates the same expressions, in the
same operation order, over arrays keyed by placement first,
cp[layer, server] and cm[layer, src, dst], as every solver and build_ilp
reads them. cm reads its capacity and propagation matrices from
ClusterSpec.link_view, as ClusterSpec.link does. Every finite entry
equals the scalar function bit for bit; math.inf is the one admissibility
mask. The replay simulator and brute force evaluate the scalar functions
directly, so they check the table. path_delay sums a plan's cp and cm,
from the table or from the scalar functions, and is the one pricer of
plans. check_plan_feasible states the table's rules over the raw specs,
reading no table, and is the one checker: the `plan` command runs it on
every plan it emits, `simulate` on every plan it reads, before the
replay, which takes a feasible plan.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (LayerProfile, LinkSpec, ProblemInstance, ServerSpec,
                   ValidationError, Violation, read_choice, read_fields,
                   storage_bytes)

# The largest plan total times this must be finite. Brute force, the DP
# and the plain search sum at most that total. The Lagrangian pass adds
# multipliers that nothing bounds a priori; its penalised sums, targets and
# steps stayed below 1.6 times the total on about 7,000 instances with the
# pass forced, so 4 leaves more than twice that.
_TOTAL_HEADROOM = 4.0


CP_SCALINGS = ("with_pl", "without_pl")
STORAGES = ("compact", "literal")


@dataclass(frozen=True)
class DelayOptions:
    """Which reading of the delay and storage formulas a run uses (see the
    module docstring). Its values are checked where they enter: by the
    CLI's choices for flags, by from_doc for a plan's options block."""
    cp_scaling: str = "with_pl"  # or "without_pl"
    per_token_activation: bool = True
    storage: str = "compact"  # or "literal"

    def bytes_needed(self, layer: LayerProfile, bits: int) -> float:
        """Storage a server needs to host the layer at the given width."""
        factor = layer.output_size if self.storage == "literal" else 1
        return storage_bytes(layer, bits) * factor

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: dict, where: str = "options", *path) -> "DelayOptions":
        """The record to_doc wrote; absent keys keep their defaults and other
        keys are ignored. A ParseError names ``where`` and ``path`` down to
        the field, as core.read_fields does."""
        return cls(*read_fields(doc, _FIELDS, where, *path))


# each field's reading, the one statement of the values it allows
_FIELDS = tuple((f.name, kind, f.default) for f, kind in zip(
    dataclasses.fields(DelayOptions), (read_choice(*CP_SCALINGS), bool, read_choice(*STORAGES))))


@dataclass(frozen=True, eq=False)
class DelayTable:
    """Delay coefficients of one instance, in seconds over all n rounds.

    widths[l] is the one width layer l runs at, the smallest it keeps
    (None if it keeps none). cp[l, i], shape (L, M), is layer l on server
    i at that width; cm[l, i, j], shape (L, M, M), ships layer l's output
    from server i to server j. math.inf marks an inadmissible entry: a
    layer without a width, in cp a storage overflow, in cm a missing link,
    the diagonal i == j among them (consecutive layers need distinct
    servers). ``options`` is the reading the table was built under.
    """
    widths: tuple[Optional[int], ...]
    cp: np.ndarray
    cm: np.ndarray
    options: DelayOptions

    def unplaceable_layer(self) -> Optional[int]:
        """The first layer with no admissible (server, width), its cp row
        all inf; None when every layer has one. No plan, relaxed or not,
        exists past such a layer."""
        empty = np.flatnonzero(np.isinf(self.cp).all(axis=1))
        return int(empty[0]) if empty.size else None


def compute_cp(layer: LayerProfile, server: ServerSpec, bits: int,
               tokens: int, options: DelayOptions = DelayOptions()) -> float:
    """Compute delay in seconds for all n autoregressive rounds, at a width
    of a validated instance: core.validate_instance owns the range."""
    return tokens * (layer.flops / server.compute_throughput) * _cp_scale(layer, bits, options)


def _cp_scale(layer: LayerProfile, bits: int, options: DelayOptions) -> float:
    scale = bits / layer.original_precision
    if options.cp_scaling == "with_pl":
        scale *= layer.output_size
    return scale


def round_payload_elements(layer: LayerProfile, batch: int, embedding: int,
                           options: DelayOptions = DelayOptions()) -> float:
    """Activation elements moved per round between consecutive layers."""
    if options.per_token_activation:
        return float(batch * embedding)
    return layer.output_size


def compute_cm(layer: LayerProfile, link: LinkSpec, bits: int,
               tokens: int, batch: int, embedding: int,
               options: DelayOptions = DelayOptions()) -> float:
    """Transfer delay in seconds for all n rounds over ``link``. Callers
    price only declared links at validated widths, as for compute_cp: the
    replay takes a plan check_plan_feasible accepts, so no missing hop, and
    brute force masks one first. build_delay_table does not call it; it is
    the independent check of the table's cm."""
    payload = round_payload_elements(layer, batch, embedding, options)
    return tokens * (payload * bits / link.capacity_bps + link.propagation_delay)


def build_delay_table(instance: ProblemInstance,
                      options: DelayOptions = DelayOptions()) -> DelayTable:
    """Evaluate cp and cm over every (layer, server) and link, each layer
    at widths[l], the smallest width its filter kept.

    No other width can win. cp, cm and the storage need are each b times
    non-negative factors in every DelayOptions reading, and IEEE *, / and
    + are monotone, so every entry is non-decreasing in b. Lowering a
    width thus only shrinks storage and leaves the link mask unchanged: a
    feasible plan stays feasible and its total does not rise. On a tie the
    lexicographic (server, bits) tie-break picks the smaller width. Brute
    force, which enumerates every width, checks this.

    The instance must be valid (core.validate_instance), as for the
    solvers, the plan checker and the replay. Per-layer factors come from
    the scalar helpers. Servers enter as a throughput vector. Links enter
    as the M x M capacity and propagation matrices of
    ClusterSpec.link_view, built once per cluster; cm is computed in one
    L x M x M buffer. The storage mask applies ``options.storage``. A
    delay beyond the float range raises ValidationError (DelayOverflow)
    rather than reading as the mask, and so does a largest plan total
    within a factor _TOTAL_HEADROOM of it: both are tested on results
    computed with overflow ignored, by finite maxima.
    """
    cluster, model = instance.cluster, instance.model
    n = float(instance.tokens)
    widths = tuple(min(fb, default=None) for fb in instance.feasible_bits)
    # a layer without a width is masked below; 0 only keeps its factors finite
    scale, payload_bits, need = np.array([
        (_cp_scale(layer, b, options), round_payload_elements(
            layer, model.batch_size, model.embedding_size, options) * b,
         options.bytes_needed(layer, b))
        for layer, b in zip(model.layers, (w or 0 for w in widths))],
        dtype=float).reshape(-1, 3).T
    has_width = np.array([w is not None for w in widths], dtype=bool)

    flops = np.array([layer.flops for layer in model.layers], dtype=float)
    throughput = np.array([s.compute_throughput for s in cluster.servers], dtype=float)
    capacity = np.array([s.storage_capacity for s in cluster.servers], dtype=float)
    # unlinked pairs get no finite capacity, so only a link's delay can
    # overflow; every link's capacity is finite and > 0, so bps == inf is
    # exactly the pairs without a link
    bps, prop = cluster.link_view
    # every factor and, before masking, every entry is >= 0, so an array's
    # maximum is finite exactly when it holds no inf or NaN; cm is
    # n * (payload / bps + prop), its IEEE operations done in place
    with np.errstate(over="ignore", invalid="ignore"):
        cp = n * (flops[:, None] / throughput[None, :]) * scale[:, None]
        cm = np.divide(payload_bits[:, None, None], bps[None])
        cm += prop
        cm *= n
        if not all(np.isfinite(a.max(initial=0.0)) for a in (scale, payload_bits, cp, cm)):
            raise _overflow("a compute or transfer delay")
    cp[~(has_width[:, None] & (need[:, None] <= capacity[None, :]))] = math.inf
    # a valid cluster links no server to itself, so this masks the diagonal
    # too: consecutive layers need distinct servers
    np.copyto(cm, math.inf, where=bps == math.inf)
    cm[~has_width] = math.inf

    # each layer's largest finite cp plus, below the last layer, its largest
    # finite cm: every entry can be finite while a plan's total is not
    with np.errstate(over="ignore"):
        largest = (cp.max(axis=1, where=cp < math.inf, initial=0.0).sum()
                   + cm[:-1].max(axis=(1, 2), where=cm[:-1] < math.inf, initial=0.0).sum())
        if not np.isfinite(largest * _TOTAL_HEADROOM):
            raise _overflow("the total delay of some plan")
    return DelayTable(widths=widths, cp=cp, cm=cm, options=options)


def _overflow(what: str) -> ValidationError:
    return ValidationError([Violation("DelayOverflow", f"{what} is beyond the float range")])


def path_delay(cp, cm, servers) -> tuple[float, float, float]:
    """(total, compute, comm) of a path, one server per layer.

    cp and cm are indexed as DelayTable stores them, cp[layer][server] and
    cm[layer][src][dst], as arrays or as nested lists; a masked entry makes
    the result inf. The one definition of the objective's sums: branch
    and bound, brute force and the Lagrangian witness all price through
    it. The last layer's output is shipped nowhere (client download is
    out of the model). It refuses nothing; check_plan_feasible does.
    """
    compute = 0.0
    comm = 0.0
    for l, i in enumerate(servers):
        compute += cp[l][i]
        if l + 1 < len(servers):
            comm += cm[l][i][servers[l + 1]]
    return compute + comm, compute, comm


def check_plan_feasible(assignments, instance: ProblemInstance,
                        options: DelayOptions = DelayOptions()) -> list[Violation]:
    """Constraint violations of an assignment sequence [(server, bits), ...],
    storage under ``options.storage`` for the widths a layer keeps (a
    width outside them is the one violation of its layer); each hop's link
    is one ClusterSpec.link lookup, None for a server outside 0..M-1. The
    `plan` and `simulate` commands both run it, `simulate` before the
    replay, which takes a plan with no violation."""
    out: list[Violation] = []
    L = instance.model.num_layers
    M = instance.cluster.num_servers
    if len(assignments) != L:
        out.append(Violation("WrongLength", f"{len(assignments)} assignments for {L} layers"))
        return out
    servers = [a[0] for a in assignments]
    if len(set(servers)) != len(servers):
        out.append(Violation("DuplicateServer", f"servers {servers} reuse a host"))
    for l, (i, b) in enumerate(assignments):
        if not (0 <= i < M):
            out.append(Violation("UnknownServer", f"layer {l} on server {i}"))
            continue
        if b not in instance.feasible_bits[l]:
            out.append(Violation("InfeasibleBits", f"layer {l} at {b} bits (allowed {instance.feasible_bits[l]})"))
            continue
        need = options.bytes_needed(instance.model.layers[l], b)
        cap = instance.cluster.servers[i].storage_capacity
        if need > cap:
            out.append(Violation("StorageOverflow", f"layer {l} needs {need} B, server {i} has {cap} B"))
    for l in range(L - 1):
        i, j = assignments[l][0], assignments[l + 1][0]
        if i != j and instance.cluster.link(i, j) is None:
            out.append(Violation("MissingLink", f"layers {l}->{l + 1} need link {i}->{j}"))
    return out
