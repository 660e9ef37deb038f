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
- storage: "compact" hosts a layer in b * param_count / 8 bytes; "literal"
  multiplies that by the layer's output size (see core.storage_bytes).

compute_cp and compute_cm are the scalar reference. build_delay_table
evaluates the same expressions, in the same operation order, over whole
arrays: cp[M, L, B] and cm[L, M, M, B], with the bit axis indexed by
position in the instance's bit menu. Every finite entry equals the scalar
function bit for bit; math.inf is the one admissibility mask the solvers
and build_ilp read. The replay simulator evaluates the scalar
functions directly, so it checks the table rather than re-reading it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

# InvalidBits is what compute_cp and compute_cm raise, importable from here
from .core import (InvalidBits, LayerProfile, LinkSpec, ProblemInstance,
                   ServerSpec, ValidationError, Violation, check_bits,
                   storage_bytes)


class NoLink(ValueError):
    """Distinct servers with no declared link between them."""


class InfeasibleEdge(ValueError):
    """A plan routes consecutive layers over a missing link."""


class Inadmissible(ValueError):
    """A plan places a layer at a (server, bits) the table masks out."""


@dataclass(frozen=True)
class DelayOptions:
    """Which reading of the delay and storage formulas a run uses (see the
    module docstring). ValueError on a value of the wrong type or kind."""
    cp_scaling: str = "with_pl"  # or "without_pl"
    per_token_activation: bool = True
    storage: str = "compact"  # or "literal"

    def __post_init__(self):
        if self.cp_scaling not in ("with_pl", "without_pl"):
            raise ValueError(f"cp_scaling {self.cp_scaling!r}: not 'with_pl' or 'without_pl'")
        if type(self.per_token_activation) is not bool:
            raise ValueError(f"per_token_activation {self.per_token_activation!r}: not a bool")
        if self.storage not in ("compact", "literal"):
            raise ValueError(f"storage {self.storage!r}: not 'compact' or 'literal'")

    def bytes_needed(self, layer: LayerProfile, bits: int) -> float:
        """Storage a server needs to host the layer at the given width."""
        return storage_bytes(layer, bits, literal_output_factor=self.storage == "literal")

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "DelayOptions":
        """The record to_doc wrote; absent keys keep their defaults and other
        keys are ignored."""
        return cls(**{f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name in doc})


@dataclass(frozen=True, eq=False)
class DelayTable:
    """Delay coefficients of one instance, in seconds over all n rounds.

    cp[i, l, k] is layer l on server i at bit_menu[k] bits; cm[l, i, j, k]
    ships layer l's output from server i to server j at bit_menu[k] bits,
    exactly 0.0 on the diagonal. math.inf marks an inadmissible entry: in
    cp a width outside the layer's feasible set or a layer that overflows
    the server's storage; in cm a missing link or an infeasible width.
    """
    cp: np.ndarray
    cm: np.ndarray
    bit_menu: tuple[int, ...]

    def bit_index(self, bits: int) -> int:
        """Position of a bit-width on the bit axis; Inadmissible if absent."""
        try:
            return self.bit_menu.index(bits)
        except ValueError:
            raise Inadmissible(f"{bits} bits not in menu {self.bit_menu}") from None


def compute_cp(layer: LayerProfile, server: ServerSpec, bits: int,
               tokens: int, options: DelayOptions = DelayOptions()) -> float:
    """Compute delay in seconds for all n autoregressive rounds."""
    check_bits(bits)
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


def compute_cm(layer: LayerProfile, link: LinkSpec | None, bits: int,
               tokens: int, batch: int, embedding: int,
               options: DelayOptions = DelayOptions(), *,
               same_server: bool = False) -> float:
    """Transfer delay in seconds for all n rounds; 0 on a self-link.

    ``link=None`` with distinct servers raises NoLink; the table builder
    converts that case to an infinity sentinel instead.
    """
    check_bits(bits)
    if same_server:
        return 0.0
    if link is None:
        raise NoLink("no link between the requested servers")
    payload = round_payload_elements(layer, batch, embedding, options)
    return tokens * (payload * bits / link.capacity_bps + link.propagation_delay)


def build_delay_table(instance: ProblemInstance,
                      options: DelayOptions = DelayOptions()) -> DelayTable:
    """Evaluate cp and cm over every (server, layer, bits) and link.

    Per-(layer, bits) factors come from the scalar helpers; servers and
    links enter as a throughput vector and M x M capacity/propagation
    matrices filled once from the link list. The storage mask applies
    ``options.storage``. A delay beyond the float range raises
    ValidationError (DelayOverflow) rather than reading as the mask.
    """
    cluster, model = instance.cluster, instance.model
    menu = instance.bit_menu
    M, L, B = cluster.num_servers, model.num_layers, len(menu)
    try:
        n = float(instance.tokens)
    except OverflowError:
        raise ValidationError([Violation(
            "DelayOverflow", "tokens beyond the float range")]) from None
    for b in {b for fb in instance.feasible_bits for b in fb}:
        check_bits(b)

    def per_layer_bits(f):
        return np.array([[f(layer, b) for b in menu] for layer in model.layers],
                        dtype=float).reshape(L, B)

    feasible = np.array([[b in fb for b in menu] for fb in instance.feasible_bits],
                        dtype=bool).reshape(L, B)
    scale = per_layer_bits(lambda layer, b: _cp_scale(layer, b, options))
    payload_bits = per_layer_bits(lambda layer, b: round_payload_elements(
        layer, model.batch_size, model.embedding_size, options) * b)
    need = per_layer_bits(options.bytes_needed)

    flops = np.array([layer.flops for layer in model.layers], dtype=float)
    throughput = np.array([s.compute_throughput for s in cluster.servers], dtype=float)
    capacity = np.array([s.storage_capacity for s in cluster.servers], dtype=float)
    linked = np.zeros((M, M), dtype=bool)
    # unlinked pairs get no finite capacity, so only a link's delay can overflow
    bps = np.full((M, M), math.inf)
    prop = np.zeros((M, M))
    for lk in cluster.links:
        linked[lk.src, lk.dst] = True
        bps[lk.src, lk.dst] = lk.capacity_bps
        prop[lk.src, lk.dst] = lk.propagation_delay
    with np.errstate(over="raise"):
        try:
            cp = n * (flops[None, :] / throughput[:, None])[:, :, None] * scale[None, :, :]
            cm = n * (payload_bits[:, None, None, :] / bps[None, :, :, None]
                      + prop[None, :, :, None])
        except FloatingPointError:
            raise ValidationError([Violation(
                "DelayOverflow", "a compute or transfer delay is beyond the "
                "float range")]) from None
    admissible = feasible[None, :, :] & (need[None, :, :] <= capacity[:, None, None])
    cp[~admissible] = math.inf

    cm[:, ~linked] = math.inf
    diag = np.arange(M)
    cm[:, diag, diag] = 0.0
    cm = np.where(feasible[:, None, None, :], cm, math.inf)
    return DelayTable(cp=cp, cm=cm, bit_menu=menu)


def path_delay(cp_rows, cm, path) -> tuple[float, float, float]:
    """(total, compute, comm) of a path of (server, bit position) pairs.

    cp_rows is indexed [layer][server][k] and cm [layer][src][dst][k],
    as arrays or as nested lists; a masked entry makes the result inf.
    The one definition of the objective's sums: evaluate_plan and brute
    force both price through it.
    """
    compute = 0.0
    comm = 0.0
    for l, (i, k) in enumerate(path):
        compute += cp_rows[l][i][k]
        if l + 1 < len(path):
            comm += cm[l][i][path[l + 1][0]][k]
    return compute + comm, compute, comm


def evaluate_plan(assignments, table: DelayTable) -> tuple[float, float, float]:
    """Total completion time of an assignment sequence [(server, bits), ...].

    Returns (total, compute_part, comm_part). The final layer's output is
    not shipped anywhere (client download is out of the model). Raises
    InfeasibleEdge when consecutive layers sit on servers with no link and
    Inadmissible when a layer sits where the table's mask forbids it.
    """
    M = table.cp.shape[0]
    if any(not 0 <= server < M for server, _ in assignments):
        raise Inadmissible(f"assignments {assignments} name an unknown server")
    path = [(server, table.bit_index(bits)) for server, bits in assignments]
    total, compute, comm = path_delay(table.cp.transpose(1, 0, 2), table.cm, path)
    if math.isinf(total):
        for l, (i, k) in enumerate(path):
            if math.isinf(table.cp[i, l, k]):
                raise Inadmissible(f"layer {l} cannot run on server {i} "
                                   f"at {table.bit_menu[k]} bits")
            if l + 1 < len(path) and math.isinf(table.cm[l, i, path[l + 1][0], k]):
                raise InfeasibleEdge(f"no link {i}->{path[l + 1][0]} "
                                     f"for layers {l}->{l + 1}")
    return float(total), float(compute), float(comm)


def cp_table_csv(table: DelayTable) -> str:
    """Debug export of the admissible compute-delay entries."""
    lines = ["server,layer,bits,cp_seconds"]
    for i, l, k in zip(*np.nonzero(np.isfinite(table.cp))):
        lines.append(f"{i},{l},{table.bit_menu[k]},{float(table.cp[i, l, k])!r}")
    return "\n".join(lines) + "\n"
