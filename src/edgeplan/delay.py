"""Closed-form delay model: per-layer compute delay, per-link transfer
delay, and total completion time of a placement.

Compute delay of running layer l on server i at b bits for n tokens:

    cp = n * (flops_l / throughput_i) * (b * p_l / original_precision_l)

Transfer delay of shipping layer l's output across a link for n rounds:

    cm = n * (payload_l * b / capacity + prop_delay)

where the per-round payload defaults to batch_size * embedding_size
elements (each autoregressive round moves one token's activation; the KV
cache keeps earlier tokens resident). Setting per_token_activation=False
uses the layer's declared output_size instead, the literal reading.

The b * p_l / original_precision scaling in cp is kept by default;
cp_scaling="without_pl" drops the p_l factor (scaling b/original_precision)
since its dimensional role is debatable.

compute_cp and compute_cm are the scalar reference. build_delay_table
evaluates the same expressions, in the same operation order, over whole
arrays: cp[M, L, B] and cm[L, M, M, B], with the bit axis indexed by
position in the instance's bit menu. Every finite entry equals the scalar
function bit for bit; math.inf is the one admissibility mask the solvers
and build_ilp read. The replay simulator evaluates the scalar
functions directly, so it checks the table rather than re-reading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_BITS, MIN_BITS, LayerProfile, LinkSpec, ProblemInstance,
                   ServerSpec, storage_bytes)


class InvalidBits(ValueError):
    """Bit-width outside the supported [core.MIN_BITS, core.MAX_BITS] range."""


class NoLink(ValueError):
    """Distinct servers with no declared link between them."""


class InfeasibleEdge(ValueError):
    """A plan routes consecutive layers over a missing link."""


class Inadmissible(ValueError):
    """A plan places a layer at a (server, bits) the table masks out."""


@dataclass(frozen=True)
class DelayOptions:
    cp_scaling: str = "with_pl"  # or "without_pl"
    per_token_activation: bool = True

    def __post_init__(self):
        if self.cp_scaling not in ("with_pl", "without_pl"):
            raise ValueError(f"cp_scaling: {self.cp_scaling!r}")

    def to_doc(self) -> dict:
        return {"cp_scaling": self.cp_scaling,
                "per_token_activation": self.per_token_activation}

    @classmethod
    def from_doc(cls, doc: dict) -> "DelayOptions":
        return cls(cp_scaling=doc.get("cp_scaling", "with_pl"),
                   per_token_activation=doc.get("per_token_activation", True))


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


def _check_bits(bits: int) -> None:
    if not (MIN_BITS <= bits <= MAX_BITS):
        raise InvalidBits(f"bits={bits} outside [{MIN_BITS}, {MAX_BITS}]")


def compute_cp(layer: LayerProfile, server: ServerSpec, bits: int,
               tokens: int, options: DelayOptions = DelayOptions()) -> float:
    """Compute delay in seconds for all n autoregressive rounds."""
    _check_bits(bits)
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
    _check_bits(bits)
    if same_server:
        return 0.0
    if link is None:
        raise NoLink("no link between the requested servers")
    payload = round_payload_elements(layer, batch, embedding, options)
    return tokens * (payload * bits / link.capacity_bps + link.propagation_delay)


def build_delay_table(instance: ProblemInstance,
                      options: DelayOptions = DelayOptions(), *,
                      literal_storage: bool = False) -> DelayTable:
    """Evaluate cp and cm over every (server, layer, bits) and link.

    Per-(layer, bits) factors come from the scalar helpers; servers and
    links enter as a throughput vector and M x M capacity/propagation
    matrices filled once from the link list. ``literal_storage`` selects
    the storage model the mask applies (see core.storage_bytes).
    """
    cluster, model = instance.cluster, instance.model
    menu = instance.bit_menu
    M, L, B = cluster.num_servers, model.num_layers, len(menu)
    n = instance.tokens
    for b in {b for fb in instance.feasible_bits for b in fb}:
        _check_bits(b)

    def per_layer_bits(f):
        return np.array([[f(layer, b) for b in menu] for layer in model.layers],
                        dtype=float).reshape(L, B)

    feasible = np.array([[b in fb for b in menu] for fb in instance.feasible_bits],
                        dtype=bool).reshape(L, B)
    scale = per_layer_bits(lambda layer, b: _cp_scale(layer, b, options))
    payload_bits = per_layer_bits(lambda layer, b: round_payload_elements(
        layer, model.batch_size, model.embedding_size, options) * b)
    need = per_layer_bits(lambda layer, b: storage_bytes(
        layer, b, literal_output_factor=literal_storage))

    flops = np.array([layer.flops for layer in model.layers], dtype=float)
    throughput = np.array([s.compute_throughput for s in cluster.servers], dtype=float)
    capacity = np.array([s.storage_capacity for s in cluster.servers], dtype=float)
    cp = n * (flops[None, :] / throughput[:, None])[:, :, None] * scale[None, :, :]
    admissible = feasible[None, :, :] & (need[None, :, :] <= capacity[:, None, None])
    cp[~admissible] = math.inf

    linked = np.zeros((M, M), dtype=bool)
    bps = np.ones((M, M))
    prop = np.zeros((M, M))
    for lk in cluster.links:
        linked[lk.src, lk.dst] = True
        bps[lk.src, lk.dst] = lk.capacity_bps
        prop[lk.src, lk.dst] = lk.propagation_delay
    cm = n * (payload_bits[:, None, None, :] / bps[None, :, :, None]
              + prop[None, :, :, None])
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
