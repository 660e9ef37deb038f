"""Problem-instance data model: clusters, model profiles, placement plans.

All types are frozen dataclasses, safe to share across threads. Validation
never raises for bad *values* (violations are returned as data); exceptions
are reserved for malformed files.

Note on units: ``compute_throughput`` is effective floating-point throughput
in FLOP/s (delay formulas divide per-layer FLOP counts by it), not a clock
frequency. Link capacities are bits per second, storage is bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

SCHEMA_VERSION = 1

ALLOWED_PRECISIONS = (8, 16, 32, 64)
MIN_BITS = 2
MAX_BITS = 32


class InvalidBits(ValueError):
    """Bit-width outside the supported [MIN_BITS, MAX_BITS] range."""


def check_bits(bits: int) -> None:
    """Raise InvalidBits unless MIN_BITS <= bits <= MAX_BITS."""
    if not (MIN_BITS <= bits <= MAX_BITS):
        raise InvalidBits(f"bits={bits} outside [{MIN_BITS}, {MAX_BITS}]")


class ParseError(ValueError):
    """Input file is malformed (missing key, wrong type, bad JSON)."""


class ValidationError(ValueError):
    """Input parsed fine but breaks a data-model invariant."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(v.code for v in violations))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class ServerSpec:
    id: int
    compute_throughput: float  # FLOP/s
    storage_capacity: float  # bytes


@dataclass(frozen=True)
class LinkSpec:
    src: int
    dst: int
    capacity_bps: float
    propagation_delay: float = 0.0  # seconds


@dataclass(frozen=True)
class ClusterSpec:
    servers: tuple[ServerSpec, ...]
    links: tuple[LinkSpec, ...]

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def link(self, src: int, dst: int) -> Optional[LinkSpec]:
        """Directed link src -> dst, or None when absent (unusable edge)."""
        for lk in self.links:
            if lk.src == src and lk.dst == dst:
                return lk
        return None


@dataclass(frozen=True)
class LayerProfile:
    index: int
    flops: float  # FLOP per token pass
    param_count: int  # weight elements
    output_size: float  # output tensor elements per token per batch row
    original_precision: int  # bits per weight before quantization
    weights_ref: Optional[str] = None


def storage_bytes(layer: LayerProfile, bits: int, *,
                  literal_output_factor: bool = False) -> float:
    """Bytes needed to host a layer quantized at the given width: b * p / 8,
    times the layer's output size in the strict-literal storage mode."""
    size = bits * layer.param_count / 8
    if literal_output_factor:
        size *= layer.output_size
    return size


@dataclass(frozen=True)
class ModelProfile:
    layers: tuple[LayerProfile, ...]
    batch_size: int
    embedding_size: int

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class ProblemInstance:
    cluster: ClusterSpec
    model: ModelProfile
    bit_menu: tuple[int, ...]  # sorted, each in [MIN_BITS, MAX_BITS]
    delta: float  # max allowed per-element weight error
    tokens: int  # autoregressive rounds n
    # Per layer, the bit-widths that survive the quantization-error filter.
    # None (not narrowed) means the full menu for every layer; any sequence,
    # empty too, is taken as given and must have one entry per layer.
    feasible_bits: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "bit_menu", tuple(sorted(set(self.bit_menu))))
        if self.feasible_bits is None:
            full = tuple(
                tuple(self.bit_menu) for _ in range(self.model.num_layers)
            )
            object.__setattr__(self, "feasible_bits", full)
        else:
            object.__setattr__(
                self,
                "feasible_bits",
                tuple(tuple(sorted(set(fb))) for fb in self.feasible_bits),
            )


@dataclass(frozen=True)
class PlacementPlan:
    assignments: tuple[tuple[int, int], ...]  # per layer: (server id, bits)
    total_delay: float
    compute_delay: float
    comm_delay: float


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _non_finite(where: str, **values: float) -> list[Violation]:
    """One NonFiniteValue violation per NaN or infinite value."""
    return [Violation("NonFiniteValue", f"{where} {name} {value}")
            for name, value in values.items() if not math.isfinite(value)]


def validate_instance(instance: ProblemInstance) -> list[Violation]:
    """Return every structural violation; an empty list means valid.

    Pure and idempotent. ``MoreLayersThanServers`` is reported as a distinct
    code because it makes the placement infeasible (one layer per server)
    without being a malformed input per se.
    """
    out: list[Violation] = []
    servers = instance.cluster.servers
    ids = [s.id for s in servers]
    if len(set(ids)) != len(ids):
        out.append(Violation("DuplicateServerId", f"server ids {ids} contain duplicates"))
    elif sorted(ids) != list(range(len(ids))):
        out.append(Violation("NonContiguousServerIds", f"server ids {ids} are not 0..M-1"))
    elif ids != sorted(ids):
        # every consumer indexes servers by position; parse_cluster sorts
        out.append(Violation("ServerIdsOutOfOrder", f"server ids {ids} are not listed in id order"))
    for s in servers:
        if not (math.isfinite(s.compute_throughput) and math.isfinite(s.storage_capacity)):
            out += _non_finite(f"server {s.id}", ccs_flops=s.compute_throughput,
                               storage_bytes=s.storage_capacity)
        if s.compute_throughput <= 0:
            out.append(Violation("NonPositiveThroughput", f"server {s.id} throughput {s.compute_throughput}"))
        if s.storage_capacity < 0:
            out.append(Violation("NegativeStorage", f"server {s.id} storage {s.storage_capacity}"))
    id_set = set(ids)
    seen_links = set()
    for lk in instance.cluster.links:
        if not (math.isfinite(lk.capacity_bps) and math.isfinite(lk.propagation_delay)):
            out += _non_finite(f"link {lk.src}->{lk.dst}", capacity_bps=lk.capacity_bps,
                               prop_delay_s=lk.propagation_delay)
        pair = (lk.src, lk.dst)
        if pair in seen_links:
            out.append(Violation("DuplicateLink", f"link {lk.src}->{lk.dst} is declared twice"))
        seen_links.add(pair)
        if lk.capacity_bps <= 0:
            out.append(Violation("LinkCapacityNonPositive", f"link {lk.src}->{lk.dst} capacity {lk.capacity_bps}"))
        if lk.src == lk.dst:
            out.append(Violation("SelfLink", f"link {lk.src}->{lk.dst} is a self-loop"))
        if lk.src not in id_set or lk.dst not in id_set:
            out.append(Violation("UnknownServerInLink", f"link {lk.src}->{lk.dst} references unknown server"))
        if lk.propagation_delay < 0:
            out.append(Violation("NegativePropagationDelay", f"link {lk.src}->{lk.dst}"))

    layers = instance.model.layers
    if [l.index for l in layers] != list(range(len(layers))):
        out.append(Violation("LayerIndexGap", f"layer indices {[l.index for l in layers]} are not 0..L-1"))
    for l in layers:
        if not (math.isfinite(l.flops) and math.isfinite(l.output_size)):
            out += _non_finite(f"layer {l.index}", flops=l.flops, output_size=l.output_size)
        if l.flops < 0:
            out.append(Violation("NegativeFlops", f"layer {l.index}"))
        if l.param_count < 0:
            out.append(Violation("NegativeParamCount", f"layer {l.index}"))
        if l.output_size < 0:
            out.append(Violation("NegativeOutputSize", f"layer {l.index}"))
        if l.original_precision not in ALLOWED_PRECISIONS:
            out.append(Violation("BadOriginalPrecision", f"layer {l.index}: {l.original_precision}"))
    if instance.model.batch_size < 1:
        out.append(Violation("BadBatchSize", f"batch_size {instance.model.batch_size}"))
    if instance.model.embedding_size < 1:
        out.append(Violation("BadEmbeddingSize", f"embedding_size {instance.model.embedding_size}"))

    if not instance.bit_menu:
        out.append(Violation("EmptyBitMenu", "bit menu is empty"))
    for b in instance.bit_menu:
        if b < MIN_BITS:
            out.append(Violation("BitsTooSmall", f"bit-width {b} < {MIN_BITS}"))
        if b > MAX_BITS:
            out.append(Violation("BitsTooLarge", f"bit-width {b} > {MAX_BITS}"))
    if math.isnan(instance.delta):  # inf is legal: no error budget
        out.append(Violation("NonFiniteValue", "delta nan"))
    elif instance.delta < 0:
        out.append(Violation("NegativeDelta", f"delta {instance.delta}"))
    if instance.tokens < 0:
        out.append(Violation("NegativeTokens", f"tokens {instance.tokens}"))

    if len(instance.feasible_bits) != len(layers):
        out.append(Violation("FeasibleBitsLengthMismatch",
                             f"{len(instance.feasible_bits)} entries for {len(layers)} layers"))
    else:
        menu = set(instance.bit_menu)
        for l, fb in enumerate(instance.feasible_bits):
            if not set(fb) <= menu:
                out.append(Violation("FeasibleBitsNotInMenu", f"layer {l}: {fb}"))

    if len(layers) > len(servers):
        out.append(Violation("MoreLayersThanServers",
                             f"L={len(layers)} > M={len(servers)}: no one-layer-per-server placement exists"))
    return out


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ParseError(f"{where}: missing key '{key}'")
    return obj[key]


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e


def parse_cluster(doc: dict, where: str = "cluster") -> ClusterSpec:
    servers = []
    for k, s in enumerate(_require(doc, "servers", where)):
        servers.append(ServerSpec(
            id=int(_require(s, "id", f"{where}.servers[{k}]")),
            compute_throughput=float(_require(s, "ccs_flops", f"{where}.servers[{k}]")),
            storage_capacity=float(_require(s, "storage_bytes", f"{where}.servers[{k}]")),
        ))
    links = []
    for k, lk in enumerate(doc.get("links", [])):
        links.append(LinkSpec(
            src=int(_require(lk, "src", f"{where}.links[{k}]")),
            dst=int(_require(lk, "dst", f"{where}.links[{k}]")),
            capacity_bps=float(_require(lk, "capacity_bps", f"{where}.links[{k}]")),
            propagation_delay=float(lk.get("prop_delay_s", 0.0)),
        ))
    # position == id from here on: the delay table, the simulator and the
    # plan checker all index servers by position
    servers.sort(key=lambda s: s.id)
    return ClusterSpec(servers=tuple(servers), links=tuple(links))


def parse_model(doc: dict, where: str = "model") -> ModelProfile:
    layers = []
    for k, l in enumerate(_require(doc, "layers", where)):
        layers.append(LayerProfile(
            index=k,
            flops=float(_require(l, "flops", f"{where}.layers[{k}]")),
            param_count=int(_require(l, "param_count", f"{where}.layers[{k}]")),
            output_size=float(_require(l, "output_size", f"{where}.layers[{k}]")),
            original_precision=int(_require(l, "original_precision", f"{where}.layers[{k}]")),
            weights_ref=l.get("weights"),
        ))
    return ModelProfile(
        layers=tuple(layers),
        batch_size=int(_require(doc, "batch_size", where)),
        embedding_size=int(_require(doc, "embedding_size", where)),
    )


def load_instance(cluster_path, model_path, *, bit_menu: Iterable[int],
                  delta: float, tokens: int,
                  feasible_bits: Optional[Iterable[Iterable[int]]] = None,
                  ) -> ProblemInstance:
    """Build a validated ProblemInstance from the two JSON files.

    Raises ParseError on malformed files and ValidationError when the data
    breaks an invariant (carrying the full violation list).
    """
    cluster = parse_cluster(_load_json(cluster_path), str(cluster_path))
    model = parse_model(_load_json(model_path), str(model_path))
    inst = ProblemInstance(
        cluster=cluster, model=model, bit_menu=tuple(bit_menu),
        delta=float(delta), tokens=int(tokens),
        feasible_bits=(None if feasible_bits is None
                       else tuple(tuple(fb) for fb in feasible_bits)),
    )
    return require_valid(inst)


def require_valid(instance: ProblemInstance) -> ProblemInstance:
    """Return the instance unchanged, or raise ValidationError carrying every
    violation except MoreLayersThanServers (an infeasible, not malformed,
    input that the solvers report themselves)."""
    hard = [v for v in validate_instance(instance) if v.code != "MoreLayersThanServers"]
    if hard:
        raise ValidationError(hard)
    return instance


def cluster_to_doc(cluster: ClusterSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "servers": [
            {"id": s.id, "ccs_flops": s.compute_throughput, "storage_bytes": s.storage_capacity}
            for s in cluster.servers
        ],
        "links": [
            {"src": lk.src, "dst": lk.dst, "capacity_bps": lk.capacity_bps,
             "prop_delay_s": lk.propagation_delay}
            for lk in cluster.links
        ],
    }


def model_to_doc(model: ModelProfile) -> dict:
    layers = []
    for l in model.layers:
        d = {"flops": l.flops, "param_count": l.param_count,
             "output_size": l.output_size, "original_precision": l.original_precision}
        if l.weights_ref is not None:
            d["weights"] = l.weights_ref
        layers.append(d)
    return {
        "schema_version": SCHEMA_VERSION,
        "batch_size": model.batch_size,
        "embedding_size": model.embedding_size,
        "layers": layers,
    }


def save_instance(instance: ProblemInstance, cluster_path, model_path) -> None:
    """Inverse of load_instance for the file-backed part of the data model."""
    for path, doc in ((cluster_path, cluster_to_doc(instance.cluster)),
                      (model_path, model_to_doc(instance.model))):
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
