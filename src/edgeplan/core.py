"""Problem-instance data model: clusters, model profiles, placement plans,
and the JSON document I/O every module shares.

All types are frozen dataclasses, safe to share across threads. Validation
never raises for bad *values* (violations are returned as data); exceptions
are reserved for malformed files.

Each input rule is checked once, where it enters: ``validate_instance`` for
instance and plan files, the CLI's parser for flags. The bit-menu, delta
and token rules enter both ways, so each is one function here
(``bit_menu_violations``, ``delta_violations``, ``tokens_violations``)
that both call. No module downstream checks them again.

A cluster stores its links as one LinkRecord: four read-only numpy
columns (src and dst as intp, capacity and propagation delay as float64),
built once from whichever source the cluster comes, the parser, the
generator or any iterable of LinkSpec. The validator states each link
rule once, as one boolean mask over the columns, and words the
violations of the links a mask flags, in declaration order; a pair
declared again is one of them. The writer reads the columns as Python
scalars and writes them as four JSON arrays; the parser takes that
layout column by column and the older one, one JSON object per link,
record by record. Every
other reader reads ClusterSpec.link_view, the M x M index of the links
scattered from the columns once per cluster: the delay table its
matrices, ClusterSpec.link an entry.

Every JSON document edgeplan reads or writes goes through this module:
``load_json`` loads it, as UTF-8 whatever the locale, ``read_fields``
schemas type-check it (``read_records`` a table of records: a list of
objects record by record, an object of arrays by columns), ``json_text``
serialises it and ``write_outputs`` writes it, leaving no partial
output. ``json_text`` writes exactly the
bytes of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``
plus a newline, with the json module's C encoder doing the formatting;
that stdlib call is its test oracle.

Note on units: ``compute_throughput`` is effective floating-point throughput
in FLOP/s (delay formulas divide per-layer FLOP counts by it), not a clock
frequency. Link capacities are bits per second, storage is bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from operator import attrgetter
from typing import Any, Iterable, Optional

import numpy as np

SCHEMA_VERSION = 1

ALLOWED_PRECISIONS = (8, 16, 32, 64)
MIN_BITS = 2
MAX_BITS = 32


class ParseError(ValueError):
    """Input file is malformed (missing key, wrong type, bad JSON)."""


class ValidationError(ValueError):
    """Input parsed fine but breaks a data-model invariant."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(map(str, violations)))


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


# LinkRecord's columns, each also the LinkSpec field it holds, and dtype
_LINK_COLUMNS = (("src", np.intp), ("dst", np.intp),
                 ("capacity_bps", np.float64), ("propagation_delay", np.float64))


def _column(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype: an array of that dtype itself,
    made read-only, any other sequence copied into a new one (fromiter
    reads a list of Python numbers faster than asarray). Values that do
    not fit it, such as an id of 2**70, stay as given in an object array,
    for validate_instance to refuse."""
    try:
        column = (np.asarray(values, dtype=dtype) if isinstance(values, np.ndarray)
                  else np.fromiter(values, dtype, len(values)))
    except OverflowError:
        column = np.array(values, dtype=object)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class LinkRecord:
    """A cluster's links as four read-only numpy columns, one entry per
    link in declaration order: src and dst as intp, capacity (bit/s) and
    propagation delay (s) as float64. A numpy array of a column's dtype
    given is kept, and made read-only; any other sequence is copied.
    Iteration yields one LinkSpec per link, of Python int and float
    values; readers that touch every link read the columns. Two records
    are equal when their columns are."""
    # empty by default, so LinkRecord(*zip(*rows)) transposes (src, dst,
    # capacity, delay) rows into a record, no rows included
    src: np.ndarray = ()
    dst: np.ndarray = ()
    capacity_bps: np.ndarray = ()
    propagation_delay: np.ndarray = ()

    def __post_init__(self):
        for name, dtype in _LINK_COLUMNS:
            object.__setattr__(self, name, _column(getattr(self, name), dtype))

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.src, self.dst, self.capacity_bps, self.propagation_delay

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self) -> Iterator[LinkSpec]:
        return map(LinkSpec, *(column.tolist() for column in self.columns()))

    def __eq__(self, other) -> bool:
        if type(other) is not LinkRecord:
            return NotImplemented
        return all(map(np.array_equal, self.columns(), other.columns()))

    def __hash__(self) -> int:
        # + 0 turns -0.0, equal to 0.0, into 0.0; an object column holds
        # Python numbers, whose own hashes agree with equality
        return hash(tuple(tuple(column.tolist()) if column.dtype == object
                          else (column + 0).tobytes() for column in self.columns()))


@dataclass(frozen=True)
class ClusterSpec:
    """Servers, by position, and links. Any iterable of LinkSpec given as
    ``links`` is stored as one LinkRecord."""
    servers: tuple[ServerSpec, ...]
    links: LinkRecord

    def __post_init__(self):
        if type(self.links) is not LinkRecord:
            links = tuple(self.links)
            object.__setattr__(self, "links", LinkRecord(*(
                list(map(attrgetter(name), links)) for name, _ in _LINK_COLUMNS)))

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @cached_property
    def link_view(self) -> tuple[np.ndarray, np.ndarray]:
        """(capacity, delay), read-only M x M arrays indexed [src, dst]: a
        link's capacity in bit/s, inf where there is none (the diagonal
        among them), and its propagation delay in seconds, 0 there. Built
        on first use; defined on a valid cluster only."""
        M, links = len(self.servers), self.links
        capacity, delay = np.full((M, M), math.inf), np.zeros((M, M))
        at = links.src, links.dst
        capacity[at], delay[at] = links.capacity_bps, links.propagation_delay
        capacity.flags.writeable = delay.flags.writeable = False
        return capacity, delay

    def link(self, src: int, dst: int) -> Optional[LinkSpec]:
        """Directed link src -> dst, read from link_view, or None when there
        is none, as for an id outside 0..M-1 (which numpy would wrap)."""
        capacity, delay = self.link_view
        if 0 <= src < len(capacity) and 0 <= dst < len(capacity) and capacity[src, dst] < math.inf:
            return LinkSpec(src, dst, float(capacity[src, dst]), float(delay[src, dst]))
        return None


@dataclass(frozen=True)
class LayerProfile:
    flops: float  # FLOP per token pass
    param_count: int  # weight elements
    output_size: float  # output tensor elements per token per batch row
    original_precision: int  # bits per weight before quantization
    weights_ref: Optional[str] = None


def storage_bytes(layer: LayerProfile, bits: int) -> float:
    """Bytes needed to host a layer quantized at the given width, b * p / 8,
    in the compact storage reading; DelayOptions.bytes_needed reads both."""
    return bits * layer.param_count / 8


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
            feasible = (self.bit_menu,) * self.model.num_layers
        else:
            feasible = tuple(tuple(sorted(set(fb))) for fb in self.feasible_bits)
        object.__setattr__(self, "feasible_bits", feasible)


@dataclass(frozen=True)
class PlacementPlan:
    assignments: tuple[tuple[int, int], ...]  # per layer: (server id, bits)
    total_delay: float
    compute_delay: float
    comm_delay: float


def gamma(k: int, unit: float = 2.0 ** -53) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff (2^-53 for
    float64, 2^-24 for float32): the relative error bound of a product of
    k roundings, and of a sum whose terms each pass through at most k
    additions, in any order (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, 3.1 and 4.2). quant's screens and the solver's
    pruning margin both bound their rounding with it."""
    return k * unit / (1 - k * unit)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _non_finite(where: str, **values: float) -> list[Violation]:
    """One NonFiniteValue violation per NaN or infinite value."""
    return [Violation("NonFiniteValue", f"{where} {name} {value}")
            for name, value in values.items() if not math.isfinite(value)]


def bit_menu_violations(bit_menu: tuple[int, ...]) -> list[Violation]:
    """The bit-menu rule: at least one width, each in [MIN_BITS, MAX_BITS]."""
    empty = [] if bit_menu else [Violation("EmptyBitMenu", "bit menu is empty")]
    return empty + [Violation("BitsTooSmall", f"bit-width {b} < {MIN_BITS}") if b < MIN_BITS
                    else Violation("BitsTooLarge", f"bit-width {b} > {MAX_BITS}")
                    for b in bit_menu if not MIN_BITS <= b <= MAX_BITS]


def delta_violations(delta: float) -> list[Violation]:
    """The delta rule: a number >= 0; inf is legal, no error budget."""
    if math.isnan(delta):
        return [Violation("NonFiniteValue", "delta nan")]
    return [Violation("NegativeDelta", f"delta {delta}")] if delta < 0 else []


def tokens_violations(tokens: int) -> list[Violation]:
    """The token rule: n >= 0, and a float, since every delay is n times one."""
    out = [Violation("NegativeTokens", f"tokens {tokens}")] if tokens < 0 else []
    try:
        float(tokens)
    except OverflowError:
        out.append(Violation("DelayOverflow", "tokens beyond the float range"))
    return out


def validate_instance(instance: ProblemInstance) -> list[Violation]:
    """Return every structural violation; an empty list means valid.

    Pure and idempotent, and the one statement of what a valid instance
    is: the delay table, the solvers, the plan checker and the replay
    take a validated instance and check none of this again. More layers
    than servers is no violation: it is infeasible, not malformed, and
    the solvers report it.
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
    links = instance.cluster.links
    src, dst, bps, delay = links.columns()
    M = len(ids)
    repeat = np.zeros(len(links), dtype=bool)
    slow = np.ones(len(links), dtype=bool)  # the links read as Python values
    if id_set == set(range(M)) and src.dtype == dst.dtype == np.intp:
        # as unsigned, a negative id is beyond M too
        slow = np.maximum(src.view(np.uintp), dst.view(np.uintp)) >= M
        known = ~slow if slow.any() else slice(None)  # every id known: no copies
        # a known pair repeats when the M x M scatter marks fewer cells than
        # there are pairs, and np.unique finds the first of each
        pairs = src[known] * M + dst[known]
        declared = np.zeros(M * M, dtype=bool)
        declared[pairs] = True
        if np.count_nonzero(declared) < len(pairs):
            first = np.zeros(len(pairs), dtype=bool)
            first[np.unique(pairs, return_index=True)[1]] = True
            repeat[known] = ~first
    # no pair has both a known and an unknown id: the rest find their own
    # repeats, by a first-position dict
    rest = np.flatnonzero(slow)
    seen, others = {}, list(zip(src[rest].tolist(), dst[rest].tolist()))
    repeat[rest] = [seen.setdefault(pair, k) != k for k, pair in enumerate(others)]
    unknown = np.zeros(len(links), dtype=bool)
    unknown[rest] = [i not in id_set or j not in id_set for i, j in others]
    # one mask per link rule, in the order a link's violations are listed;
    # each words its violation from the link's name, capacity and delay
    rules = (
        (~np.isfinite(bps), lambda link, bps, delay:
         Violation("NonFiniteValue", f"{link} capacity_bps {bps}")),
        (~np.isfinite(delay), lambda link, bps, delay:
         Violation("NonFiniteValue", f"{link} prop_delay_s {delay}")),
        (repeat, lambda link, bps, delay: Violation("DuplicateLink", f"{link} is declared twice")),
        (bps <= 0, lambda link, bps, delay:
         Violation("LinkCapacityNonPositive", f"{link} capacity {bps}")),
        (src == dst, lambda link, bps, delay: Violation("SelfLink", f"{link} is a self-loop")),
        (unknown, lambda link, bps, delay:
         Violation("UnknownServerInLink", f"{link} references unknown server")),
        (delay < 0, lambda link, bps, delay: Violation("NegativePropagationDelay", link)),
    )
    flagged = np.zeros(len(links), dtype=bool)
    for mask, _ in rules:
        flagged |= mask
    at = np.flatnonzero(flagged)
    for (i, j, *values), broken in zip(zip(*(column[at].tolist() for column in links.columns())),
                                       zip(*(mask[at].tolist() for mask, _ in rules))):
        out += [word(f"link {i}->{j}", *values) for (_, word), hit in zip(rules, broken) if hit]

    layers = instance.model.layers
    if not layers:
        out.append(Violation("NoLayers", "the model has no layers"))
    for k, l in enumerate(layers):
        if not (math.isfinite(l.flops) and math.isfinite(l.output_size)):
            out += _non_finite(f"layer {k}", flops=l.flops, output_size=l.output_size)
        if l.flops < 0:
            out.append(Violation("NegativeFlops", f"layer {k}"))
        if l.param_count < 0:
            out.append(Violation("NegativeParamCount", f"layer {k}"))
        if l.output_size < 0:
            out.append(Violation("NegativeOutputSize", f"layer {k}"))
        if l.original_precision not in ALLOWED_PRECISIONS:
            out.append(Violation("BadOriginalPrecision", f"layer {k}: {l.original_precision}"))
        try:
            storage_bytes(l, MAX_BITS)  # the largest footprint a menu allows
        except OverflowError:
            out.append(Violation("ParamCountOverflow", f"layer {k} storage beyond the float range"))
    if instance.model.batch_size < 1:
        out.append(Violation("BadBatchSize", f"batch_size {instance.model.batch_size}"))
    if instance.model.embedding_size < 1:
        out.append(Violation("BadEmbeddingSize", f"embedding_size {instance.model.embedding_size}"))
    try:
        float(instance.model.batch_size * instance.model.embedding_size)  # the activation payload
    except OverflowError:
        out.append(Violation("PayloadOverflow", "batch_size * embedding_size beyond the float range"))

    out += bit_menu_violations(instance.bit_menu)
    out += delta_violations(instance.delta)
    out += tokens_violations(instance.tokens)

    if len(instance.feasible_bits) != len(layers):
        out.append(Violation("FeasibleBitsLengthMismatch",
                             f"{len(instance.feasible_bits)} entries for {len(layers)} layers"))
    else:
        menu = set(instance.bit_menu)
        for l, fb in enumerate(instance.feasible_bits):
            if not set(fb) <= menu:
                out.append(Violation("FeasibleBitsNotInMenu", f"layer {l}: {fb}"))
    return out


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

# JSON types by the Python type the json module reads them as; a JSON
# boolean reads as bool, which is neither int nor float
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean"}
REQUIRED = object()


def _where(where: str, path: tuple) -> str:
    return where + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)


def read_typed(value, kind: type, where: str, *path) -> Any:
    """value if it has the JSON type ``kind`` (dict, list, str, int, float
    or bool), else ParseError naming ``where`` (the file) and ``path`` (the
    keys and indices down to the value).

    int is a JSON integer; float is any JSON number, an integer read with
    float(), so 5 reads as 5.0 but one beyond the float range is refused.
    A boolean is neither. The location string is built only on failure.
    """
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    _refuse(value, _JSON_KINDS[kind], where, path)


def _refuse(value, expected: str, where: str, path: tuple):
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    raise ParseError(f"{_where(where, path)}: must be {expected}, got {shown}")


def read_choice(*choices: str):
    """A read_fields reader of a string that must be one of ``choices``."""
    def read(value, where: str, *path) -> str:
        if type(value) is not str or value not in choices:
            _refuse(value, " or ".join(map(json.dumps, choices)), where, path)
        return value
    return read


def read_ints(value, where: str, *path) -> list:
    """value if it is a JSON array of JSON integers, else ParseError naming
    the array or its first entry that is not an integer."""
    for k, v in enumerate(read_typed(value, list, where, *path)):
        if type(v) is not int:
            read_typed(v, int, where, *path, k)
    return value


def read_finite(value, where: str, *path) -> float:
    """read_typed(value, float, ...) that also refuses NaN and the
    infinities, which the loader reads from JSON's NaN and Infinity."""
    number = read_typed(value, float, where, *path)
    if not math.isfinite(number):
        _refuse(value, "a finite number", where, path)
    return number


def read_name(value, where: str, *path) -> str:
    """value if it is a plain file name, a JSON string other than "", "."
    and ".." with no "/", "\\" or NUL in it, else ParseError: joined to a
    directory, it names a file in that directory and nowhere else."""
    if type(value) is not str or value in ("", ".", "..") or not set(value).isdisjoint("/\\\0"):
        _refuse(value, 'a plain name (not "", "." or "..", no "/", "\\" or NUL)', where, path)
    return value


def read_table(value, where: str, *path):
    """value if it is a JSON array or object, the two layouts of a table
    read_records reads, else ParseError."""
    if type(value) is not list and type(value) is not dict:
        _refuse(value, "an array or an object", where, path)
    return value


def read_fields(obj, schema: tuple, where: str, *path) -> list:
    """The values of a JSON object's fields, one per (key, kind, default)
    entry of ``schema``. ``kind`` is a JSON type, checked by
    ``read_typed``, or a reader called as kind(value, where, *path, key),
    such as ``read_ints``. A missing key takes its default, or is a
    ParseError when the default is REQUIRED; ``obj`` must be an object."""
    obj = read_typed(obj, dict, where, *path)
    values = []
    for key, kind, default in schema:
        if key not in obj:
            if default is REQUIRED:
                raise ParseError(f"{_where(where, path)}: missing key '{key}'")
            values.append(default)
            continue
        value = obj[key]
        if type(value) is not kind:
            value = (read_typed(value, kind, where, *path, key) if isinstance(kind, type)
                     else kind(value, where, *path, key))
        values.append(value)
    return values


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``, read by one unbuffered file object:
    ``readall`` sizes its buffer from the file's size, and no buffered
    reader stands between it and the file."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def load_json(path, read=read_bytes) -> Any:
    """The JSON document in the file at ``path``, its bytes got by
    ``read(path)`` and decoded once as UTF-8 whatever the locale (RFC 8259
    §8.1). JSON reads CR as whitespace, so line ends need no translation;
    a parse error's line number counts LF only, so a file whose lines end
    in a bare CR reports its errors on line 1. ParseError naming the file
    when it cannot be read, is not UTF-8, is not JSON (a byte order mark
    included) or nests deeper than the decoder recurses. NaN and Infinity
    load as floats, for read_finite to refuse where a field must be
    finite."""
    try:
        # the bytes are dropped before the text is parsed
        return json.loads(read(path).decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8: byte {e.start}: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError(f"{path}: nested too deeply") from e
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e


def json_text(doc) -> str:
    """The text of every JSON document edgeplan writes, byte for byte
    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``:
    two-space indent, keys sorted, ASCII only, one trailing newline. A NaN
    or infinity is a ValueError, raised before any file is opened, so a
    non-finite value leaves no file.

    The json module formats an indented document with its pure-Python
    encoder; here its C encoder does the formatting, and the stdlib's
    indented encoder is the tests' oracle. The C encoder escapes every
    control character inside a string, so each raw newline in its output
    comes from a separator, and the separator ",\\n" plus an indent carries
    the indentation. A container whose members are all scalars is one C
    call: a link column, and each server, layer, assignment or quantize
    record. The other nodes of a document, such as the lists of those
    records, are joined here.
    """
    parts = []
    _indented(doc, 0, parts)
    parts.append("\n")
    return "".join(parts)


# the types whose JSON text is the same at every depth, bool included
_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _encode_at(depth: int):
    """The C encoder's encode, writing each member after the first on a
    new line ``depth`` levels of two spaces in."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + "  " * depth, ": ")).encode


def _indented(o, depth: int, parts: list) -> None:
    """Append to ``parts`` the pieces of ``o`` as the indented encoder
    writes it ``depth`` levels in; json_text joins them once, so a large
    document's text is held at most twice at a time."""
    if isinstance(o, dict):
        members, brackets = o.values(), "{}"
    elif isinstance(o, (list, tuple)):
        members, brackets = o, "[]"
    else:
        # a scalar; json's own TypeError for anything else
        parts.append(_encode_at(0)(o))
        return
    if not o:
        parts.append(brackets)
        return
    pad, inner = "  " * depth, "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, members)):
        text = _encode_at(depth + 1)(o)
        parts += (f"{text[0]}\n{inner}", text[1:-1], f"\n{pad}{text[-1]}")
        return
    keyed = brackets == "{}"
    parts.append(f"{brackets[0]}\n{inner}")
    for i, k in enumerate(sorted(o) if keyed else range(len(o))):
        if i:
            parts.append(f",\n{inner}")
        if keyed:
            # each key as json writes it: the text of {key: 0} less "{" and ": 0}"
            parts.append(f"{_encode_at(0)({k: 0})[1:-4]}: ")
        _indented(o[k], depth + 1, parts)
    parts.append(f"\n{pad}{brackets[1]}")


def json_line(doc) -> str:
    """A record printed on stdout: one line, keys in the order given."""
    return json.dumps(doc, allow_nan=False)


def write_outputs(*files) -> None:
    """Write each (path, data) pair in order through one unbuffered file
    object: a str as its UTF-8 bytes, with no newline translation, so an
    output's bytes are the same on every platform and locale; any other
    data, a C-contiguous bytes-like object such as a numpy array, as its
    raw bytes, with no copy. A short write is continued from where it
    stopped. If one cannot be written, for any reason (an OSError, or a
    MemoryError while a str is encoded), the files this call wrote are
    removed, so a failed run leaves no output."""
    written = []
    try:
        for path, data in files:
            view = memoryview(data.encode() if isinstance(data, str) else data).cast("B")
            with open(path, "wb", buffering=0) as f:
                written.append(path)
                while view:
                    view = view[f.write(view):]
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def hashing_reader():
    """(read, sha): read_bytes that also feeds each file's bytes, then a
    NUL, to sha, a new hashlib sha256, in the order it reads them; sha is
    then the input part of input_digest, hashed as a command reads its
    inputs once."""
    sha = hashlib.sha256()

    def read(path) -> bytes:
        data = read_bytes(path)
        sha.update(data)
        sha.update(b"\x00")
        return data
    return read, sha


def input_digest(sha, options_doc) -> str:
    """sha256 over the two input files plus the canonical option record,
    which may hold anything a plan document does, NaN and Infinity too.
    ``sha`` holds the two files as a hashing_reader fed them, and is left
    as it is."""
    sha = sha.copy()
    sha.update(json.dumps(options_doc, sort_keys=True).encode())
    return sha.hexdigest()


_CLUSTER = (("servers", list, REQUIRED), ("links", read_table, REQUIRED))
_SERVER = (("id", int, REQUIRED), ("ccs_flops", float, REQUIRED),
           ("storage_bytes", float, REQUIRED))
_LINK = (("src", int, REQUIRED), ("dst", int, REQUIRED),
         ("capacity_bps", float, REQUIRED), ("prop_delay_s", float, 0.0))
_MODEL = (("layers", list, REQUIRED), ("batch_size", int, REQUIRED),
          ("embedding_size", int, REQUIRED))
_LAYER = (("flops", float, REQUIRED), ("param_count", int, REQUIRED),
          ("output_size", float, REQUIRED), ("original_precision", int, REQUIRED),
          ("weights", read_name, None))


def read_records(table, schema: tuple, where: str, *path) -> list[list]:
    """The fields of a table of JSON records as one list per (key, kind,
    default) entry of ``schema``. The table is a list of objects, one per
    record, or an object of arrays of equal length, one per key, the
    records' columns; either way a missing key reads as its default in
    every record, and keys outside the schema are ignored.

    A list of objects is read record by record by read_fields, which
    refuses the first record, in order, with a field it cannot read. An
    object of arrays is checked column by column: a column whose every
    value has exactly its JSON type is taken as it is, any other is read
    entry by entry, an integer as a float, refusing the first entry of
    the first column at fault."""
    if type(table) is list:
        records = [read_fields(doc, schema, where, *path, k) for k, doc in enumerate(table)]
        return list(map(list, zip(*records))) if records else [[] for _ in schema]
    return [column if set(map(type, column)) <= {kind}
            else [read_typed(value, kind, where, *path, key, k) for k, value in enumerate(column)]
            for (key, kind, _), column in zip(schema, _array_columns(table, schema, where, *path))]


def _array_columns(table: dict, schema: tuple, where: str, *path) -> list[list]:
    """The arrays of an object of columns, one per schema key, a missing
    key's filled with its default; ParseError on a missing required key,
    a column that is no array, or one whose length is not the first's."""
    arrays, first = {}, None
    for key, _, default in schema:
        if key not in table:
            if default is REQUIRED:
                raise ParseError(f"{_where(where, path)}: missing key '{key}'")
            continue
        arrays[key] = read_typed(table[key], list, where, *path, key)
        first = first or key
        if len(arrays[key]) != len(arrays[first]):
            raise ParseError(f"{_where(where, (*path, key))}: must have as many entries as "
                             f"{first} ({len(arrays[first])}), got {len(arrays[key])}")
    n = len(arrays[first]) if arrays else 0
    return [arrays[key] if key in arrays else [default] * n for key, _, default in schema]


def parse_cluster(doc, where: str = "cluster") -> ClusterSpec:
    """ClusterSpec from a parsed cluster document; ParseError on a missing
    key or a field of the wrong JSON type."""
    server_docs, link_table = read_fields(doc, _CLUSTER, where)
    # position == id from here on: the delay table, the simulator and the
    # plan checker all index servers by position
    servers = sorted(map(ServerSpec, *read_records(server_docs, _SERVER, where, "servers")),
                     key=attrgetter("id"))
    links = LinkRecord(*read_records(link_table, _LINK, where, "links"))
    return ClusterSpec(servers=tuple(servers), links=links)


def parse_model(doc, where: str = "model") -> ModelProfile:
    """ModelProfile from a parsed model document; ParseError on a missing
    key or a field of the wrong JSON type."""
    layer_docs, batch_size, embedding_size = read_fields(doc, _MODEL, where)
    layers = tuple(map(LayerProfile, *read_records(layer_docs, _LAYER, where, "layers")))
    return ModelProfile(layers=layers, batch_size=batch_size,
                        embedding_size=embedding_size)


def load_instance(cluster_path, model_path, *, bit_menu: Iterable[int],
                  delta: float, tokens: int,
                  feasible_bits: Optional[Iterable[Iterable[int]]] = None,
                  read=read_bytes) -> ProblemInstance:
    """Build a validated ProblemInstance from the two JSON files, their
    bytes got by ``read(path)``.

    Raises ParseError on malformed files and ValidationError when the data
    breaks an invariant (carrying the full violation list).
    """
    cluster = parse_cluster(load_json(cluster_path, read), str(cluster_path))
    model = parse_model(load_json(model_path, read), str(model_path))
    # ProblemInstance sorts, de-duplicates and tuples the menu and the sets
    inst = ProblemInstance(cluster=cluster, model=model, bit_menu=bit_menu,
                           delta=float(delta), tokens=int(tokens),
                           feasible_bits=feasible_bits)
    return require_valid(inst)


def require_valid(instance: ProblemInstance) -> ProblemInstance:
    """Return the instance unchanged, or raise ValidationError carrying every
    violation validate_instance finds."""
    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)
    return instance


def cluster_to_doc(cluster: ClusterSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "servers": [
            {"id": s.id, "ccs_flops": s.compute_throughput, "storage_bytes": s.storage_capacity}
            for s in cluster.servers
        ],
        # one array per column: a JSON decoder reads four arrays of
        # numbers much faster, and into less memory, than one object per link
        "links": {key: _scalars(column)
                  for (key, _, _), column in zip(_LINK, cluster.links.columns())},
    }


def _scalars(column: np.ndarray) -> list:
    """column.tolist(), except that an id column spanning fewer values than
    it holds refers to one Python int per id, and a column of +0.0 only to
    one 0.0, so a document of a generated cluster of n links does not hold
    2n ints and n zeros of its own: at 1024 servers that is 80 MB less."""
    if column.dtype == np.intp and len(column):
        low, high = int(column.min()), int(column.max())
        if high - low < len(column):
            return np.arange(low, high + 1).astype(object)[column - low].tolist()
    elif column.dtype == np.float64 and not column.view(np.int64).any():
        return [0.0] * len(column)
    return column.tolist()


def model_to_doc(model: ModelProfile) -> dict:
    layers = [{"flops": l.flops, "param_count": l.param_count, "output_size": l.output_size,
               "original_precision": l.original_precision,
               **({} if l.weights_ref is None else {"weights": l.weights_ref})}
              for l in model.layers]
    return {
        "schema_version": SCHEMA_VERSION,
        "batch_size": model.batch_size,
        "embedding_size": model.embedding_size,
        "layers": layers,
    }


def save_instance(instance: ProblemInstance, cluster_path, model_path) -> None:
    """Inverse of load_instance for the file-backed part of the data model;
    a failed write leaves neither file."""
    write_outputs((cluster_path, json_text(cluster_to_doc(instance.cluster))),
                  (model_path, json_text(model_to_doc(instance.model))))
