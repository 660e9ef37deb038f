"""Uniform weight quantization (symmetric signed and asymmetric): the
max-absolute-error feasibility test, per-layer feasible-bit filtering, and
weight-distribution statistics.

"The reference" below is the textbook quantizer of each scheme, which
builds the codes and the dequantized values explicitly in float64; the
tests hold it (tests/oracles.py) and check every error here against it.
Both analysis entry points run one cache-blocked kernel instead: 32,768
elements (256 KiB of float64) at a time, it screens the block in float32
and evaluates the reference's float64 operations in place on the elements
that may hold an error that matters, building no code or dequantized
arrays. After a grid's first block, that is an error above its running
maximum (the report) or above delta (the filter), and a block that keeps
no element costs neither a maximum nor a float64 operation.
``distribution_stats`` reads the tensor in the same blocks: one pass sums
the values (and bins them in float64), a second sums the squared and
cubed deviations from the mean. Each moment is a sum of per-block sums,
so a tensor of at most one block gets the whole-array float64 sums bit
for bit and a larger one may differ from them in the last bits; the
histogram counts are exact either way. The blocked passes share one set
of block-long buffers per thread. The bit menu and delta arrive checked
by the CLI's parser (see ``core``).

``analyze_tensor``, behind the ``quantize`` report, computes every
width's exact error, equal to the reference's bit for bit: the maxima of
the blocks combine to the same float. The moments and histogram are
computed only when asked for; of the commands only ``quantize
--stats-out`` reports them.

``feasible_bits``, the ``plan``/``export-lp --weights-dir`` filter,
reports verdicts, not errors: the widths whose reference error is at most
delta, with no error computed that a verdict does not need. With no
scheme forced, both entry points use ``_pick_scheme``'s rule: symmetric
signed for a range that straddles 0 with |skewness| <= SKEW_THRESHOLD,
else asymmetric. The skewness compared is ``distribution_stats``'s, but
it is taken only when a float32 estimate with a proven error bound
(``_skew_verdict``) lies within that bound of the threshold.

0. Lazy pick. With no scheme forced, a two-sided tensor gets the
   verdicts of both schemes by steps 2 and 3. Equal verdicts are the
   recommended scheme's whichever it is, so the skewness is compared
   only to choose between two different sets.
1. One-sided scheme. With no scheme forced, a tensor whose range does not
   straddle 0 is quantized asymmetrically whatever its skewness, so it
   needs no skewness at all. ``analyze_tensor``, whose records name the
   scheme, picks by the same rule and compares the skewness of every
   two-sided tensor, from the float32 estimate unless it is too close to
   call.
2. Certify. The reference's error at scale s is at most s/2 + slack, with
   slack = 8u max(|min|, |max|) (symmetric) or
   8u (max(|min|, |max|) + max - min) (asymmetric) and u = 2^-53 (proof in
   ``_certified``). A width with s/2 + slack <= delta, and slack <= s/4,
   is feasible without a pass over the data.
3. Witness by blocks. Every other width is scanned block by block and
   dropped at the first block that holds an error above delta; that is
   exact, since the global maximum is at least any block's. The scan, as
   ``analyze_tensor``'s, screens each block in float32 and runs the
   float64 operations only on the few elements that may hold such an
   error (proof in ``_scan``), so every verdict is still the reference's.

``WeightTensor`` is the one statement of a valid tensor, in memory or on
disk: integer shape entries, none negative, as many values as the shape's
product, at least one, all finite. It records the float32 range once; the
analyses and ``distribution_stats`` read it. ``core`` reads and writes a
tensor's <name>.json metadata, as every JSON document;
``load_weight_tensor`` maps the .bin copy-on-write instead of copying it
(no ``np.fromfile`` read) and reports WeightTensor's refusals as
ParseErrors. WeightTensor's float32 array and every blocked pass above
are views of the mapping, so each analysis streams the tensor from the
page cache. Each command maps one tensor at a time: it drops a tensor,
and with it the mapping, before it loads the next, so its peak memory is
the interpreter plus the largest tensor. A .bin must not be truncated or
rewritten while a command runs: reading a truncated mapped file ends the
process with SIGBUS.

Only weights are quantized; biases stay untouched, so the tensor API
carries weight arrays exclusively. Rounding is half-away-from-zero, chosen
for its symmetry about 0.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import (REQUIRED, ParseError, gamma, json_text, load_json,
                   read_fields, read_ints, write_outputs)


# |skewness| above which _pick_scheme quantizes a two-sided range
# asymmetrically: skewed layers map better onto an affine grid
SKEW_THRESHOLD = 0.5


class InvalidShape(ValueError):
    pass


class SchemeKind(str, Enum):
    SYMMETRIC_SIGNED = "symmetric_signed"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class WeightTensor:
    layer_name: str
    values: np.ndarray  # float32, flat
    shape: tuple[int, ...]
    lo: float = field(init=False)  # the float32 range
    hi: float = field(init=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float32).ravel()
        # as the loader's read_ints: no float and no boolean; numpy integers,
        # as in values.shape, are integers
        if any(type(s) is bool or not isinstance(s, (int, np.integer)) for s in self.shape):
            raise InvalidShape(f"non-integer entry in shape {list(self.shape)}")
        shape = tuple(int(s) for s in self.shape)
        if any(s < 0 for s in shape):
            raise InvalidShape(f"negative entry in shape {list(shape)}")
        # math.prod is exact for any integer entries; an int64 product wraps
        if math.prod(shape) != v.size:
            raise ValueError(f"{v.size} values, shape {shape}")
        if v.size == 0:
            raise ValueError("empty tensor")
        # NaN and +/-inf reach the min/max pair, so finite ends prove every
        # value finite. + 0.0 reads a zero end as +0.0: which signed zero a
        # reduction returns depends on its lane order
        lo, hi = float(v.min()) + 0.0, float(v.max()) + 0.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{int(np.count_nonzero(~np.isfinite(v)))} "
                             "non-finite values (NaN or inf)")
        for key, value in (("values", v), ("shape", shape), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class LayerQuantRecord:
    layer_name: str
    bits: int
    scheme: SchemeKind
    scale: float
    zero_point: int  # 0 for symmetric
    max_abs_error: float
    feasible: bool


@dataclass(frozen=True)
class DistributionStats:
    layer_name: str
    count: int
    min: float
    max: float
    mean: float
    std: float
    skewness: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def distribution_stats(w: WeightTensor, bins: Optional[int] = 32) -> DistributionStats:
    """Moments and histogram of a weight tensor.

    Skewness is the population third standardized moment; it is defined as
    0 for constant tensors. The histogram spans [min, max] with equal-width
    bins (a single bin when min == max) and its counts sum to the element
    count; ``bins=None`` skips it and leaves ``bin_edges`` and ``counts``
    empty. A given ``bins`` is at least 1, as ``quantize --bins`` parses it.

    Two passes of ``_BLOCK`` elements at a time, each block cast into one
    reused float64 buffer: the first sums (and bins) the values, the second
    sums the squared and cubed deviations from the mean. A moment is the
    sum of the per-block sums over n: for a tensor of at most one block,
    the whole-array float64 sums bit for bit; past one block, it may differ
    from them in the last bits. Each block is binned in float64 over the
    fixed range [min, max], so the counts are exact either way.
    """
    values, n = w.values, w.values.size
    x, buf = _work().x, _work().buf
    binned = bins is not None and w.lo != w.hi
    total, counts = 0.0, 0
    # .sum() is numpy's pairwise sum; a BLAS dot product would make the
    # moments depend on the BLAS build and its thread count
    for xb in _float64_blocks(values, x):
        total += float(xb.sum())
        if binned:
            block_counts, edges = np.histogram(xb, bins=bins, range=(w.lo, w.hi))
            counts = counts + block_counts
    mean = total / n
    # d*d and (d*d)*d: numpy has no fast path for ** 3, which goes through
    # pow per element; d*d is exactly what ** 2 computes
    sum2 = sum3 = 0.0
    for d in _float64_blocks(values, x):
        d -= mean
        dd = buf[:d.size]
        np.multiply(d, d, out=dd)
        sum2 += float(dd.sum())
        dd *= d
        sum3 += float(dd.sum())
    m2 = sum2 / n
    std = math.sqrt(m2)
    skew = 0.0 if m2 == 0.0 else sum3 / n / m2 ** 1.5
    if bins is None:
        edges, counts = (), ()
    elif not binned:
        edges, counts = (w.lo, w.hi), (n,)
    return DistributionStats(
        layer_name=w.layer_name, count=n,
        min=w.lo, max=w.hi, mean=mean, std=std, skewness=skew,
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


# ---------------------------------------------------------------------------
# Weight tensor files: <name>.json metadata + <name>.bin little-endian f32
# ---------------------------------------------------------------------------

def save_weight_tensor(w: WeightTensor, directory) -> str:
    """Write <layer_name>.json and .bin into ``directory``; the .json path."""
    meta = {"name": w.layer_name, "shape": list(w.shape),
            "dtype": "f32", "order": "row-major"}
    stem = os.path.join(directory, w.layer_name)
    write_outputs((stem + ".json", json_text(meta)),
                  (stem + ".bin", np.asarray(w.values, dtype="<f4")))
    return stem + ".json"


_META = (("name", str, REQUIRED), ("shape", read_ints, REQUIRED),
         ("dtype", str, REQUIRED), ("order", str, REQUIRED))


def load_weight_tensor(json_path) -> WeightTensor:
    """The tensor a metadata file and its .bin describe; ParseError on a
    malformed file, a field of the wrong JSON type (``shape`` a list of
    integers, the rest strings), a ``name`` other than the file's stem, a
    .bin that ends in a partial float32 value, or a tensor WeightTensor
    refuses, naming the .json for a bad shape or name and the .bin for
    data that do not fit it.

    The values are the .bin mapped copy-on-write: writable, and no write
    reaches the file. The file must not be truncated while the tensor is
    alive (see the module docstring)."""
    where = str(json_path)
    name, dims, dtype, order = read_fields(load_json(json_path), _META, where)
    if dtype != "f32" or order != "row-major":
        raise ParseError(f"{where}: unsupported dtype/order {dtype}/{order}")
    stem = os.path.splitext(where)[0]
    if name != os.path.basename(stem):
        raise ParseError(f"{where}: name {name!r} is not the file's stem")
    bin_path = stem + ".bin"
    try:
        with open(bin_path, "rb", buffering=0) as f:
            size = os.fstat(f.fileno()).st_size
            if size % 4:
                raise ValueError(f"{size} bytes, not a whole number of float32 values")
            # mmap refuses length 0; WeightTensor refuses the empty tensor
            values = np.empty(0, "<f4") if size == 0 else np.frombuffer(
                mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY), "<f4")
        return WeightTensor(name, values, tuple(dims))
    except OSError as e:
        raise ParseError(f"{bin_path}: {e}") from e
    except ValueError as e:
        raise ParseError(f"{where if isinstance(e, InvalidShape) else bin_path}: {e}") from e


# ---------------------------------------------------------------------------
# The blocked kernel behind the quantize report and feasible_bits
# ---------------------------------------------------------------------------

# Elements per block of the error scan: 256 KiB per float64 buffer, so a
# block and its work buffers stay in cache while every width passes over it
_BLOCK = 1 << 15
# 8u, with u = 2^-53 the float64 unit roundoff: the rounding slack per unit
# of magnitude in the a-priori error bound (see _certified)
_SLACK = 8 * 2.0 ** -53


class _Grid(NamedTuple):
    """One width's grid as the reference quantizer builds it: codes in
    [-top, top] (symmetric) or [0, top] less zero_point (asymmetric), times
    scale."""
    bits: int
    scale: float
    zero_point: int
    top: int


def _grids(scheme: SchemeKind, w: WeightTensor,
           widths: list[int]) -> tuple[list[_Grid], bool]:
    """Each width's grid over the tensor's range [lo, hi], and whether it
    is flat: all zeros (symmetric) or constant (asymmetric), which every
    width represents with error 0."""
    lo, hi = w.lo, w.hi
    if scheme is SchemeKind.SYMMETRIC_SIGNED:
        peak = max(-lo, hi)
        if peak == 0.0:
            return [_Grid(b, 1.0, 0, 0) for b in widths], True
        qmaxes = [(1 << (b - 1)) - 1 for b in widths]
        return [_Grid(b, peak / q, 0, q) for b, q in zip(widths, qmaxes)], False
    if hi == lo:
        return [_Grid(b, 0.0, 0, 0) for b in widths], True
    grids = []
    for b in widths:
        levels = (1 << b) - 1
        scale = (hi - lo) / levels
        # -lo / scale rounded half away from zero (scale > 0)
        zero_point = math.floor(abs(lo) / scale + 0.5)
        if lo > 0:
            zero_point = -zero_point
        grids.append(_Grid(b, scale, zero_point, levels))
    return grids, False


def _float64_blocks(values: np.ndarray, x: np.ndarray) -> Iterable[np.ndarray]:
    """Each ``_BLOCK``-element block of the float32 ``values``, cast into
    the front of the float64 buffer ``x``, which the next block overwrites.
    The cast comes first: a float32 block minus a Python float would be
    computed, and rounded, in float32."""
    for start in range(0, values.size, _BLOCK):
        chunk = values[start:start + _BLOCK]
        xb = x[:chunk.size]
        xb[...] = chunk
        yield xb


def _pick_scheme(w: WeightTensor, scheme: Optional[SchemeKind],
                 stats: Optional[DistributionStats] = None) -> SchemeKind:
    """The one scheme rule of both analysis entry points: the forced scheme
    if there is one; else symmetric signed for a range that straddles 0
    with |skewness| <= SKEW_THRESHOLD, else asymmetric. The skewness is
    ``stats``'s when the caller has it, never needed for a one-sided range,
    and otherwise compared with the threshold by ``_skew_verdict``, which
    takes the moments of ``distribution_stats`` only when its float32
    estimate cannot tell."""
    if scheme is not None:
        return scheme
    if not w.lo < 0 < w.hi:
        return SchemeKind.ASYMMETRIC
    if stats is not None:
        within = abs(stats.skewness) <= SKEW_THRESHOLD
    else:
        within = _skew_verdict(w)
        if within is None:
            within = abs(distribution_stats(w, None).skewness) <= SKEW_THRESHOLD
    return SchemeKind.SYMMETRIC_SIGNED if within else SchemeKind.ASYMMETRIC


def _skew_verdict(w: WeightTensor) -> Optional[bool]:
    """Whether ``distribution_stats(w, None).skewness`` is at most
    SKEW_THRESHOLD in magnitude, decided from float32 sums, or None when
    the estimate is too close to the threshold to tell (or the range is
    outside the bound's gate: V = max(|lo|, |hi|) in [2^-12, 2^20]).

    One pass over the blocks sums x, x*x and (x*x)*x in float32 (numpy's
    own order, which the bound does not assume) and adds the block sums
    in float64, giving m, a2 and a3, the raw moments about 0. Then
    M2 = a2 - m^2 and M3 = a3 - 3 m a2 + 2 m^3 are the central moments
    and g = M3 / M2^1.5 the skewness, up to the error below.

    Bound. Each term of a block sum passes through at most k + 1
    roundings in float32 (two products, k - 1 additions over a block of
    k elements, any order) and through nb + 1 in float64 (the nb block
    sums, the division by n), so with rho = gamma32(k + 2) +
    gamma64(nb + 2) + 2^-40 (the last term covering the product of the
    two gammas and products that underflow, at most 2^-126 each, flushed
    or not: as V >= 2^-12 and n < 2^40, n of them stay below 2^-49 of
    V^3 <= V sum x^2), and the exact moments written without hats:
    |m^ - m| <= rho sum|x| / n <= rho sqrt(a2) = e1
    (Cauchy-Schwarz), |a2^ - a2| <= rho a2, and
    |a3^ - a3| <= rho sum|x|^3 / n <= rho V a2. With A = a2^ / (1 - rho)
    >= a2, propagating these through M2 and M3 gives
    |M2^ - M2| <= rho A + e1 (2|m^| + e1) and
    |M3^ - M3| <= rho V A + 3 (|m^| rho A + A e1) + 6 e1 (|m^| + e1)^2.
    Both are doubled, which covers the float64 roundings of evaluating
    M2^, M3^ and the bounds themselves (below 100 u64 of A and of V A,
    against rho > 2^-23). So the true |g| lies in [glo, ghi] =
    [(|M3^| - E3) / (M2^ + E2)^1.5, (|M3^| + E3) / (M2^ - E2)^1.5].

    ``distribution_stats`` itself rounds: its mean is within
    rho' sqrt(a2) of m and its sums of d^2 and d^3 about that mean within
    rho' of sum d^2 and rho' D sum d^2, D <= 2.01 V, with
    rho' = gamma64(k + nb + 4). Carried through its formula,
    |g64 - g| <= |g| (2 rho' + 7 u64 + 1.5 q^2) + 5.2 q with
    q = rho' V / sqrt(M2); when q <= 2^-24 that is below
    2^-20 (1 + |g|). The verdict takes twice that, for the roundings of
    its own test: symmetric when ghi + 2^-19 (1 + ghi) < SKEW_THRESHOLD,
    asymmetric when glo - 2^-19 (1 + ghi) > SKEW_THRESHOLD.
    """
    values, n = w.values, w.values.size
    peak = max(-w.lo, w.hi)
    if not (2.0 ** -12 <= peak <= 2.0 ** 20 and n < 2 ** 40):
        return None
    k, nb = min(n, _BLOCK), -(-n // _BLOCK)
    rho = gamma(k + 2, 2.0 ** -24) + gamma(nb + 2, 2.0 ** -53) + 2.0 ** -40
    sums = [0.0, 0.0, 0.0]
    p = _work().t
    for start in range(0, n, _BLOCK):
        chunk = values[start:start + _BLOCK]
        pb = p[:chunk.size]
        sums[0] += float(np.add.reduce(chunk))
        np.multiply(chunk, chunk, out=pb)
        sums[1] += float(np.add.reduce(pb))
        pb *= chunk
        sums[2] += float(np.add.reduce(pb))
    m, a2, a3 = (total / n for total in sums)
    bound = a2 / (1 - rho)
    e1, am = rho * math.sqrt(bound), abs(m)
    m2 = a2 - m * m
    m3 = abs(a3 - 3 * m * a2 + 2 * m ** 3)
    e2 = 2 * (rho * bound + e1 * (2 * am + e1))
    e3 = 2 * (rho * peak * bound + 3 * (am * rho * bound + bound * e1)
              + 6 * e1 * (am + e1) ** 2)
    if m2 - e2 <= 0 or gamma(k + nb + 4, 2.0 ** -53) * peak > 2.0 ** -24 * math.sqrt(m2 - e2):
        return None
    high = (m3 + e3) / (m2 - e2) ** 1.5
    low = (m3 - e3) / (m2 + e2) ** 1.5
    margin = 2.0 ** -19 * (1 + high)
    if high + margin < SKEW_THRESHOLD:
        return True
    if low - margin > SKEW_THRESHOLD:
        return False
    return None


def analyze_tensor(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                   scheme: Optional[SchemeKind] = None, bins: Optional[int] = 32,
                   ) -> tuple[list[LayerQuantRecord], Optional[DistributionStats]]:
    """Per-bit error records for one layer, plus its distribution stats
    with a ``bins``-bin histogram exactly when ``bins`` is not None.

    When no scheme is forced, the layer uses the scheme recommended from
    its own weight distribution (see _pick_scheme), then every width's
    exact error comes from one blocked scan with no early stop.
    """
    widths = sorted(set(bit_menu))
    stats = None if bins is None else distribution_stats(w, bins)
    used = _pick_scheme(w, scheme, stats)
    grids, flat = _grids(used, w, widths)
    errors = [0.0] * len(grids) if flat else _scan(w, used, grids)
    records = [LayerQuantRecord(
        layer_name=w.layer_name, bits=g.bits, scheme=used, scale=g.scale,
        zero_point=g.zero_point, max_abs_error=err, feasible=err <= delta)
        for g, err in zip(grids, errors)]
    return records, stats


def feasible_bits(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                  scheme: Optional[SchemeKind] = None) -> tuple[int, ...]:
    """Bit-widths from the menu whose quantization error stays within delta.

    Verdicts, not errors: each equals ``analyze_tensor``'s ``feasible``,
    reached by the module docstring's four steps (lazy pick, one-sided
    scheme, certify, witness by blocks). ``scheme=None``, the default, gives
    the verdicts of the scheme recommended from the tensor's own
    distribution, as ``analyze_tensor`` does. The empty tuple is a legal
    result (the layer cannot be quantized at any offered width without
    exceeding the error budget).
    """
    widths = sorted(set(bit_menu))
    if scheme is None and w.lo < 0 < w.hi:
        # equal verdicts are the recommended scheme's whichever it is: the
        # moments only break a disagreement
        sym = _verdicts(w, widths, delta, SchemeKind.SYMMETRIC_SIGNED)
        asym = _verdicts(w, widths, delta, SchemeKind.ASYMMETRIC)
        if sym == asym or _pick_scheme(w, None) is SchemeKind.ASYMMETRIC:
            return asym
        return sym
    return _verdicts(w, widths, delta, _pick_scheme(w, scheme))


def _verdicts(w: WeightTensor, widths: list[int], delta: float,
              scheme: SchemeKind) -> tuple[int, ...]:
    """The widths feasible under one scheme: certified, or witnessed by
    blocks (steps 2 and 3)."""
    grids, flat = _grids(scheme, w, widths)
    if flat:
        return tuple(widths)
    slack = _slack(w, scheme)
    pending = [g for g in grids if not _certified(g.scale, slack, delta)]
    errors = _scan(w, scheme, pending, delta)
    dropped = {g.bits for g, err in zip(pending, errors) if err > delta}
    return tuple(b for b in widths if b not in dropped)


def _slack(w: WeightTensor, scheme: SchemeKind) -> float:
    """The rounding slack of the a-priori bound (see _certified)."""
    magnitude = max(-w.lo, w.hi)
    if scheme is SchemeKind.ASYMMETRIC:
        magnitude += w.hi - w.lo
    return _SLACK * magnitude


def _certified(scale: float, slack: float, delta: float) -> bool:
    """Whether the a-priori rounding bound alone proves a width feasible:
    slack <= s/4 and s/2 + slack <= delta, in float64.

    Lemma: the reference's computed max-abs error at scale s is at most
    s/2 + slack, slack = 8u V (symmetric) or 8u (V + R) (asymmetric), with
    u = 2^-53, V = max(|lo|, |hi|) and R = hi - lo. Proof, in the
    standard model fl(x op y) = (x op y)(1 + e), |e| <= u (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2.2), dropping
    terms of order u^2 V. Float32 values and the scales they give are
    normal in float64 (s >= 2^-149 / 2^32), so no operation underflows.

    Symmetric, a = |v| <= V, qmax = top, s = fl(V/qmax): the rounded
    fl(a/s) + 0.5 is within u(2a/s + 1/2) of a/s + 1/2, so its floor k
    has |k - a/s| <= 1/2 + u(2V/s + 1/2). Clipping to qmax moves k past
    a/s by at most a/s - qmax <= u qmax, and u qmax s <= uV. So
    |k s - a| <= s/2 + 2uV + us/2; the product k s (|k s| <= V) adds uV
    and the subtraction u(s/2 + 3uV). With s <= V the computed error is
    at most s/2 + 4uV.

    Asymmetric, s = fl(fl(R)/levels), levels = top: the code
    c = round(fl(v/s)) has |c - v/s| <= 1/2 + u(2V/s + 1/2), and the
    zero-point z = round(fl(-lo/s)) has |z + lo/s| <= 1/2 + u(2V/s + 1/2)
    too. slack <= s/4 gives V/s <= 1/(32u) = 2^48, so |c|, |z| < 2^49:
    c + z, its clip to [0, levels] and the subtraction of z are exact, and
    the effective code is k = clip(c + z, 0, levels) - z. Unclipped, k = c.
    Clipped at 0, c < k = -z and -z <= lo/s + 1/2 + u(2V/s + 1/2) with
    lo <= v, so k - v/s lies within the same bound as c - v/s. Clipped at
    levels, c > k = levels - z >= v/s - 1/2 - u(2V/s + 1/2) - 2u levels,
    since R/s <= levels (1 + 2u) and v <= hi. With levels s <= R(1 + 2u),
    |k s - v| <= s/2 + 2uV + us/2 + 2uR; the product (|k s| <= V + s)
    adds u(V + s) and the subtraction us/2. With s <= R/3 the computed
    error is at most s/2 + 3u(V + R).

    Verdict: s * 0.5 is exact, slack >= 8u M (1 - 3u) for the slack's
    magnitude M (V or V + R), and the rounded sum s/2 + slack loses at
    most u(s/2 + slack) <= uM. If it is <= delta, the computed error is
    at most s/2 + 4uM < s/2 + 7uM - O(u^2 M) <= delta: the reference
    finds the width feasible. The margin covers the bound's dropped terms
    several times over; the tests check the lemma on random and
    adversarial tensors at every width.
    """
    return slack <= scale * 0.25 and scale * 0.5 + slack <= delta


def _scan(w: WeightTensor, scheme: SchemeKind, grids: list[_Grid],
          delta: float = math.inf) -> list[float]:
    """Max-abs error of each grid over the tensor's float32 values, block
    by block.

    Every live grid passes over a block while it is in cache. With
    delta = inf (the ``quantize`` report) no grid is dropped, and every
    entry is the exact maximum: block maxima combine to the same float.
    With a finite delta (the filter) an entry is a lower bound of the
    maximum that exceeds delta exactly when the maximum does, and a grid
    is dropped after the first block where it does: the unscreened scan's
    early stop, since the global maximum is at least any block's.

    Screen. A grid at scale s is screened when a = fl32(1/s) is a normal
    float32 and eps <= 2^-6, with

        eps = 3 * 2^-24 * reach + 2 * slack / s + 2^-149,

    reach = max(|lo|, |hi|) / s from the recorded range and slack as in
    ``_certified``; any other grid runs the reference's float64 operations
    (``_block_error``) on every whole block. In a screened block, float32
    operations on the stored values give each element's distance to the
    grid in steps, d~ = |t~ - rint(t~)| with t~ = fl32(v * a), and only
    the elements the threshold keeps are cast to float64 (|v| under the
    symmetric scheme) and passed to ``_block_error``:

    - in the first block, d~ >= max d~ - 2 eps;
    - in every later block, d~ >= T/s - eps, with T the grid's running
      maximum error E when delta = inf, else delta. A block that keeps
      nothing costs no max pass and no float64 operation.

    On the report path the kept elements of later blocks wait in a buffer
    of at most ``_BLOCK`` elements and are evaluated together, and E is
    updated only then: a stale E is smaller, so it keeps a superset. The
    filter evaluates each block's kept elements at once, so its early
    stop comes at the same block.

    Lemma: each element's d~ is within eps - 2^-26 of its reference error
    e in steps, e / s. Proof, in the model of ``_certified``, with t = v/s
    and dist(y) = |y - rint(y)|, the distance to the nearest integer,
    which is 1-Lipschitz and even (so taking |v| changes nothing), and
    which moves by integers (so the zero-point changes nothing).
    Float32 side: a = (1/s)(1 + e1), |e1| <= 2^-24 + u, from the float64
    quotient and its float32 rounding; fl32(v a) = v a (1 + e2) + h, with
    |e2| <= 2^-24 and |h| <= 2^-150 for a subnormal product; |t| <= reach
    <= 2^18, so |t~ - t| <= (2^-23 + 2^-47) reach + 2^-150. rint is exact,
    and so is t~ - rint(t~): rint(t~) is 0 or within a factor 2 of t~
    (Sterbenz). So d~ = dist(t~) and |d~ - dist(t)| <= |t~ - t|.
    Float64 side: eps <= 2^-6 gives slack <= s/4, so ``_certified``'s
    lemma holds: the reference's effective code k is an integer with
    |k - t| <= 1/2 + n, n = u(2V/s + 1/2) (symmetric) or
    u(2V/s + 1/2) + 2u levels (asymmetric, levels s <= R(1 + 2u)), and
    its product and subtraction add at most u(V + 2s). Since n < 1/2, k
    is t's nearest integer, or t is within n of a half-integer and k its
    other neighbour; either way ||k - t| - dist(t)| <= 2n, and
    |e/s - dist(t)| <= 5uV/s + 4uR/s + 3u, below 2 slack / s as
    V/s >= 1 (symmetric) and R/s >= 3 (asymmetric). The sum is within
    eps less its float32 term's excess over its bound, more than
    2^-25 reach >= 2^-26.
    First block: let j be an element of the block's largest reference
    error. For every element i, d~_j >= e_j/s - eps >= e_i/s - eps >=
    d~_i - 2 eps, so d~_j >= max d~ - 2 eps: j is kept, and the kept
    elements' maximum error is the block's, bit for bit.
    Later blocks: T is an exact float64 error or delta. Any element with
    e > T has d~ > T/s - eps + 2^-26, and only T < 3s/4 can matter, since
    no error exceeds s/2 + slack <= 3s/4; there fl(fl(T/s) - eps) is
    within 2^-52 of T/s - eps, so the element is kept, one eps sufficing.
    With T = E, a block whose maximum exceeds E keeps an element of that
    maximum, and one that does not leaves E as it is. With T = delta, a
    block that holds an error above delta keeps one, and the grid is
    dropped there.
    Each threshold is compared as the largest float32 not above its
    float64 value, which keeps exactly the float32 d~ that are not below
    that value. Every error and every early stop is the unscreened
    scan's.
    """
    symmetric = scheme is SchemeKind.SYMMETRIC_SIGNED
    slack, peak = _slack(w, scheme), max(-w.lo, w.hi)
    values, work = w.values, _work()
    scans = [_GridScan(g, _screen(g.scale, peak, slack), symmetric, delta) for g in grids]
    live = scans
    for start in range(0, values.size, _BLOCK):
        if not live:
            break
        chunk = values[start:start + _BLOCK]
        for g in live:
            g.block(chunk, work, start == 0)
        live = [g for g in live if g.error <= delta]
    for g in scans:
        g.flush(work)
    return [g.error for g in scans]


class _Work(NamedTuple):
    """The buffers of the blocked passes, one block long: float64 ``x``
    (the elements the reference operations read), ``buf`` and ``mag``;
    float32 ``t`` and ``r`` of the screen, and its boolean ``mask``."""
    x: np.ndarray
    buf: np.ndarray
    mag: np.ndarray
    t: np.ndarray
    r: np.ndarray
    mask: np.ndarray


_local = threading.local()


def _work() -> _Work:
    """This thread's buffers, made on first use and reused by every later
    pass: a fresh quarter-megabyte buffer costs more in page faults than
    screening a block does."""
    work = getattr(_local, "work", None)
    if work is None:
        work = _local.work = _Work(
            np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK),
            np.empty(_BLOCK, np.float32), np.empty(_BLOCK, np.float32),
            np.empty(_BLOCK, bool))
    return work


# the normal float32 range, as Python floats: compared with a numpy
# float32, a Python float would be cast to float32 first
_NORMAL32 = (float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max))


def _screen(scale: float, peak: float, slack: float) -> Optional[tuple[np.float32, float]]:
    """(fl32(1/s), eps) of a grid that ``_scan`` screens, else None."""
    inverse = 1.0 / scale
    if not _NORMAL32[0] <= inverse <= _NORMAL32[1]:
        return None
    eps = 3 * 2.0 ** -24 * (peak / scale) + 2 * slack / scale + 2.0 ** -149
    return (np.float32(inverse), eps) if eps <= 2.0 ** -6 else None


def _floor32(value: float) -> np.float32:
    """The largest float32 not above ``value``, a threshold on d~ <= 1/2:
    one above 1 keeps nothing, as 1 does."""
    value = min(value, 1.0)
    threshold = np.float32(value)
    if float(threshold) > value:
        threshold = np.nextafter(threshold, np.float32(-np.inf))
    return threshold


class _GridScan:
    """One grid's pass in ``_scan``: its running error, its threshold for
    the blocks after the first, and on the report path the kept elements
    not yet evaluated."""

    def __init__(self, grid: _Grid, screen: Optional[tuple[np.float32, float]],
                 symmetric: bool, delta: float):
        self.grid, self.screen, self.symmetric = grid, screen, symmetric
        # a finite delta fixes the threshold; the report's follows E
        self.ceiling = None if math.isinf(delta) else delta
        self.error = 0.0
        self.threshold = None
        self.pending, self.count = [], 0

    def block(self, chunk: np.ndarray, work: _Work, first: bool) -> None:
        """Screen one float32 block and evaluate, or hold, what it keeps."""
        if self.screen is None:
            self._evaluate(chunk, work)
            return
        n = chunk.size
        t, r, mask = work.t[:n], work.r[:n], work.mask[:n]
        np.multiply(chunk, self.screen[0], out=t)
        np.rint(t, out=r)
        t -= r
        np.abs(t, out=t)
        threshold = _floor32(float(t.max()) - 2 * self.screen[1]) if first else self.threshold
        np.greater_equal(t, threshold, out=mask)
        if not first and not mask.any():
            return
        # compress, not a boolean index, which is several times slower on
        # a scattered mask of a few thousand elements
        kept = chunk.compress(mask)
        if first or self.ceiling is not None:
            self._evaluate(kept, work)
            return
        if self.count + kept.size > _BLOCK:
            self.flush(work)
        self.pending.append(kept)
        self.count += kept.size

    def flush(self, work: _Work) -> None:
        """Evaluate the held elements."""
        if self.count:
            kept = np.concatenate(self.pending)
            self.pending, self.count = [], 0
            self._evaluate(kept, work)

    def _evaluate(self, kept: np.ndarray, work: _Work) -> None:
        """Fold the reference error of some float32 elements into the
        running error, and set the threshold that follows from it."""
        x = work.x[:kept.size]
        if self.symmetric:
            np.abs(kept, out=x)
        else:
            x[...] = kept
        err = _block_error(x, work.buf[:kept.size], work.mag[:kept.size],
                           self.symmetric, self.grid)
        self.error = max(self.error, err)
        if self.screen is not None:
            bound = self.error if self.ceiling is None else self.ceiling
            self.threshold = _floor32(bound / self.grid.scale - self.screen[1])


def _block_error(x: np.ndarray, buf: np.ndarray, mag: np.ndarray,
                 symmetric: bool, grid: _Grid) -> float:
    """Max-abs error of one grid over some elements by the reference's own
    float64 operations, in place: ``x`` holds the elements (|v| under the
    symmetric scheme), ``buf`` and ``mag`` are work buffers of its size.

    Symmetric: |v/s| == |v|/s and negation are exact, so
    | |v| - min(floor(|v|/s + 0.5), qmax) * s | is the reference error bit
    for bit.

    Asymmetric: rounds as copysign(floor(|x| + 0.5), x), the reference's
    half-away rounding bit for bit, then adds the zero-point, clips and
    subtracts it again in float64. Code and zero-point are integers held
    exactly in float64, so the subtraction rounds their exact difference
    once, as the reference's int64 difference is rounded once when it is
    multiplied by the scale (the difference passes 2^53 only for 32-bit
    widths on a narrow range far from 0).
    """
    np.divide(x, grid.scale, out=buf)
    if symmetric:
        buf += 0.5
        np.floor(buf, out=buf)
        np.minimum(buf, grid.top, out=buf)
    else:
        np.abs(buf, out=mag)
        mag += 0.5
        np.floor(mag, out=mag)
        np.copysign(mag, buf, out=buf)
        buf += grid.zero_point
        np.maximum(buf, 0, out=buf)
        np.minimum(buf, grid.top, out=buf)
        buf -= grid.zero_point
    buf *= grid.scale
    buf -= x
    np.abs(buf, out=buf)
    return float(buf.max())
