"""Uniform weight quantization (symmetric signed and asymmetric), the
max-absolute-error feasibility test with its linearized form, per-layer
feasible-bit filtering, and weight-distribution statistics.

``quantize_symmetric``, ``quantize_asymmetric`` and ``max_abs_error``
build the codes and the dequantized values explicitly; they are the
independent reference. Both analysis entry points run one cache-blocked
kernel instead: it evaluates the reference's float64 operations in place,
32,768 elements (256 KiB of float64) at a time, building no code or
dequantized arrays.

``analyze_tensor``, behind the ``quantize`` report, computes every
width's exact error, equal to the reference's bit for bit: the maxima of
the blocks combine to the same float. The histogram is computed only
when asked for; of the commands only ``quantize`` reports it.

``feasible_bits``, the ``plan``/``export-lp --weights-dir`` filter,
reports verdicts, not errors: the widths whose reference error is at most
delta, with no error computed that a verdict does not need.

1. One-sided scheme. With no scheme forced, a tensor whose range does not
   straddle 0 is quantized asymmetrically whatever its skewness, so only a
   two-sided tensor pays for the moments.
2. Certify. The reference's error at scale s is at most s/2 + slack, with
   slack = 8u max(|min|, |max|) (symmetric) or
   8u (max(|min|, |max|) + max - min) (asymmetric) and u = 2^-53 (proof in
   ``_certified``). A width with s/2 + slack <= delta, and slack <= s/4,
   is feasible without a pass over the data.
3. Witness by blocks. Every other width is scanned block by block and
   dropped at the first block whose maximum error exceeds delta; that is
   exact, since the global maximum is at least any block's.

Only weights are quantized; biases stay untouched, so the tensor API
carries weight arrays exclusively. Rounding is half-away-from-zero, chosen
for its symmetry about 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import ParseError, check_bits


# |skewness| above which recommend_scheme picks the asymmetric scheme
SKEW_THRESHOLD = 0.5


class ShapeMismatch(ValueError):
    pass


class SchemeKind(str, Enum):
    SYMMETRIC_SIGNED = "symmetric_signed"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class WeightTensor:
    layer_name: str
    values: np.ndarray  # float32, flat
    shape: tuple[int, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float32).ravel()
        if int(np.prod(self.shape)) != v.size:
            raise ShapeMismatch(
                f"{self.layer_name}: shape {self.shape} does not match {v.size} values")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{self.layer_name}: non-finite weight values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))


@dataclass(frozen=True)
class SymmetricResult:
    codes: np.ndarray  # signed integers in [-qmax, qmax]
    scale: float
    dequantized: np.ndarray


@dataclass(frozen=True)
class AsymmetricResult:
    codes: np.ndarray  # unsigned integers in [0, 2^b - 1]
    scale: float
    zero_point: int
    dequantized: np.ndarray


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


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_symmetric(w: WeightTensor, bits: int) -> SymmetricResult:
    """Signed symmetric quantization with 2^(b-1)-1 levels each side of 0.

    The extreme value max|w| maps exactly to +/-qmax, so no element is
    pushed past its nearest level and the error never exceeds scale/2.
    """
    check_bits(bits)
    qmax = (1 << (bits - 1)) - 1
    # float64 throughout: a float32 division would underflow tiny scales
    # to zero and round dequantized values past the scale/2 error bound
    v = w.values.astype(np.float64)
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    if peak == 0.0:
        codes = np.zeros(v.size, dtype=np.int64)
        return SymmetricResult(codes, 1.0, np.zeros(v.size))
    scale = peak / qmax
    codes = np.clip(_round_half_away(v / scale), -qmax, qmax).astype(np.int64)
    return SymmetricResult(codes, scale, codes * scale)


def quantize_asymmetric(w: WeightTensor, bits: int) -> AsymmetricResult:
    """Min-max affine quantization onto [0, 2^b - 1] with a zero-point."""
    check_bits(bits)
    v = w.values.astype(np.float64)
    lo = float(np.min(v)) if v.size else 0.0
    hi = float(np.max(v)) if v.size else 0.0
    levels = (1 << bits) - 1
    if hi == lo:
        codes = np.zeros(v.size, dtype=np.int64)
        return AsymmetricResult(codes, 0.0, 0, v.copy())
    scale = (hi - lo) / levels
    # zero_point is deliberately not clamped into [0, levels]: for one-sided
    # ranges the clamp would shift the whole grid off [min, max] and the
    # error could reach the full range instead of scale/2. Codes themselves
    # always land in [0, levels] because round is monotone and the extremes
    # map to 0 and levels exactly.
    zero_point = int(_round_half_away(np.array(-lo / scale)))
    codes = np.clip(_round_half_away(v / scale) + zero_point, 0, levels)
    codes = codes.astype(np.int64)
    return AsymmetricResult(codes, scale, zero_point, (codes - zero_point) * scale)


def dequantize(w: WeightTensor, bits: int, scheme: SchemeKind) -> np.ndarray:
    if scheme is SchemeKind.SYMMETRIC_SIGNED:
        return quantize_symmetric(w, bits).dequantized
    return quantize_asymmetric(w, bits).dequantized


def max_abs_error(original: np.ndarray, quantized: np.ndarray) -> float:
    """max over elements of |original - quantized|."""
    a = np.asarray(original, dtype=np.float64).ravel()
    b = np.asarray(quantized, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def check_linearized(original: np.ndarray, quantized: np.ndarray,
                     delta: float) -> bool:
    """Two-sided element-wise test: (o - q <= delta) and (o - q >= -delta).

    Logically equivalent to max_abs_error(o, q) <= delta; kept as a
    separate code path so the equivalence can be tested, not assumed.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    a = np.asarray(original, dtype=np.float64).ravel()
    b = np.asarray(quantized, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    diff = a - b
    return bool(np.all(diff <= delta) and np.all(diff >= -delta))


def distribution_stats(w: WeightTensor, bins: Optional[int] = 32) -> DistributionStats:
    """Moments and histogram of a weight tensor.

    Skewness is the population third standardized moment; it is defined as
    0 for constant tensors. The histogram spans [min, max] with equal-width
    bins (a single bin when min == max) and its counts sum to the element
    count; ``bins=None`` skips it and leaves ``bin_edges`` and ``counts``
    empty.
    """
    if bins is not None and bins < 1:
        raise ValueError("bins must be >= 1")
    v = w.values.astype(np.float64)
    lo, hi = float(v.min()), float(v.max())
    mean = float(v.mean())
    # d*d and (d*d)*d: numpy has no fast path for ** 3, which goes through
    # pow per element; d*d is exactly what ** 2 computes
    d = v - mean
    dd = d * d
    m2 = float(np.mean(dd))
    std = math.sqrt(m2)
    if m2 == 0.0:
        skew = 0.0
    else:
        dd *= d
        skew = float(np.mean(dd)) / m2 ** 1.5
    del d, dd  # freed before the histogram
    if bins is None:
        edges, counts = (), ()
    elif lo == hi:
        edges = np.array([lo, hi])
        counts = np.array([v.size])
    else:
        counts, edges = np.histogram(v, bins=bins, range=(lo, hi))
    return DistributionStats(
        layer_name=w.layer_name, count=int(v.size),
        min=lo, max=hi, mean=mean, std=std, skewness=skew,
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


def recommend_scheme(stats: DistributionStats,
                     skew_threshold: float = SKEW_THRESHOLD) -> SchemeKind:
    """Symmetric for roughly zero-centered distributions, else asymmetric.

    Symmetric signed needs zero strictly inside the value range; one-tailed
    or skewed layers map better onto an affine grid.
    """
    if abs(stats.skewness) <= skew_threshold and stats.min < 0 < stats.max:
        return SchemeKind.SYMMETRIC_SIGNED
    return SchemeKind.ASYMMETRIC


# ---------------------------------------------------------------------------
# Weight tensor files: <name>.json metadata + <name>.bin little-endian f32
# ---------------------------------------------------------------------------

def save_weight_tensor(w: WeightTensor, directory, name: Optional[str] = None) -> str:
    name = name or w.layer_name
    meta = {"name": w.layer_name, "shape": list(w.shape),
            "dtype": "f32", "order": "row-major"}
    json_path = os.path.join(directory, f"{name}.json")
    with open(json_path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(directory, f"{name}.bin"), "wb") as f:
        f.write(w.values.astype("<f4").tobytes())
    return json_path


def load_weight_tensor(json_path) -> WeightTensor:
    try:
        with open(json_path) as f:
            meta = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"{json_path}: {e}") from e
    for key in ("name", "shape", "dtype", "order"):
        if key not in meta:
            raise ParseError(f"{json_path}: missing key '{key}'")
    if meta["dtype"] != "f32" or meta["order"] != "row-major":
        raise ParseError(f"{json_path}: unsupported dtype/order "
                         f"{meta['dtype']}/{meta['order']}")
    bin_path = os.path.splitext(str(json_path))[0] + ".bin"
    try:
        raw = np.fromfile(bin_path, dtype="<f4")
    except OSError as e:
        raise ParseError(f"{bin_path}: {e}") from e
    shape = tuple(int(s) for s in meta["shape"])
    if raw.size != int(np.prod(shape)):
        raise ParseError(f"{bin_path}: {raw.size} values, shape {shape}")
    if raw.size == 0:
        raise ParseError(f"{bin_path}: empty tensor")
    try:
        return WeightTensor(layer_name=str(meta["name"]), values=raw, shape=shape)
    except ValueError as e:  # the size matches, so the values are not finite
        raise ParseError(f"{bin_path}: {int(np.count_nonzero(~np.isfinite(raw)))} "
                         "non-finite values (NaN or inf)") from e


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


def _checked_widths(bit_menu: Iterable[int], delta: float) -> list[int]:
    if not delta >= 0:  # also rejects NaN
        raise ValueError("delta must be >= 0")
    widths = sorted(set(bit_menu))
    for b in widths:
        check_bits(b)
    return widths


def _grids(scheme: SchemeKind, lo: float, hi: float,
           widths: list[int]) -> tuple[list[_Grid], bool]:
    """Each width's grid over the value range [lo, hi], and whether the
    tensor is flat: all zeros (symmetric) or constant (asymmetric), which
    every width represents with error 0."""
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
        zero_point = int(_round_half_away(np.array(-lo / scale)))
        grids.append(_Grid(b, scale, zero_point, levels))
    return grids, False


def analyze_tensor(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                   scheme: Optional[SchemeKind] = None, bins: Optional[int] = 32,
                   skew_threshold: float = SKEW_THRESHOLD,
                   ) -> tuple[list[LayerQuantRecord], Optional[DistributionStats]]:
    """Per-bit error records plus distribution stats (with a ``bins``-bin
    histogram) for one layer.

    When no scheme is forced, the layer uses the scheme recommended from
    its own weight distribution. The moments only when a scheme must be
    recommended or a histogram is asked for, then every width's exact
    error from one blocked scan with no early stop. ``bins=None`` skips
    the histogram; the stats are then None when no scheme had to be
    recommended either.
    """
    widths = _checked_widths(bit_menu, delta)
    stats = None
    if scheme is None or bins is not None:
        stats = distribution_stats(w, bins)
        lo, hi = stats.min, stats.max
    else:
        lo, hi = float(w.values.min()), float(w.values.max())
    used = scheme or recommend_scheme(stats, skew_threshold)
    grids, flat = _grids(used, lo, hi, widths)
    errors = [0.0] * len(grids) if flat else _scan(w.values, used, grids)
    records = [LayerQuantRecord(
        layer_name=w.layer_name, bits=g.bits, scheme=used, scale=g.scale,
        zero_point=g.zero_point, max_abs_error=err, feasible=err <= delta)
        for g, err in zip(grids, errors)]
    return records, stats


def feasible_bits(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                  scheme: Optional[SchemeKind] = SchemeKind.SYMMETRIC_SIGNED,
                  ) -> tuple[int, ...]:
    """Bit-widths from the menu whose quantization error stays within delta.

    Verdicts, not errors: each equals ``analyze_tensor``'s ``feasible``,
    reached by the module docstring's three steps (one-sided scheme,
    certify, witness by blocks). ``scheme=None`` uses the scheme
    recommended from the tensor's own distribution, as ``analyze_tensor``
    does. The empty tuple is a legal result (the layer cannot be quantized
    at any offered width without exceeding the error budget).
    """
    widths = _checked_widths(bit_menu, delta)
    lo, hi = float(w.values.min()), float(w.values.max())
    if scheme is None:
        # recommend_scheme picks asymmetric for a range on one side of 0
        # whatever its skewness, so only a two-sided range needs moments
        scheme = (recommend_scheme(distribution_stats(w, None)) if lo < 0 < hi
                  else SchemeKind.ASYMMETRIC)
    grids, flat = _grids(scheme, lo, hi, widths)
    if flat:
        return tuple(widths)
    magnitude = max(-lo, hi)
    if scheme is SchemeKind.ASYMMETRIC:
        magnitude += hi - lo
    slack = _SLACK * magnitude
    pending = [g for g in grids if not _certified(g.scale, slack, delta)]
    errors = _scan(w.values, scheme, pending, delta)
    dropped = {g.bits for g, err in zip(pending, errors) if err > delta}
    return tuple(b for b in widths if b not in dropped)


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


def _scan(values: np.ndarray, scheme: SchemeKind, grids: list[_Grid],
          delta: float = math.inf) -> list[float]:
    """Max-abs error of each grid over the float32 ``values``, block by
    block.

    Each block is cast to float64 once (taken as |v| under the symmetric
    scheme) and every live grid passes over it while it is in cache. A
    grid whose error so far exceeds delta is dropped after that block: its
    entry is then a lower bound that already exceeds delta, which is the
    exact verdict since the global maximum is at least any block's. With
    delta = inf no grid is dropped, and every entry is the exact maximum:
    block maxima combine to the same float.
    """
    symmetric = scheme is SchemeKind.SYMMETRIC_SIGNED
    size = min(values.size, _BLOCK)
    x, buf, mag = np.empty(size), np.empty(size), np.empty(size)
    errors = [0.0] * len(grids)
    live = list(range(len(grids)))
    for start in range(0, values.size, _BLOCK):
        if not live:
            break
        chunk = values[start:start + _BLOCK]
        n = chunk.size
        xb = x[:n]
        if symmetric:
            np.abs(chunk, out=xb)
        else:
            xb[...] = chunk
        for i in live:
            err = _block_error(xb, buf[:n], mag[:n], symmetric, grids[i])
            errors[i] = max(errors[i], err)
        live = [i for i in live if errors[i] <= delta]
    return errors


def _block_error(x: np.ndarray, buf: np.ndarray, mag: np.ndarray,
                 symmetric: bool, grid: _Grid) -> float:
    """Max-abs error of one grid over one block by the reference's own
    float64 operations, in place: ``x`` is the block (|v| under the
    symmetric scheme), ``buf`` and ``mag`` work buffers of its size.

    Symmetric: |v/s| == |v|/s and negation are exact, so
    | |v| - min(floor(|v|/s + 0.5), qmax) * s | is the reference error bit
    for bit.

    Asymmetric: rounds as copysign(floor(|x| + 0.5), x), the reference's
    sign(x) * floor(|x| + 0.5), then adds the zero-point, clips and
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
        np.clip(buf, 0, grid.top, out=buf)
        buf -= grid.zero_point
    buf *= grid.scale
    buf -= x
    np.abs(buf, out=buf)
    return float(buf.max())
