"""Uniform weight quantization (symmetric signed and asymmetric), the
max-absolute-error feasibility test with its linearized form, per-layer
feasible-bit filtering, and weight-distribution statistics.

There is one analysis path: the per-tensor kernel ``analyze_tensor``
behind the ``quantize`` report, of which ``feasible_bits`` (the
``plan``/``export-lp --weights-dir`` filter) is a view. It casts the
weights to float64 once and shares that cast between the moments and
every bit-width. It evaluates each width's max-abs error with in-place
ufuncs over preallocated buffers, building no code or dequantized
arrays, and its results equal the reference bit for bit. The histogram is computed only when asked for; of
the commands only ``quantize`` reports it. ``quantize_symmetric``,
``quantize_asymmetric`` and ``max_abs_error`` build the codes and the
dequantized values explicitly; they are the independent reference the
kernel is tested against.

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
from typing import Iterable, Optional

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


def feasible_bits(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                  scheme: Optional[SchemeKind] = SchemeKind.SYMMETRIC_SIGNED,
                  ) -> tuple[int, ...]:
    """Bit-widths from the menu whose quantization error stays within delta.

    ``scheme=None`` uses the scheme recommended from the tensor's own
    distribution, as ``analyze_tensor`` does. The empty tuple is a legal
    result (the layer cannot be quantized at any offered width without
    exceeding the error budget).
    """
    records, _ = analyze_tensor(w, bit_menu, delta, scheme, bins=None)
    return tuple(r.bits for r in records if r.feasible)


def distribution_stats(w: WeightTensor, bins: Optional[int] = 32, *,
                       values: Optional[np.ndarray] = None) -> DistributionStats:
    """Moments and histogram of a weight tensor.

    Skewness is the population third standardized moment; it is defined as
    0 for constant tensors. The histogram spans [min, max] with equal-width
    bins (a single bin when min == max) and its counts sum to the element
    count; ``bins=None`` skips it and leaves ``bin_edges`` and ``counts``
    empty. ``values`` is ``w.values`` already cast to float64, passed by a
    caller that shares one cast with other work.
    """
    if bins is not None and bins < 1:
        raise ValueError("bins must be >= 1")
    v = w.values.astype(np.float64) if values is None else values
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
    if not np.isfinite(raw).all():
        raise ParseError(f"{bin_path}: {int(np.count_nonzero(~np.isfinite(raw)))} "
                         "non-finite values (NaN or inf)")
    return WeightTensor(layer_name=str(meta["name"]), values=raw, shape=shape)


# ---------------------------------------------------------------------------
# The per-tensor kernel behind the quantize report and feasible_bits
# ---------------------------------------------------------------------------

def analyze_tensor(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                   scheme: Optional[SchemeKind] = None, bins: Optional[int] = 32,
                   skew_threshold: float = SKEW_THRESHOLD,
                   ) -> tuple[list[LayerQuantRecord], Optional[DistributionStats]]:
    """Per-bit error records plus distribution stats (with a ``bins``-bin
    histogram) for one layer.

    When no scheme is forced, the layer uses the scheme recommended from
    its own weight distribution. One float64 cast, the moments only when a
    scheme must be recommended or a histogram is asked for, then every
    width's error. ``bins=None`` skips the histogram; the stats are then
    None when no scheme had to be recommended either.
    """
    if not delta >= 0:  # also rejects NaN
        raise ValueError("delta must be >= 0")
    widths = sorted(set(bit_menu))
    for b in widths:
        check_bits(b)
    v = w.values.astype(np.float64)
    stats = None
    if scheme is None or bins is not None:
        stats = distribution_stats(w, bins, values=v)
        lo, hi = stats.min, stats.max
    else:
        lo, hi = float(v.min()), float(v.max())
    used = scheme or recommend_scheme(stats, skew_threshold)
    if used is SchemeKind.SYMMETRIC_SIGNED:
        errors = _symmetric_errors(v, max(-lo, hi), widths)
    else:
        errors = _asymmetric_errors(v, lo, hi, widths)
    records = [LayerQuantRecord(
        layer_name=w.layer_name, bits=b, scheme=used, scale=scale,
        zero_point=zero_point, max_abs_error=err, feasible=err <= delta)
        for b, (scale, zero_point, err) in zip(widths, errors)]
    return records, stats


def _symmetric_errors(v: np.ndarray, peak: float,
                      widths: list[int]) -> list[tuple[float, int, float]]:
    """(scale, 0, max-abs error) per width, equal to ``quantize_symmetric``
    + ``max_abs_error``. Consumes ``v``, which holds |v| afterwards.

    Works on magnitudes: |v/s| == |v|/s and negation are exact, so
    | |v| - min(floor(|v|/s + 0.5), qmax) * s | is the reference error bit
    for bit. ``peak`` is max|v|.
    """
    if peak == 0.0:
        return [(1.0, 0, 0.0)] * len(widths)
    a = np.abs(v, out=v)
    buf = np.empty_like(a)
    out = []
    for b in widths:
        qmax = (1 << (b - 1)) - 1
        scale = peak / qmax
        np.divide(a, scale, out=buf)
        buf += 0.5
        np.floor(buf, out=buf)
        np.minimum(buf, qmax, out=buf)
        buf *= scale
        buf -= a
        np.abs(buf, out=buf)
        out.append((scale, 0, float(buf.max())))
    return out


def _asymmetric_errors(v: np.ndarray, lo: float, hi: float,
                       widths: list[int]) -> list[tuple[float, int, float]]:
    """(scale, zero_point, max-abs error) per width, equal to
    ``quantize_asymmetric`` + ``max_abs_error``.

    Rounds as copysign(floor(|x| + 0.5), x), the reference's
    sign(x) * floor(|x| + 0.5), then adds the zero-point, clips and
    subtracts it again in float64. Code and zero-point are integers held
    exactly in float64, so the subtraction rounds their exact difference
    once, as the reference's int64 difference is rounded once when it is
    multiplied by the scale (the difference passes 2^53 only for 32-bit
    widths on a narrow range far from 0).
    """
    if hi == lo:
        return [(0.0, 0, 0.0)] * len(widths)
    buf = np.empty_like(v)
    mag = np.empty_like(v)
    out = []
    for b in widths:
        levels = (1 << b) - 1
        scale = (hi - lo) / levels
        zero_point = int(_round_half_away(np.array(-lo / scale)))
        np.divide(v, scale, out=buf)
        np.abs(buf, out=mag)
        mag += 0.5
        np.floor(mag, out=mag)
        np.copysign(mag, buf, out=buf)
        buf += zero_point
        np.clip(buf, 0, levels, out=buf)
        buf -= zero_point
        buf *= scale
        buf -= v
        np.abs(buf, out=buf)
        out.append((scale, zero_point, float(buf.max())))
    return out
