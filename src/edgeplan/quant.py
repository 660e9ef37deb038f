"""Uniform weight quantization (symmetric signed and asymmetric), the
max-absolute-error feasibility test with its linearized form, per-layer
feasible-bit filtering, and weight-distribution statistics.

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


def _check_bits(bits: int) -> None:
    if not (2 <= bits <= 32):
        raise ValueError(f"bits={bits} outside [2, 32]")


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_symmetric(w: WeightTensor, bits: int) -> SymmetricResult:
    """Signed symmetric quantization with 2^(b-1)-1 levels each side of 0.

    The extreme value max|w| maps exactly to +/-qmax, so no element is
    pushed past its nearest level and the error never exceeds scale/2.
    """
    _check_bits(bits)
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
    _check_bits(bits)
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
                  scheme: SchemeKind = SchemeKind.SYMMETRIC_SIGNED,
                  ) -> tuple[int, ...]:
    """Bit-widths from the menu whose quantization error stays within delta.

    The empty tuple is a legal result (the layer cannot be quantized at any
    offered width without exceeding the error budget).
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    keep = []
    for b in sorted(set(bit_menu)):
        err = max_abs_error(w.values, dequantize(w, b, scheme))
        if err <= delta:
            keep.append(b)
    return tuple(keep)


def distribution_stats(w: WeightTensor, bins: int = 32) -> DistributionStats:
    """Moments and histogram of a weight tensor.

    Skewness is the population third standardized moment; it is defined as
    0 for constant tensors. The histogram spans [min, max] with equal-width
    bins (a single bin when min == max) and its counts sum to the element
    count.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    v = w.values.astype(np.float64)
    lo, hi = float(v.min()), float(v.max())
    mean = float(v.mean())
    m2 = float(np.mean((v - mean) ** 2))
    std = math.sqrt(m2)
    if m2 == 0.0:
        skew = 0.0
    else:
        skew = float(np.mean((v - mean) ** 3)) / m2 ** 1.5
    if lo == hi:
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
                     skew_threshold: float = 0.5) -> SchemeKind:
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
    from .core import ParseError

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


def analyze_tensor(w: WeightTensor, bit_menu: Iterable[int], delta: float,
                   scheme: Optional[SchemeKind] = None, bins: int = 32,
                   skew_threshold: float = 0.5,
                   ) -> tuple[list[LayerQuantRecord], DistributionStats]:
    """Per-bit error records plus distribution stats for one layer.

    When no scheme is forced, each layer uses the scheme recommended from
    its own weight distribution.
    """
    stats = distribution_stats(w, bins=bins)
    used = scheme or recommend_scheme(stats, skew_threshold)
    records = []
    for b in sorted(set(bit_menu)):
        if used is SchemeKind.SYMMETRIC_SIGNED:
            res = quantize_symmetric(w, b)
            zero_point = 0
        else:
            res = quantize_asymmetric(w, b)
            zero_point = res.zero_point
        err = max_abs_error(w.values, res.dequantized)
        records.append(LayerQuantRecord(
            layer_name=w.layer_name, bits=b, scheme=used,
            scale=res.scale, zero_point=zero_point,
            max_abs_error=err, feasible=err <= delta,
        ))
    return records, stats
