"""Test oracles: the textbook computations that the package's fast paths
are checked against. They share no arithmetic with the paths they check.

Quantizers. ``quantize_symmetric`` and ``quantize_asymmetric`` build the
codes and the dequantized values explicitly, in float64, with their own
half-away-from-zero rounding; ``max_abs_error`` compares the dequantized
values with the originals. They are the independent reference of
``edgeplan.quant``'s blocked kernel, whose every error must equal theirs
bit for bit: the kernel reads the float32 values in blocks, screens each
block in float32 and runs these float64 operations in place on the few
elements that may hold the block's maximum error. ``check_linearized`` is
the two-inequality form of the error test, kept apart so its
equivalence with ``max_abs_error`` is tested, not assumed.

Search. ``held_karp`` is the exact minimum over injective placements by
the subset dynamic program of Held and Karp (1962): brute force stops at
a few servers, while branch and bound is stressed at 10 to 18.
``layered_dp`` is the relaxed DP behind the search's bounds, one entry
at a time in Python floats: the reference of the solver's reused
layered-DP workspace, whose every entry and argmin must equal its own.

Links. ``link_violations`` judges a cluster's links one at a time in
Python, every rule on every link, with the first declaration of each
pair from a dictionary: the reference of ``validate_instance``'s one
array test over the link columns, which sends only the links it flags
through the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from edgeplan.core import MAX_BITS, MIN_BITS, Violation
from edgeplan.quant import SchemeKind, WeightTensor


@dataclass(frozen=True)
class Quantized:
    """One width's grid and the tensor on it. Codes are signed in
    [-qmax, qmax] (symmetric) or unsigned in [0, 2^b - 1] (asymmetric),
    and a value is (code - zero_point) * scale: the symmetric grid has
    zero_point 0."""
    codes: np.ndarray
    scale: float
    zero_point: int
    dequantized: np.ndarray


def round_half_away(x):
    """x rounded to the nearest integer, ties away from 0: trunc(x + 1/2)
    for x >= 0, trunc(x - 1/2) below. Float rounding is symmetric about 0,
    so x - 1/2 is -(|x| + 1/2) exactly as computed, and the result equals
    sign(x) * floor(|x| + 1/2) bit for bit."""
    return np.trunc(x + np.copysign(0.5, x))


def _check_width(bits: int) -> None:
    """The quantizers' own guard: ValueError unless MIN_BITS <= bits <=
    MAX_BITS, the range the CLI and core.validate_instance enforce."""
    if not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"bits={bits} outside [{MIN_BITS}, {MAX_BITS}]")


def quantize_symmetric(w: WeightTensor, bits: int) -> Quantized:
    """Signed symmetric quantization with 2^(b-1)-1 levels each side of 0.

    The extreme value max|w| maps exactly to +/-qmax, so no element is
    pushed past its nearest level and the error never exceeds scale/2.
    """
    _check_width(bits)
    qmax = (1 << (bits - 1)) - 1
    # float64 throughout: a float32 division would underflow tiny scales
    # to zero and round dequantized values past the scale/2 error bound
    v = w.values.astype(np.float64)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return Quantized(np.zeros(v.size, dtype=np.int64), 1.0, 0, np.zeros(v.size))
    scale = peak / qmax
    codes = np.clip(round_half_away(v / scale), -qmax, qmax).astype(np.int64)
    return Quantized(codes, scale, 0, codes * scale)


def quantize_asymmetric(w: WeightTensor, bits: int) -> Quantized:
    """Min-max affine quantization onto [0, 2^b - 1] with a zero-point."""
    _check_width(bits)
    v = w.values.astype(np.float64)
    lo, hi = float(np.min(v)), float(np.max(v))
    levels = (1 << bits) - 1
    if hi == lo:
        return Quantized(np.zeros(v.size, dtype=np.int64), 0.0, 0, v.copy())
    scale = (hi - lo) / levels
    # zero_point is deliberately not clamped into [0, levels]: for one-sided
    # ranges the clamp would shift the whole grid off [min, max] and the
    # error could reach the full range instead of scale/2. Codes themselves
    # always land in [0, levels] because round is monotone and the extremes
    # map to 0 and levels exactly.
    zero_point = int(round_half_away(-lo / scale))
    codes = np.clip(round_half_away(v / scale) + zero_point, 0, levels)
    codes = codes.astype(np.int64)
    return Quantized(codes, scale, zero_point, (codes - zero_point) * scale)


def quantize(w: WeightTensor, bits: int, scheme: SchemeKind) -> Quantized:
    """The tensor on the given scheme's grid at the given width."""
    if scheme is SchemeKind.SYMMETRIC_SIGNED:
        return quantize_symmetric(w, bits)
    return quantize_asymmetric(w, bits)


def _float64_pair(original, quantized) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays flat in float64; ValueError unless equally long."""
    a = np.asarray(original, dtype=np.float64).ravel()
    b = np.asarray(quantized, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"{a.shape} vs {b.shape}")
    return a, b


def max_abs_error(original, quantized) -> float:
    """max over elements of |original - quantized|."""
    a, b = _float64_pair(original, quantized)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def check_linearized(original, quantized, delta: float) -> bool:
    """Two-sided element-wise test: (o - q <= delta) and (o - q >= -delta).

    Logically equivalent to max_abs_error(o, q) <= delta.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    a, b = _float64_pair(original, quantized)
    diff = a - b
    return bool(np.all(diff <= delta) and np.all(diff >= -delta))


def _non_finite(where: str, **values: float) -> list[Violation]:
    return [Violation("NonFiniteValue", f"{where} {name} {value}")
            for name, value in values.items() if not math.isfinite(value)]


def link_violations(cluster) -> list[Violation]:
    """The violations of the cluster's links, in the order and with the
    texts validate_instance gives them; the links as Python values."""
    out = []
    id_set = {s.id for s in cluster.servers}
    links = tuple(cluster.links)
    # the first declaration of each pair
    first = {}
    for k, lk in enumerate(links):
        first.setdefault((lk.src, lk.dst), k)
    for k, lk in enumerate(links):
        src, dst, capacity, delay = lk.src, lk.dst, lk.capacity_bps, lk.propagation_delay
        if not (math.isfinite(capacity) and math.isfinite(delay)):
            out += _non_finite(f"link {src}->{dst}", capacity_bps=capacity,
                               prop_delay_s=delay)
        if first[src, dst] != k:
            out.append(Violation("DuplicateLink", f"link {src}->{dst} is declared twice"))
        if capacity <= 0:
            out.append(Violation("LinkCapacityNonPositive", f"link {src}->{dst} capacity {capacity}"))
        if src == dst:
            out.append(Violation("SelfLink", f"link {src}->{dst} is a self-loop"))
        if src not in id_set or dst not in id_set:
            out.append(Violation("UnknownServerInLink", f"link {src}->{dst} references unknown server"))
        if delay < 0:
            out.append(Violation("NegativePropagationDelay", f"link {src}->{dst}"))
    return out


# (2^M, M) float64 entries: 37.7 MB at M = 18
HELD_KARP_MAX_SERVERS = 18


def held_karp(cp: np.ndarray, cm: np.ndarray) -> float:
    """The minimum total delay over placements of the layers on distinct
    servers, on a delay table's cp (L, M) and cm (L, M, M), where inf
    masks an entry; inf when no placement is finite.

    best[S, j] is the cheapest placement of layers 0..|S|-1 on exactly
    the server set S (a bit mask) with the last of them on server j. Layer
    l extends every set of l servers by a server k outside it:
    best[S, k] = min over j of best[S - {k}, j] + cm[l-1, j, k], plus
    cp[l, k]. The sums run in another order than delay.path_delay's, so
    the minimum may differ from a solver's objective in the last bits.
    """
    L, M = cp.shape
    if M > HELD_KARP_MAX_SERVERS:
        raise ValueError(f"{M} servers: the table would take 2^{M} x {M} entries")
    if L > M:
        return math.inf
    sets = np.arange(1 << M)
    size = sum((sets >> k) & 1 for k in range(M))
    best = np.full((1 << M, M), math.inf)
    servers = np.arange(M)
    best[1 << servers, servers] = cp[0]
    for l in range(1, L):
        level = sets[size == l + 1]
        for k in range(M):
            with_k = level[(level >> k) & 1 == 1]
            before = best[with_k ^ (1 << k)] + cm[l - 1, :, k]
            best[with_k, k] = before.min(axis=1) + cp[l, k]
    return float(best[sets[size == L]].min())


def layered_dp(cp, cm) -> tuple[list[list[float]], list[list[int]]]:
    """(H, nxt) of the relaxed DP on cp (L, M) and cm (L, M, M), reuse of
    non-consecutive servers allowed:

        H[l][i] = cp[l][i] + min over j of (cm[l][i][j] + H[l + 1][j]),

    H[L - 1] = cp[L - 1], and nxt[l][i] the first j attaining the minimum
    (0 when every sum is inf). Each sum and the final add are one IEEE
    addition of Python floats, as in the vectorised DP. Needs L >= 1."""
    cp, cm = np.asarray(cp, dtype=float).tolist(), np.asarray(cm, dtype=float).tolist()
    L = len(cp)
    H = [None] * L
    H[L - 1] = cp[L - 1]
    nxt = [None] * (L - 1)
    for l in range(L - 2, -1, -1):
        H[l], nxt[l] = [], []
        for i, hop in enumerate(cm[l]):
            best, at = hop[0] + H[l + 1][0], 0
            for j in range(1, len(hop)):
                via = hop[j] + H[l + 1][j]
                if via < best:
                    best, at = via, j
            H[l].append(cp[l][i] + best)
            nxt[l].append(at)
    return H, nxt
