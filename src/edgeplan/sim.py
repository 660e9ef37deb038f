"""Event-driven replay of autoregressive inference over a placement plan.

One query, n rounds. Each round pushes a single token through the layer
chain: a compute event per layer, a transfer event per consecutive layer
pair. The autoregressive dependency serializes everything, so the trace is
a single timeline and its completion time must reproduce the closed-form
objective (the central cross-check of the delay model).

The replay reads no delay table. It evaluates the scalar reference
functions compute_cp and compute_cm once per layer and per consecutive
layer pair, straight from the cluster and model specs, each hop's link
read by ClusterSpec.link from the view the table reads, and spreads each
n-round total over the n rounds. Agreement between its completion time
and a plan's objective therefore checks the table's arithmetic against an
independent evaluation of the delay model. It keeps no plan rule of its
own and checks none: it takes a plan delay.check_plan_feasible accepts,
as the delay table takes a valid instance. The `simulate` command runs
that checker before the replay, as `plan` runs it on every plan it
emits.

The trace is columnar: the 2L-1 steps of one round (duration, kind, layer,
resource) times n rounds, plus one float64 array with the end time of
every event. The ends are np.cumsum over the step durations tiled n times.
np.add.accumulate adds strictly left to right, and IEEE addition of the
same operands in the same order rounds the same way, so every end equals
the running sum `t += duration` of an event-by-event loop bit for bit.
Each event starts where the previous one ended, the first at 0.0.
trace_to_timeline returns the timeline file's text, one join over pieces
placed by slice assignment: one text per end time, also the next row's
start, one label per round and one prefix per step. No per-event object
and no per-row string is built; SimTrace.events builds the SimEvent tuple
only when it is first read.

Each end is written as repr writes it, its shortest round-trip digits
(Gay 1990). A trace of fewer than _KERNEL_MIN ends calls repr on each;
a longer one goes through shortest_reprs, which computes the same text in
numpy blocks of _BLOCK ends and calls repr on each value it does not
certify. For x in [1e-4, 1e15), where repr writes no exponent:

1. Scaling. e = floor(log10 x) and k = 16 - e put v = x * 10**k in
   [1e16, 1e17); 10**k, 2 <= k <= 20, is an exact double. TwoProduct
   (Dekker 1971) gives p = fl(v) and err = v - p exactly: Veltkamp's
   split cuts x and 10**k into halves of at most 26 bits, so the four
   partial products are exact and Dekker's ordered sum of them loses
   nothing, with neither underflow nor overflow in range.
2. Granularity. x is a multiple of 2**(E - 52), E = floor(log2 x), so v
   is a multiple of g = 2**(E + k - 52) >= 2**-46 (least at x = 1e-4,
   E = -14, k = 20). p > 2**53 is an even integer, so d17 = p + rint(err)
   is the integer nearest v and r17 = err - rint(err) = v - d17 exactly;
   d17 is summed in int64, as float64 loses its units digit above 2**53.
   The residuals of the 16- and 15-digit candidates, t - 10 * up and
   t - 100 * up with t = (d17 mod 10 or 100) + r17, are multiples of g
   below 2**7 in magnitude, so each is an exact double (2**7 / g <= 2**53).
3. Round trip. Away from a power of two, the decimals that read back as x
   are those within half an ulp of it, 2**(E - 53), strictly, or on that
   bound when x's significand is even. Scaled by 10**k that bound is an
   exact double, so |residual| < bound is an exact test. No candidate of
   n <= 16 digits lies on the bound in this range: x +- 2**(E - 53) is an
   odd multiple of 2**(E - 53), so 10**(n - 1 - e) would have to be a
   multiple of 2**(53 - E), which needs E - e >= 38, while E - e <= 35
   below 1e15.
4. The shortest is the nearest. 15-digit decimals lie more than 4.5 ulps
   apart (10**(e - 14) / 2**(E - 52) > 2**52 / 10**15), so at most one
   reads back as x; if any decimal of 15 or fewer digits does, d15, the
   nearest 15-digit one, does, and repr's digits are d15's without its
   trailing zeros. Else repr takes the nearest 16-digit decimal, d16, if
   it reads back, and else d17, which always does: |r17| <= 1/2 while the
   bound exceeds v * 2**-54 > 0.55.
5. Fallback. repr writes every value outside this proof: outside
   [1e-4, 1e15) (exponent forms, 0.0, negatives, inf, nan); powers of two,
   whose rounding interval is asymmetric; exact ties between two nearest
   candidates (|r17| = 1/2 where d17 is taken, |r16| = 5 where d16 is),
   which repr breaks by its own rule; and log10 one off, which shows as
   d17 outside [1e16, 1e17). Ties are frequent only in the top decades of
   the range, where v is a multiple of a coarse power of two.

The digits become ASCII through a table of the 10,000 four-digit strings
and are laid out, per exponent (one run in a timeline), left-aligned in
24-byte rows padded with NUL; numpy's UCS4 view turns each row into one
str without its trailing NULs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .core import ProblemInstance
from .delay import DelayOptions, compute_cm, compute_cp

TIMELINE_HEADER = "round,kind,resource,start_s,end_s"


@dataclass(frozen=True)
class SimEvent:
    start: float
    end: float
    kind: str  # "compute" or "transfer"
    round: int  # 1-based
    layer: int
    resource: str  # "server:<i>" or "link:<i>-><j>"


@dataclass(frozen=True)
class SimStep:
    """One event of every round: its n-round total spread over n rounds."""
    duration: float
    kind: str
    layer: int
    resource: str


class SimTrace:
    """A replay timeline in columnar form: `steps`, the events of one round
    in order, run `rounds` times back to back from time 0.0; `ends`, the
    end time of each of the rounds * len(steps) events; and
    `completion_time`, the last end (0.0 with no event)."""

    def __init__(self, steps: tuple[SimStep, ...], rounds: int):
        durations = np.array([s.duration for s in steps], dtype=np.float64)
        self.steps, self.rounds = steps, rounds
        # accumulated in place: one n-event array, not a tile and its sum
        self.ends = np.tile(durations, rounds)
        np.cumsum(self.ends, out=self.ends)
        self.completion_time = float(self.ends[-1]) if self.ends.size else 0.0

    @cached_property
    def events(self) -> tuple[SimEvent, ...]:
        """One SimEvent per event, built from the columns on first access."""
        ends = self.ends.tolist()
        return tuple(
            SimEvent(start, end, s.kind, r, s.layer, s.resource)
            for (r, s), start, end in zip(
                product(range(1, self.rounds + 1), self.steps),
                [0.0, *ends[:-1]], ends))


def simulate(assignments, instance: ProblemInstance,
             options: DelayOptions = DelayOptions()) -> SimTrace:
    """Replay a plan that delay.check_plan_feasible accepts, as the
    delay table takes a valid instance; raises MemoryError when numpy
    cannot index its n * (2L - 1) events, as when they do not fit in
    memory."""
    cluster, model = instance.cluster, instance.model
    L = model.num_layers
    n = instance.tokens
    if n * (2 * L - 1) > np.iinfo(np.intp).max:
        raise MemoryError
    per_round = n or 1  # n = 0 replays no round
    steps = []
    for l, (i, b) in enumerate(assignments):
        layer = model.layers[l]
        total = compute_cp(layer, cluster.servers[i], b, n, options)
        steps.append(SimStep(total / per_round, "compute", l, f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            total = compute_cm(layer, cluster.link(i, j), b, n, model.batch_size,
                               model.embedding_size, options)
            steps.append(SimStep(total / per_round, "transfer", l, f"link:{i}->{j}"))
    return SimTrace(tuple(steps), n)


def trace_to_timeline(trace: SimTrace) -> str:
    """The timeline file's text: the header, then one CSV row per event in
    time order, each line ending in a newline."""
    values = trace.ends
    ends = (shortest_reprs(values) if values.size >= _KERNEL_MIN
            else list(map(repr, values.tolist())))
    N, S = len(ends), len(trace.steps)
    if not N:
        return TIMELINE_HEADER + "\n"
    # the header, five pieces per row and the last newline; row q is
    # "\n<round>", ",<kind>,<resource>,", its start, "," and its end, at
    # 1 + 5q .. 5 + 5q, and its start is the end of row q - 1
    parts = [","] * (5 * N + 2)
    parts[0], parts[3], parts[-1] = TIMELINE_HEADER, "0.0", "\n"
    labels = [f"\n{r}" for r in range(1, trace.rounds + 1)]
    for k in range(S):
        parts[1 + 5 * k:-1:5 * S] = labels
    parts[2:-1:5] = [f",{s.kind},{s.resource}," for s in trace.steps] * trace.rounds
    parts[8:-1:5] = ends[:-1]
    parts[5:-1:5] = ends
    return "".join(parts)


# ---------------------------------------------------------------------------
# Shortest round-trip digits in numpy blocks (see the module docstring)
# ---------------------------------------------------------------------------

# below this many ends repr alone is about as fast or faster: on a 2-CPU
# host the kernel took about 0.15 ms a call (one layout pass per decade the
# ends span) plus 0.2 us an end, repr 0.5 us an end, so they broke even
# near 500 timeline ends; twice that leaves a margin for wider spans
_KERNEL_MIN = 1024
_BLOCK = 1 << 15  # ends per kernel block, which bounds its transient arrays
_LOW, _HIGH = 1e-4, 1e15  # the certified range, where repr is positional
_EXPONENT, _MANTISSA = 0x7FF << 52, (1 << 52) - 1
_POW10 = np.array([float(f"1e{k}") for k in range(23)])  # each an exact double
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod for a >= 0: numpy divides an array by a constant fast and
    takes its remainder slowly."""
    q = a // b
    return q, a - q * b


_POW10_HI, _POW10_LO = _split(_POW10)
# the bytes to keep of a 24-byte text of length 0..24, as three uint64
# words; the "0.", "0.0", ... that open a value below 1 (exponent -1 .. -4)
_KEEP = np.frombuffer(b"".join(b"\xff" * n + bytes(24 - n) for n in range(25)),
                      np.uint64).reshape(25, 3)
_OPENINGS = {e: np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8) for e in range(-4, 0)}


@cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of 0000..9999 as one uint32 each, and the trailing zeros
    of each (4 for 0). Built on the kernel's first call: a command that
    renders no long timeline never holds them."""
    quad = np.arange(10_000, dtype=np.int16)
    ascii_quads = (quad[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16) % 10
                   + 48).astype(np.uint8).view(np.uint32)[:, 0]
    return ascii_quads, sum((quad % 10 ** j == 0).astype(np.int32) for j in range(1, 5))


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each float64 in x: (d, e, certified). Where
    certified, x's shortest round-trip digits are those of the 17-digit
    integer d with its trailing zeros removed, and x lies in [10**e,
    10**(e + 1)); elsewhere d and e mean nothing and repr decides."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    certified = (x >= _LOW) & (x < _HIGH) & (x.view(np.int64) & _MANTISSA != 0)
    x = np.where(certified, x, 1.5)  # any value the arithmetic below takes
    e = np.floor(np.log10(x)).astype(np.int64)
    k = 16 - e  # 1..21, also where log10 is one off
    scale, scale_hi, scale_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    # TwoProduct: x * 10**k == p + err exactly
    p = x * scale
    hi, lo = _split(x)
    err = ((hi * scale_hi - p) + hi * scale_lo + lo * scale_hi) + lo * scale_lo
    units = np.rint(err)
    r17 = err - units  # x * 10**k - d17, exactly
    d17 = p.astype(np.int64) + units.astype(np.int64)  # in int64: p > 2**53
    # half an ulp of x times 10**k, exactly: 2**E * 2**-53 * 10**k
    half_ulp = (x.view(np.int64) & _EXPONENT).view(np.float64) * (scale * 2.0 ** -53)
    q16, rem16 = _divmod(d17, 10)
    t16 = rem16 + r17  # x * 10**k - 10 * q16, exactly
    up16 = t16 > 5
    r16 = t16 - 10 * up16
    q15, rem15 = _divmod(d17, 100)
    t15 = rem15 + r17
    up15 = t15 > 50
    r15 = t15 - 100 * up15
    fits15, fits16 = np.abs(r15) < half_ulp, np.abs(r16) < half_ulp
    d = np.where(fits15, (q15 + up15) * 100, np.where(fits16, (q16 + up16) * 10, d17))
    # a tie between the two nearest candidates is left to repr
    tie = ~fits15 & np.where(fits16, t16 == 5, np.abs(r17) == 0.5)
    certified &= (d17 >= 10 ** 16) & (d17 < 10 ** 17) & (d < 10 ** 17) & ~tie
    return d, e, certified


def _positional(d: np.ndarray, e: int) -> np.ndarray:
    """repr's text of values d * 10**(e - 16), 1e-4 <= value < 1e15, each
    left-aligned in 24 bytes of ASCII padded with NUL."""
    ascii_quads, quad_zeros = _quad_tables()
    lead, rest = _divmod(d, 10 ** 16)
    hi, lo = _divmod(rest, 10 ** 8)
    quads = np.empty((d.size, 5), np.uint32)
    np.take(ascii_quads, lead, out=quads[:, 0])  # "000" and the first digit
    quad_values = (*_divmod(hi.astype(np.int32), 10 ** 4),
                   *_divmod(lo.astype(np.int32), 10 ** 4))
    for col, q in enumerate(quad_values, 1):
        np.take(ascii_quads, q, out=quads[:, col])
    # trailing zeros of the 16 digits after the first, one quad at a time
    zeros = np.zeros(d.size, np.int32)
    for full, q in zip((0, 4, 8, 12), reversed(quad_values)):
        zeros += (zeros == full) * quad_zeros[q]
    digits = quads.view(np.uint8)[:, 3:]  # 17 ASCII digits
    significant = 17 - zeros
    text = np.zeros((d.size, 24), np.uint8)
    if e >= 0:  # e + 1 integer digits, then at least one decimal
        text[:, :e + 1] = digits[:, :e + 1]
        text[:, e + 1] = ord(".")
        text[:, e + 2:18] = digits[:, e + 1:]
        length = np.maximum(significant, e + 2) + 1
    else:  # "0.", -e - 1 zeros, the digits
        opening = _OPENINGS[e]
        text[:, :opening.size] = opening
        text[:, opening.size:opening.size + 17] = digits
        length = opening.size + significant
    text.view(np.uint64)[:] &= np.take(_KEEP, length, axis=0)
    return text


def shortest_reprs(values: np.ndarray) -> list[str]:
    """[repr(v) for v in values.tolist()], computed in blocks of _BLOCK:
    the certified values by shortest_digits and _positional, the rest by
    repr."""
    out: list[str] = [""] * values.size  # sized once, as list(map(repr, ...)) is
    for start in range(0, values.size, _BLOCK):
        x = values[start:start + _BLOCK]
        d, e, certified = shortest_digits(x)
        text = np.zeros((x.size, 24), np.uint8)
        exponents = np.bincount(e[certified] + 4, minlength=19)
        for exp in np.flatnonzero(exponents).tolist():
            at = np.flatnonzero(certified & (e == exp - 4))
            if at[-1] - at[0] + 1 == at.size:  # a run, as in a timeline
                at = slice(at[0], at[-1] + 1)
            text[at] = _positional(d[at], exp - 4)
        strings = text.astype(np.uint32).view("U24")[:, 0].tolist()
        rest = np.flatnonzero(~certified)
        for i, v in zip(rest.tolist(), x[rest].tolist()):
            strings[i] = repr(v)
        out[start:start + x.size] = strings
    return out
