#!/usr/bin/env python3
"""Compare edgeplan.sim.shortest_reprs with repr on seeded sets of doubles.

    python3 scripts/check_shortest_reprs.py [--count N] [--seed S]

The timeline writes each end time as repr does; shortest_reprs computes
that text in numpy blocks for the values it certifies and calls repr for
the rest. This script draws about N doubles (default 5,000,000) from the
sets below, compares the two texts value by value, 2**16 values at a time,
and prints per set the values checked and the share the kernel certified.
It exits 1 on the first mismatch, naming the value.

The sets: random 64-bit patterns (every finite double); log-uniform values
over [1e-5, 1e16]; 1e-4, 1e15 and 1e16 with their nearest neighbours;
powers of 2 and of 10 with their neighbours; decimals of 15, 16 and 17
significant digits; dyadic rationals, whose scaled value can fall exactly
between two candidates; integer-valued floats; running sums as a replay
accumulates them; zeros, infinities, NaN, the extremes and a negative.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from edgeplan.sim import shortest_digits, shortest_reprs

CHUNK = 1 << 16


def neighbours(x: np.ndarray, steps: int) -> np.ndarray:
    """x and the `steps` doubles on either side of each value."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    near = bits[:, None] + np.arange(-steps, steps + 1)
    return near.ravel().view(np.float64)


def decimals(rng: np.random.Generator, digits: int, count: int) -> np.ndarray:
    """The doubles nearest random decimals of `digits` significant digits
    between 1e-5 and 1e16."""
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, count)
    exponents = rng.integers(-5 - digits, 17 - digits, count)
    return np.array([float(f"{m}e{x}") for m, x in zip(mantissas.tolist(), exponents.tolist())])


def oracle_values(count: int, seed: int) -> dict[str, np.ndarray]:
    """About `count` doubles in named sets, each from its own seeded draw."""
    rng = np.random.default_rng(seed)
    per_set = max(2 * count // 15, 1)  # the sets below hold about 7.5 per_set
    bits = rng.integers(0, 1 << 64, per_set, dtype=np.uint64).view(np.float64)
    powers10 = np.array([float(f"1e{j}") for j in range(-30, 31)])
    dyadic = rng.integers(1, 1 << 20, per_set) / 2.0 ** rng.integers(1, 40, per_set)
    return {
        "random bits": bits[np.isfinite(bits)],
        "log-uniform": np.exp(rng.uniform(np.log(1e-5), np.log(1e16), per_set)),
        "range ends": neighbours(np.array([1e-4, 1e15, 1e16]), max(per_set // 6, 1)),
        "powers": neighbours(np.concatenate([2.0 ** np.arange(-40, 60), powers10]), 3),
        "15 digits": decimals(rng, 15, per_set // 2),
        "16 digits": decimals(rng, 16, per_set // 2),
        "17 digits": decimals(rng, 17, per_set // 2),
        "ties": np.concatenate([[0.5, 1.25, 2.375], dyadic]),
        "integers": np.concatenate([[1.0, 100.0, 1e14], 10.0 ** np.arange(23),
                                    rng.integers(1, 1 << 53, per_set).astype(np.float64)]),
        "running sums": np.concatenate([
            np.cumsum(rng.uniform(0.0, 1e-3, per_set // 2)),
            np.cumsum(np.tile(rng.uniform(0.0, 1.0, 7), per_set // 14 + 1))]),
        "special values": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                    2.2250738585072014e-308, 1.7976931348623157e+308, -1.5]),
    }


def compare(values: np.ndarray) -> tuple[int, tuple[int, str, str] | None]:
    """(values the kernel certified, None), or at the first value where the
    two texts differ (certified so far, (index, repr, kernel text))."""
    certified = 0
    for start in range(0, values.size, CHUNK):
        chunk = values[start:start + CHUNK]
        for i, (want, got) in enumerate(zip(map(repr, chunk.tolist()), shortest_reprs(chunk))):
            if want != got:
                return certified, (start + i, want, got)
        certified += int(shortest_digits(chunk)[2].sum())
    return certified, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=5_000_000, help="doubles to check, about")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    total = certified = 0
    for name, values in oracle_values(args.count, args.seed).items():
        share, bad = compare(values)
        if bad is not None:
            i, want, got = bad
            print(f"{name}: value {i} is {want} by repr, {got} by the kernel")
            return 1
        total, certified = total + values.size, certified + share
        print(f"{name}: {values.size} values equal repr, {share / values.size:.1%} certified")
    print(f"all {total} values equal repr; the kernel certified {certified / total:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
