"""Seeded instance pools for the three benchmark workloads.

Each workload is a fixed ladder of base instances: a cycle of shapes
(servers M, layers L, link density, ...) whose values come from a fixed
per-slot seed. The run's --seed relabels the servers and scales every
throughput, link capacity, storage capacity and layer cost by an
independent factor within +/-JITTER, and draws fresh weight values. So
each seed gives different input files of about the same difficulty.
Branch-and-bound time varies about 100x between base instances but far
less under this perturbation, so per-run medians stay steady across seeds
and budget exhaustion and binding storage show on every run. The program
sees only the files written here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

import edgeplan.gen
from edgeplan.core import save_instance
from edgeplan.ilp import storage_bytes
from edgeplan.quant import WeightTensor, save_weight_tensor

BITS = (4, 8, 16)
BITS_ARG = ",".join(map(str, BITS))

# wide: delay-table construction dominates (O(L*M^2*B*|links|)).
WIDE_CYCLE = [dict(M=m, L=l, density=d)
              for m in (32, 40, 48) for l in (3, 4, 5) for d in (1.0, 0.5)]

# deep: branch-and-bound search dominates. Every fourth slot from k=2
# (5 of 20) has binding storage, which the solvers ignore today (exit 5).
# The last slot is one size past the range, M=16/L=10, where the default
# 10M-node budget runs out (exit 4); L=9 instances sometimes exhaust it too.
_DEEP_L = (6, 7, 8, 9, 7, 6, 8, 7, 8, 9, 6, 7, 8, 6, 7, 8, 9, 7, 8)
DEEP_CYCLE = [dict(M=10 + (3 * k) % 7, L=l, density=1.0 if k % 2 == 0 else 0.7,
                   storage_binding=k % 4 == 2)
              for k, l in enumerate(_DEEP_L)]
DEEP_CYCLE.append(dict(M=16, L=10, density=1.0, storage_binding=False))

# artifacts: the full quantize -> plan -> simulate -> export-lp chain on
# real weight tensors; quant and ilp dominate. (8, 4) is inside the
# brute-force cross-check.
ARTIFACTS_CYCLE = [dict(M=m, L=l, tokens=t) for m, l, t in (
    (8, 4, 512), (10, 5, 2048), (12, 6, 1024),
    (9, 4, 4096), (11, 5, 768), (12, 5, 3072))]

PARAMS_RANGE = (250_000, 1_000_000)
JITTER = 0.05

# About how long one instance's chain and checks take on the seed code
# (2-CPU Xeon); a pool holds as many as fit in --seconds, taking the cycle's
# slots in order.
INSTANCE_SECONDS = {"wide": 0.85, "deep": 0.64, "artifacts": 2.4}
CYCLES = {"wide": WIDE_CYCLE, "deep": DEEP_CYCLE, "artifacts": ARTIFACTS_CYCLE}
WORKLOADS = tuple(CYCLES)


@dataclass
class Case:
    """One generated instance and the CLI flags it is planned with."""
    index: int
    dir: str
    cluster: str
    model: str
    weights_dir: Optional[str]
    delta: str
    tokens: int
    shape: dict

    @property
    def brute_checkable(self) -> bool:
        return self.shape["M"] <= 8 and self.shape["L"] <= 4

    def out(self, name: str) -> str:
        return os.path.join(self.dir, name)


def pool_shapes(workload: str, seconds: int) -> list[dict]:
    cycle = CYCLES[workload]
    n = max(1, round(seconds / INSTANCE_SECONDS[workload]))
    return [dict(cycle[k % len(cycle)]) for k in range(n)]


def _bind_storage(instance, rng: random.Random):
    """Give the fastest quarter of servers a capacity between the smallest
    and largest layer's 4-bit footprint."""
    footprints = [storage_bytes(layer, 4) for layer in instance.model.layers]
    servers = list(instance.cluster.servers)
    fastest = sorted(servers, key=lambda s: (-s.compute_throughput, s.id))
    for s in fastest[:max(1, len(servers) // 4)]:
        servers[s.id] = dataclasses.replace(
            s, storage_capacity=rng.uniform(min(footprints), max(footprints)))
    cluster = dataclasses.replace(instance.cluster, servers=tuple(servers))
    return dataclasses.replace(instance, cluster=cluster)


def _perturb(instance, rng: random.Random):
    """Relabel the servers and scale every rate by an independent factor."""
    def scaled(x):
        return x * rng.uniform(1 - JITTER, 1 + JITTER)
    perm = list(range(instance.cluster.num_servers))
    rng.shuffle(perm)
    servers = sorted((dataclasses.replace(
        s, id=perm[s.id], compute_throughput=scaled(s.compute_throughput),
        storage_capacity=scaled(s.storage_capacity))
        for s in instance.cluster.servers), key=lambda s: s.id)
    links = sorted((dataclasses.replace(
        lk, src=perm[lk.src], dst=perm[lk.dst], capacity_bps=scaled(lk.capacity_bps))
        for lk in instance.cluster.links), key=lambda lk: (lk.src, lk.dst))
    layers = tuple(dataclasses.replace(layer, flops=scaled(layer.flops))
                   for layer in instance.model.layers)
    return dataclasses.replace(
        instance, cluster=dataclasses.replace(instance.cluster, servers=tuple(servers),
                                              links=tuple(links)),
        model=dataclasses.replace(instance.model, layers=layers))


def _error_bound(values: np.ndarray, bits: int) -> float:
    """Largest max-abs quantization error either scheme can reach: half a
    quantization step."""
    lo, hi = float(values.min()), float(values.max())
    sym = max(abs(lo), abs(hi)) / ((1 << (bits - 1)) - 1)
    asym = (hi - lo) / ((1 << bits) - 1)
    return max(sym, asym) / 2


def _attach_weights(instance, base: random.Random, rng: random.Random,
                    wdir: str, k: int) -> tuple:
    """Write one float32 tensor per layer and point the model at it.

    The base draws each layer's size, spread and kind: sizes are stratified
    over PARAMS_RANGE (one per equal-width bin) and layers alternate
    between zero-centred Gaussian and one-sided skewed values, so that both
    quantizer schemes get picked. The seed draws the values. Returns the
    instance, the parameter counts and the --delta value: log-uniform
    within a third of the range that filters 0-2 widths per layer, the
    third fixed by the slot so that each cycle spans the whole range.
    """
    L = instance.model.num_layers
    nrng = np.random.default_rng(rng.randrange(2 ** 32))
    lo, hi = PARAMS_RANGE
    width = (hi - lo) / L
    bins = list(range(L))
    base.shuffle(bins)
    offset = base.randrange(2)
    layers, params, e4, e16 = [], [], [], []
    for l, layer in enumerate(instance.model.layers):
        n = int(lo + (bins[l] + base.random()) * width)
        scale = base.uniform(0.01, 0.1)
        if (l + offset) % 2 == 0:
            values = nrng.normal(0.0, scale, n)
        else:
            values = nrng.gamma(2.0, scale, n)
        values = values.astype(np.float32)
        name = f"layer{l}"
        save_weight_tensor(WeightTensor(name, values, values.shape), wdir)
        layers.append(dataclasses.replace(layer, param_count=n, weights_ref=name))
        params.append(n)
        e4.append(_error_bound(values, 4))
        e16.append(_error_bound(values, 16))
    log_lo, log_hi = math.log(2 * max(e16)), math.log(2 * max(e4))
    third = (k % 3 + base.random()) / 3
    delta = math.exp(log_lo + third * (log_hi - log_lo))
    model = dataclasses.replace(instance.model, layers=tuple(layers))
    return dataclasses.replace(instance, model=model), params, repr(delta)


def write_pool(workload: str, seed: int, seconds: int, root: str) -> list[Case]:
    """Generate the workload's instance files under root; same seed, same
    bytes."""
    cases = []
    for k, shape in enumerate(pool_shapes(workload, seconds)):
        base = random.Random(f"{workload}:base:{k}")
        rng = random.Random(f"{workload}:{seed}:{k}")
        cdir = os.path.join(root, f"case{k:03d}")
        os.makedirs(cdir)
        M, L = shape["M"], shape["L"]
        tokens = shape.get("tokens", 32)
        instance = edgeplan.gen.generate_instance(
            base.randrange(2 ** 31), M, L, BITS, "heterogeneous",
            tokens=tokens, link_density=shape.get("density", 1.0))
        weights_dir, delta = None, "inf"
        instance = _perturb(instance, rng)
        if shape.get("storage_binding"):
            instance = _bind_storage(instance, base)
        if workload == "artifacts":
            weights_dir = os.path.join(cdir, "weights")
            os.makedirs(weights_dir)
            instance, shape["params"], delta = _attach_weights(
                instance, base, rng, weights_dir, k)
        else:
            shape["params"] = [layer.param_count for layer in instance.model.layers]
        shape.update(tokens=tokens, delta=delta)
        case = Case(k, cdir, os.path.join(cdir, "cluster.json"),
                    os.path.join(cdir, "model.json"), weights_dir, delta,
                    tokens, shape)
        save_instance(instance, case.cluster, case.model)
        cases.append(case)
    return cases


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))
