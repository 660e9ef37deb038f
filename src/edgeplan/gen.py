"""Deterministic synthetic instance generation for experiments and tests."""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .core import (ClusterSpec, LayerProfile, LinkSpec, ModelProfile,
                   ProblemInstance, ServerSpec)

PROFILES = ("uniform", "heterogeneous")


def generate_cluster(rng: random.Random, m: int, profile: str = "uniform",
                     link_density: float = 1.0) -> ClusterSpec:
    """Random cluster with full (or thinned) directed connectivity.

    Heterogeneous clusters force a >= 4x spread in compute throughput by
    pinning the first server to the low end and the second to the high end.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile {profile!r} not in {PROFILES}")
    servers = []
    for i in range(m):
        if profile == "uniform":
            ccs = rng.uniform(0.8e9, 1.2e9)
        else:
            if i == 0:
                ccs = 0.5e9
            elif i == 1:
                ccs = 4.0e9
            else:
                ccs = rng.uniform(0.5e9, 4.0e9)
        storage = rng.uniform(0.5e9, 4e9)
        servers.append(ServerSpec(id=i, compute_throughput=ccs,
                                  storage_capacity=storage))
    links = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if link_density >= 1.0 or rng.random() < link_density:
                links.append(LinkSpec(src=i, dst=j,
                                      capacity_bps=rng.uniform(1e7, 1e9),
                                      propagation_delay=0.0))
    return ClusterSpec(servers=tuple(servers), links=tuple(links))


def generate_model(rng: random.Random, l: int, *, batch_size: int = 1,
                   embedding_size: int = 512) -> ModelProfile:
    layers = []
    for idx in range(l):
        params = rng.randrange(10_000, 2_000_000)
        layers.append(LayerProfile(
            index=idx,
            flops=float(rng.randrange(1_000_000, 500_000_000)),
            param_count=params,
            output_size=float(batch_size * embedding_size),
            original_precision=32,
        ))
    return ModelProfile(layers=tuple(layers), batch_size=batch_size,
                        embedding_size=embedding_size)


def generate_instance(seed: int, m: int, l: int, bits: Iterable[int],
                      profile: str = "uniform", *, delta: float = 0.0,
                      tokens: int = 8, link_density: float = 1.0,
                      feasible_bits: Optional[list] = None) -> ProblemInstance:
    """Seed-deterministic problem instance; same seed, same bytes on disk."""
    rng = random.Random(seed)
    cluster = generate_cluster(rng, m, profile, link_density)
    model = generate_model(rng, l)
    return ProblemInstance(
        cluster=cluster, model=model, bit_menu=tuple(bits),
        delta=delta, tokens=tokens,
        feasible_bits=None if feasible_bits is None else tuple(feasible_bits),
    )


def random_test_instance(rng: random.Random, *, max_layers: int = 4,
                         max_servers: int = 6, bits: Iterable[int] = (4, 8, 16),
                         link_density: float = 0.9, tokens: Optional[int] = None,
                         ) -> ProblemInstance:
    """Small random instance with random feasible-bit subsets, for the
    randomized oracle-equivalence suites."""
    bits = tuple(sorted(bits))
    l = rng.randint(1, max_layers)
    m = rng.randint(l, max_servers)
    cluster = generate_cluster(rng, m, rng.choice(list(PROFILES)), link_density)
    model = generate_model(rng, l, embedding_size=rng.choice([64, 256, 512]))
    menu = tuple(sorted(rng.sample(bits, rng.randint(1, min(3, len(bits))))))
    feas = tuple(
        tuple(sorted(rng.sample(menu, rng.randint(1, len(menu)))))
        for _ in range(l)
    )
    return ProblemInstance(
        cluster=cluster, model=model, bit_menu=menu, delta=0.0,
        tokens=tokens if tokens is not None else rng.randint(1, 16),
        feasible_bits=feas,
    )
