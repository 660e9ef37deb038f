"""Deterministic synthetic instance generation for experiments and tests."""

from __future__ import annotations

import random
from typing import Iterable, Optional

import numpy as np

from .core import (ClusterSpec, LayerProfile, LinkRecord, ModelProfile,
                   ProblemInstance, ServerSpec)

PROFILES = ("uniform", "heterogeneous")


def generate_cluster(rng: random.Random, m: int, profile: str = "uniform",
                     link_density: float = 1.0) -> ClusterSpec:
    """Random cluster with full (or thinned) directed connectivity.

    Heterogeneous clusters force a >= 4x spread in compute throughput by
    pinning the first server to the low end and the second to the high end.
    ``profile`` is one of PROFILES, the choices of ``gen --profile``.
    """
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
    if link_density >= 1.0:
        # every ordered pair in row-major order, each capacity drawn as
        # rng.uniform(1e7, 1e9) draws it: 1e7 + (1e9 - 1e7) * rng.random()
        src, dst = np.nonzero(~np.eye(m, dtype=bool))
        capacity = 1e7 + (1e9 - 1e7) * np.fromiter(iter(rng.random, None), float, len(src))
        links = LinkRecord(src, dst, capacity, np.zeros(len(src)))
    else:
        links = LinkRecord(*zip(*[(i, j, rng.uniform(1e7, 1e9), 0.0)
                                  for i in range(m) for j in range(m)
                                  if i != j and rng.random() < link_density]))
    return ClusterSpec(servers=tuple(servers), links=links)


def generate_model(rng: random.Random, l: int, *,
                   embedding_size: int = 512) -> ModelProfile:
    """Random l-layer model at batch size 1, so each layer's output is one
    embedding."""
    layers = []
    for _ in range(l):
        params = rng.randrange(10_000, 2_000_000)
        layers.append(LayerProfile(
            flops=float(rng.randrange(1_000_000, 500_000_000)),
            param_count=params,
            output_size=float(embedding_size),
            original_precision=32,
        ))
    return ModelProfile(layers=tuple(layers), batch_size=1,
                        embedding_size=embedding_size)


def generate_instance(seed: int, m: int, l: int, bits: Iterable[int] = (4, 8, 16),
                      profile: str = "uniform", *, tokens: int = 8,
                      link_density: float = 1.0) -> ProblemInstance:
    """Seed-deterministic problem instance, at delta 0 with the full menu
    on every layer; same seed, same bytes on disk."""
    rng = random.Random(seed)
    cluster = generate_cluster(rng, m, profile, link_density)
    model = generate_model(rng, l)
    return ProblemInstance(cluster=cluster, model=model, bit_menu=tuple(bits),
                           delta=0.0, tokens=tokens)


def random_test_instance(rng: random.Random, *, max_layers: int = 4,
                         max_servers: int = 6, link_density: float = 0.9,
                         tokens: Optional[int] = None) -> ProblemInstance:
    """Small random instance with a random menu drawn from (4, 8, 16) and
    random feasible-bit subsets, for the randomized oracle-equivalence
    suites."""
    l = rng.randint(1, max_layers)
    m = rng.randint(l, max_servers)
    cluster = generate_cluster(rng, m, rng.choice(list(PROFILES)), link_density)
    model = generate_model(rng, l, embedding_size=rng.choice([64, 256, 512]))
    menu = tuple(sorted(rng.sample((4, 8, 16), rng.randint(1, 3))))
    feas = tuple(
        tuple(sorted(rng.sample(menu, rng.randint(1, len(menu)))))
        for _ in range(l)
    )
    return ProblemInstance(
        cluster=cluster, model=model, bit_menu=menu, delta=0.0,
        tokens=tokens if tokens is not None else rng.randint(1, 16),
        feasible_bits=feas,
    )
