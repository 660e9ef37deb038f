import dataclasses
import gc
import math
import os

import numpy as np
import pytest

from edgeplan.core import (ClusterSpec, LayerProfile, LinkSpec, ModelProfile,
                           ProblemInstance, ServerSpec, hashing_reader, input_digest)
from edgeplan.delay import DelayOptions, build_delay_table
from edgeplan.quant import WeightTensor, distribution_stats

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def left_for_collector(call, *args):
    """``call(*args)`` with automatic garbage collection paused, and the
    number of unreachable objects ``gc.collect()`` then finds: 0 when the
    call frees everything it made by reference counting alone. Whatever
    was left before the call is collected first."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return call(*args), gc.collect()
    finally:
        if enabled:
            gc.enable()


def object_layout(doc: dict) -> dict:
    """A cluster document with its links rewritten from the column layout
    the writer uses, one array per field, to one object per link."""
    links = doc["links"]
    return dict(doc, links=[dict(zip(links, row)) for row in zip(*links.values())])


def file_digest(cluster_path, model_path, options_doc) -> str:
    """The digest plan writes for the two files and the option record: the
    files fed through a hashing_reader in the order a command reads them."""
    read, sha = hashing_reader()
    read(cluster_path)
    read(model_path)
    return input_digest(sha, options_doc)


def make_2x2_instance(**overrides) -> ProblemInstance:
    """Hand-checked fixture: optimum 3.0 s with (l0 -> s0@8, l1 -> s1@8),
    3.5 s swapped."""
    cluster = ClusterSpec(
        servers=(ServerSpec(0, 100.0, 1e9), ServerSpec(1, 200.0, 1e9)),
        links=(LinkSpec(0, 1, 32.0), LinkSpec(1, 0, 32.0)),
    )
    model = ModelProfile(
        layers=(LayerProfile(100.0, 10, 4.0, 32),
                LayerProfile(200.0, 10, 4.0, 32)),
        batch_size=1, embedding_size=4,
    )
    kwargs = dict(cluster=cluster, model=model, bit_menu=(8,),
                  delta=math.inf, tokens=1)
    kwargs.update(overrides)
    return ProblemInstance(**kwargs)


def with_binding_storage(inst: ProblemInstance, rng, p: float,
                         options: DelayOptions = DelayOptions()) -> ProblemInstance:
    """Give each server, with probability p, a capacity drawn between the
    smallest and the largest layer footprint over the menu under the
    options' storage reading, so storage binds. p = 0 draws nothing and
    returns the instance unchanged; every reading makes the same draws."""
    if p <= 0:
        return inst
    footprints = [options.bytes_needed(layer, b) for layer in inst.model.layers
                  for b in inst.bit_menu]
    servers = tuple(
        dataclasses.replace(s, storage_capacity=rng.uniform(min(footprints), max(footprints)))
        if rng.random() < p else s
        for s in inst.cluster.servers)
    return dataclasses.replace(
        inst, cluster=dataclasses.replace(inst.cluster, servers=servers))


@pytest.fixture
def golden_instance():
    return make_2x2_instance()


@pytest.fixture
def golden_table(golden_instance):
    return build_delay_table(golden_instance)


def tensor_with_skewness(target: float, n: int, seed: int) -> np.ndarray:
    """n float32 values straddling 0, z + a (z^2 - 1) for a standard normal
    sample z (negated for a negative target), whose skewness, as
    ``distribution_stats`` computes it, bisection brings to just below
    |target| in magnitude."""
    z = np.random.default_rng(seed).normal(0.0, 1.0, n)
    sign = math.copysign(1.0, target)

    def values(a: float) -> np.ndarray:
        return (sign * (z + a * (z * z - 1.0))).astype(np.float32)

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        v = values(mid)
        if abs(distribution_stats(WeightTensor("t", v, v.shape), None).skewness) < abs(target):
            lo = mid
        else:
            hi = mid
    return values(lo)
