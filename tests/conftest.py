import dataclasses
import math
import os

import pytest

from edgeplan.core import (ClusterSpec, LayerProfile, LinkSpec, ModelProfile,
                           ProblemInstance, ServerSpec)
from edgeplan.delay import DelayOptions, build_delay_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


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
