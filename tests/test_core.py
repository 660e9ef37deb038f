import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplan.core import (ClusterSpec, LayerProfile, LinkSpec, ModelProfile,
                           ParseError, ProblemInstance, ServerSpec,
                           ValidationError, load_instance, save_instance,
                           validate_instance)

from conftest import data_path, make_2x2_instance


def codes(violations):
    return [v.code for v in violations]


class TestValidateInstance:
    def test_well_formed_instance_is_clean(self):
        assert validate_instance(make_2x2_instance()) == []

    def test_zero_capacity_link(self):
        inst = make_2x2_instance()
        bad = ClusterSpec(servers=inst.cluster.servers,
                          links=(LinkSpec(0, 1, 0.0), LinkSpec(1, 0, 32.0)))
        inst = make_2x2_instance(cluster=bad)
        assert codes(validate_instance(inst)) == ["LinkCapacityNonPositive"]

    def test_more_layers_than_servers(self):
        model = ModelProfile(
            layers=tuple(LayerProfile(i, 1.0, 1, 1.0, 32) for i in range(3)),
            batch_size=1, embedding_size=4)
        inst = make_2x2_instance(model=model)
        assert "MoreLayersThanServers" in codes(validate_instance(inst))

    def test_negative_storage_and_bad_precision(self):
        cluster = ClusterSpec(
            servers=(ServerSpec(0, 1.0, -1.0), ServerSpec(1, 1.0, 0.0)),
            links=())
        model = ModelProfile(layers=(LayerProfile(0, 1.0, 1, 1.0, 7),),
                             batch_size=1, embedding_size=1)
        inst = ProblemInstance(cluster=cluster, model=model, bit_menu=(8,),
                               delta=0.0, tokens=1)
        got = codes(validate_instance(inst))
        assert "NegativeStorage" in got
        assert "BadOriginalPrecision" in got

    def test_empty_bit_menu_and_small_bits(self):
        inst = make_2x2_instance(bit_menu=())
        assert "EmptyBitMenu" in codes(validate_instance(inst))

    def test_validate_is_idempotent(self):
        inst = make_2x2_instance()
        assert validate_instance(inst) == validate_instance(inst)

    def test_feasible_bits_outside_menu(self):
        inst = make_2x2_instance(feasible_bits=((8,), (4,)))
        assert "FeasibleBitsNotInMenu" in codes(validate_instance(inst))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers(self, value):
        inst = make_2x2_instance()
        servers = (ServerSpec(0, value, value), ServerSpec(1, 200.0, 1e9))
        links = (LinkSpec(0, 1, value, value), LinkSpec(1, 0, 32.0))
        layers = (LayerProfile(0, value, 10, value, 32), inst.model.layers[1])
        inst = make_2x2_instance(
            cluster=ClusterSpec(servers=servers, links=links),
            model=ModelProfile(layers=layers, batch_size=1, embedding_size=4))
        got = [v for v in validate_instance(inst) if v.code == "NonFiniteValue"]
        assert len(got) == 6  # ccs, storage, capacity, prop delay, flops, output size

    def test_bit_widths_outside_quantizer_range(self):
        inst = make_2x2_instance(bit_menu=(1, 8, 33), feasible_bits=((8,), (8,)))
        assert codes(validate_instance(inst)) == ["BitsTooSmall", "BitsTooLarge"]

    @pytest.mark.parametrize("delta, expect", [(math.nan, ["NonFiniteValue"]),
                                               (-1.0, ["NegativeDelta"]),
                                               (math.inf, [])])
    def test_delta_must_be_a_non_negative_number(self, delta, expect):
        assert codes(validate_instance(make_2x2_instance(delta=delta))) == expect

    def test_duplicate_link(self):
        inst = make_2x2_instance()
        links = inst.cluster.links + (LinkSpec(0, 1, 64.0),)
        inst = make_2x2_instance(cluster=ClusterSpec(inst.cluster.servers, links))
        assert codes(validate_instance(inst)) == ["DuplicateLink"]

    def test_servers_out_of_id_order(self):
        inst = make_2x2_instance()
        servers = tuple(reversed(inst.cluster.servers))
        inst = make_2x2_instance(cluster=ClusterSpec(servers, inst.cluster.links))
        assert codes(validate_instance(inst)) == ["ServerIdsOutOfOrder"]


class TestLoadInstance:
    def test_servers_sorted_by_id(self, tmp_path):
        doc = json.loads(Path(data_path("cluster_m4.json")).read_text())
        doc["servers"].reverse()
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps(doc))
        inst = load_instance(p, data_path("model_l3.json"),
                             bit_menu=(4, 8), delta=math.inf, tokens=4)
        ordered = load_instance(data_path("cluster_m4.json"),
                                data_path("model_l3.json"),
                                bit_menu=(4, 8), delta=math.inf, tokens=4)
        assert [s.id for s in inst.cluster.servers] == [0, 1, 2, 3]
        assert inst == ordered

    def test_fixture_counts(self):
        inst = load_instance(data_path("cluster_m4.json"),
                             data_path("model_l3.json"),
                             bit_menu=(4, 8), delta=math.inf, tokens=4)
        assert inst.cluster.num_servers == 4
        assert inst.model.num_layers == 3
        assert inst.feasible_bits == ((4, 8),) * 3

    def test_only_none_means_not_narrowed(self):
        paths = data_path("cluster_2x2.json"), data_path("model_2x2.json")
        kwargs = dict(bit_menu=(4, 8), delta=math.inf, tokens=1)
        assert load_instance(*paths, **kwargs).feasible_bits == ((4, 8), (4, 8))
        # an explicit sequence is taken as given, so an empty one does not
        # widen the two layers to the full menu
        with pytest.raises(ValidationError) as exc:
            load_instance(*paths, **kwargs, feasible_bits=[])
        assert codes(exc.value.violations) == ["FeasibleBitsLengthMismatch"]
        assert codes(validate_instance(make_2x2_instance(feasible_bits=()))) == \
            ["FeasibleBitsLengthMismatch"]

    def test_missing_layers_key(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"batch_size": 1, "embedding_size": 4}))
        with pytest.raises(ParseError, match="layers"):
            load_instance(data_path("cluster_2x2.json"), p,
                          bit_menu=(8,), delta=0.0, tokens=1)

    def test_negative_storage_rejected(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps({
            "servers": [{"id": 0, "ccs_flops": 1.0, "storage_bytes": -5.0}],
            "links": []}))
        with pytest.raises(ValidationError) as exc:
            load_instance(p, data_path("model_2x2.json"),
                          bit_menu=(8,), delta=0.0, tokens=1)
        assert any(v.code == "NegativeStorage" for v in exc.value.violations)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_instance(p, data_path("model_2x2.json"),
                          bit_menu=(8,), delta=0.0, tokens=1)


# -- save/load round trip ---------------------------------------------------

servers_st = st.lists(
    st.tuples(st.floats(1.0, 1e12), st.floats(0.0, 1e12)),
    min_size=1, max_size=5,
).map(lambda rows: tuple(
    ServerSpec(i, ccs, cap) for i, (ccs, cap) in enumerate(rows)))


@st.composite
def instances(draw):
    servers = draw(servers_st)
    m = len(servers)
    links = []
    for src in range(m):
        for dst in range(m):
            if src != dst and draw(st.booleans()):
                links.append(LinkSpec(src, dst, draw(st.floats(1.0, 1e10)),
                                      draw(st.floats(0.0, 1.0))))
    n_layers = draw(st.integers(1, 4))
    layers = tuple(
        LayerProfile(i, draw(st.floats(0.0, 1e9)),
                     draw(st.integers(0, 10**7)),
                     draw(st.floats(0.0, 1e6)),
                     draw(st.sampled_from([8, 16, 32, 64])))
        for i in range(n_layers))
    return ProblemInstance(
        cluster=ClusterSpec(servers=servers, links=tuple(links)),
        model=ModelProfile(layers=layers, batch_size=draw(st.integers(1, 8)),
                           embedding_size=draw(st.integers(1, 1024))),
        bit_menu=tuple(draw(st.sets(st.integers(2, 16), min_size=1, max_size=3))),
        delta=draw(st.floats(0.0, 10.0)),
        tokens=draw(st.integers(0, 32)),
    )


@given(instances())
@settings(max_examples=50, deadline=None)
def test_save_load_round_trip(tmp_path_factory, inst):
    tmp = tmp_path_factory.mktemp("rt")
    save_instance(inst, tmp / "c.json", tmp / "m.json")
    back = load_instance(tmp / "c.json", tmp / "m.json",
                         bit_menu=inst.bit_menu, delta=inst.delta,
                         tokens=inst.tokens, feasible_bits=inst.feasible_bits)
    assert back == inst
