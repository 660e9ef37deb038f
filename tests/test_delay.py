import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplan.core import LayerProfile, LinkSpec, ServerSpec
from edgeplan.delay import (DelayOptions, InfeasibleEdge, InvalidBits,
                            build_delay_table, compute_cm, compute_cp,
                            cp_table_csv, evaluate_plan)
from edgeplan.core import storage_bytes
from edgeplan.gen import random_test_instance

from conftest import make_2x2_instance, with_binding_storage


def layer(flops=100.0, params=10, out=4.0, obp=32, idx=0):
    return LayerProfile(idx, flops, params, out, obp)


class TestComputeCp:
    def test_hand_example(self):
        # n=2, flops=100, throughput=50, b=8, p=4, obp=32 -> 2 * 2 * (32/32) = 4
        got = compute_cp(layer(100.0, out=4.0), ServerSpec(0, 50.0, 0.0), 8, 2)
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_zero_tokens(self):
        assert compute_cp(layer(), ServerSpec(0, 50.0, 0.0), 8, 0) == 0.0

    def test_identity_scaling(self):
        # b == obp and p == 1 leaves flops/throughput untouched
        got = compute_cp(layer(100.0, out=1.0, obp=32), ServerSpec(0, 100.0, 0.0), 32, 1)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_without_pl_scaling(self):
        opts = DelayOptions(cp_scaling="without_pl")
        got = compute_cp(layer(100.0, out=4.0), ServerSpec(0, 50.0, 0.0), 8, 2, opts)
        assert got == pytest.approx(4.0 / 4.0, rel=1e-12)

    def test_invalid_bits(self):
        with pytest.raises(InvalidBits):
            compute_cp(layer(), ServerSpec(0, 1.0, 0.0), 1, 1)
        # the bound is core.MAX_BITS, the one every instance is validated against
        with pytest.raises(InvalidBits):
            compute_cp(layer(), ServerSpec(0, 1.0, 0.0), 33, 1)
        with pytest.raises(InvalidBits):
            compute_cm(layer(), LinkSpec(0, 1, 1.0), 33, 1, 1, 16)
        assert compute_cp(layer(), ServerSpec(0, 1.0, 0.0), 32, 1) > 0
        assert compute_cm(layer(), LinkSpec(0, 1, 1.0), 32, 1, 1, 16) > 0


class TestDelayOptions:
    @pytest.mark.parametrize("field, value", [
        ("cp_scaling", "pl"), ("cp_scaling", 5), ("per_token_activation", "no"),
        ("per_token_activation", 1), ("storage", "bogus"), ("storage", 7)])
    def test_bad_value_is_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            DelayOptions(**{field: value})

    def test_doc_round_trip_and_defaults(self):
        options = DelayOptions("without_pl", False, "literal")
        assert DelayOptions.from_doc(options.to_doc()) == options
        assert DelayOptions.from_doc({"bits": [8]}) == DelayOptions()


class TestComputeCm:
    def test_hand_example_output_size_payload(self):
        # n=3, payload=10 elements, b=4, capacity=120 bps -> 3 * 40/120 = 1.0
        opts = DelayOptions(per_token_activation=False)
        got = compute_cm(layer(out=10.0), LinkSpec(0, 1, 120.0), 4, 3, 1, 16, opts)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_self_link_is_free(self):
        got = compute_cm(layer(), None, 8, 5, 1, 16, same_server=True)
        assert got == 0.0

    def test_propagation_term(self):
        # n=2, payload=1*16, b=8, capacity=256 -> 2 * (128/256 + 0.01) = 1.02
        got = compute_cm(layer(), LinkSpec(0, 1, 256.0, 0.01), 8, 2, 1, 16)
        assert got == pytest.approx(1.02, rel=1e-12)

    def test_no_link_raises(self):
        from edgeplan.delay import NoLink
        with pytest.raises(NoLink):
            compute_cm(layer(), None, 8, 1, 1, 16)


class TestDelayTable:
    def test_entry_counts(self, golden_instance, golden_table):
        assert golden_table.cp.shape == (2, 2, 1)  # M, L, B
        assert golden_table.cm.shape == (2, 2, 2, 1)  # L, M, M, B
        assert np.isfinite(golden_table.cp).all()
        assert np.isfinite(golden_table.cm).all()

    def test_missing_link_is_infinite(self):
        inst = make_2x2_instance()
        one_way = inst.cluster.links[:1]  # keep only 0 -> 1
        inst = make_2x2_instance(
            cluster=type(inst.cluster)(servers=inst.cluster.servers,
                                       links=one_way))
        table = build_delay_table(inst)
        k = table.bit_index(8)
        assert math.isinf(table.cm[0, 1, 0, k])
        assert table.cm[0, 0, 1, k] > 0

    def test_diagonal_is_zero(self, golden_table):
        k = golden_table.bit_index(8)
        assert golden_table.cm[0, 0, 0, k] == 0.0
        assert golden_table.cm[1, 1, 1, k] == 0.0

    def test_pointwise_matches_direct_evaluation(self):
        rng = random.Random(20)
        for _ in range(100):
            inst = random_test_instance(rng)
            table = build_delay_table(inst)
            finite = {(int(i), int(l), table.bit_menu[k])
                      for i, l, k in zip(*np.nonzero(np.isfinite(table.cp)))}
            assert finite == {(i, l, b) for i in range(inst.cluster.num_servers)
                              for l, fb in enumerate(inst.feasible_bits) for b in fb}
            for (i, l, b) in finite:
                direct = compute_cp(inst.model.layers[l],
                                    inst.cluster.servers[i], b, inst.tokens)
                assert table.cp[i, l, table.bit_index(b)] == direct

    @pytest.mark.parametrize("seed", range(100))
    def test_entries_match_scalar_functions_and_mask(self, seed):
        """Every finite entry equals the scalar reference bit for bit; every
        inf is a missing link, an infeasible width or a storage overflow."""
        rng = random.Random(30_000 + seed)
        density, tightness = rng.choice([0.3, 0.6, 0.9]), rng.choice([0.0, 0.5])
        inst = with_binding_storage(random_test_instance(rng, link_density=density),
                                    rng, tightness)
        options = DelayOptions(cp_scaling=rng.choice(["with_pl", "without_pl"]),
                               per_token_activation=rng.random() < 0.5,
                               storage="literal" if rng.random() < 0.3 else "compact")
        literal = options.storage == "literal"
        table = build_delay_table(inst, options)
        cluster, model = inst.cluster, inst.model
        M, L, B = cluster.num_servers, model.num_layers, len(inst.bit_menu)
        assert table.cp.shape == (M, L, B) and table.cm.shape == (L, M, M, B)
        for l, layer in enumerate(model.layers):
            for k, b in enumerate(inst.bit_menu):
                feasible = b in inst.feasible_bits[l]
                for i, server in enumerate(cluster.servers):
                    fits = (storage_bytes(layer, b, literal_output_factor=literal)
                            <= server.storage_capacity)
                    if feasible and fits:
                        assert table.cp[i, l, k] == compute_cp(
                            layer, server, b, inst.tokens, options)
                    else:
                        assert table.cp[i, l, k] == math.inf
                    for j in range(M):
                        link = cluster.link(i, j)
                        if feasible and (i == j or link is not None):
                            assert table.cm[l, i, j, k] == compute_cm(
                                layer, link, b, inst.tokens, model.batch_size,
                                model.embedding_size, options, same_server=i == j)
                        else:
                            assert table.cm[l, i, j, k] == math.inf

    def test_csv_export(self, golden_table):
        text = cp_table_csv(golden_table)
        lines = text.strip().split("\n")
        assert lines[0] == "server,layer,bits,cp_seconds"
        assert len(lines) == 1 + np.isfinite(golden_table.cp).sum() == 1 + 4
        assert lines[1] == "0,0,8,1.0"


class TestEvaluatePlan:
    def test_golden_plan(self, golden_table):
        total, cp, cm = evaluate_plan(((0, 8), (1, 8)), golden_table)
        assert total == pytest.approx(3.0, rel=1e-12)
        assert cp == pytest.approx(2.0, rel=1e-12)
        assert cm == pytest.approx(1.0, rel=1e-12)

    def test_swapped_plan(self, golden_table):
        total, _, _ = evaluate_plan(((1, 8), (0, 8)), golden_table)
        assert total == pytest.approx(3.5, rel=1e-12)

    def test_single_layer_has_no_comm(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(model=type(inst.model)(
            layers=inst.model.layers[:1], batch_size=1, embedding_size=4))
        table = build_delay_table(inst)
        total, cp, cm = evaluate_plan(((0, 8),), table)
        assert cm == 0.0
        assert total == cp

    def test_missing_link_raises(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(
            cluster=type(inst.cluster)(servers=inst.cluster.servers,
                                       links=inst.cluster.links[1:]))
        table = build_delay_table(inst)
        with pytest.raises(InfeasibleEdge):
            evaluate_plan(((0, 8), (1, 8)), table)


def _scale_instance(inst, *, link_factor=1.0, ccs_factor=1.0, tokens=None):
    cluster = type(inst.cluster)(
        servers=tuple(type(s)(s.id, s.compute_throughput * ccs_factor,
                              s.storage_capacity) for s in inst.cluster.servers),
        links=tuple(type(lk)(lk.src, lk.dst, lk.capacity_bps * link_factor, 0.0)
                    for lk in inst.cluster.links))
    return type(inst)(cluster=cluster, model=inst.model, bit_menu=inst.bit_menu,
                      delta=inst.delta,
                      tokens=inst.tokens if tokens is None else tokens,
                      feasible_bits=inst.feasible_bits)


class TestScalingProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_link_capacity_scaling_divides_comm(self, seed):
        rng = random.Random(seed)
        inst = random_test_instance(rng, link_density=1.0)
        plan = [(l, inst.feasible_bits[l][0]) for l in range(inst.model.num_layers)]
        _, _, comm = evaluate_plan(plan, build_delay_table(inst))
        _, _, comm_scaled = evaluate_plan(plan, build_delay_table(
            _scale_instance(inst, link_factor=4.0)))
        assert comm_scaled == pytest.approx(comm / 4.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_throughput_scaling_divides_compute(self, seed):
        rng = random.Random(100 + seed)
        inst = random_test_instance(rng, link_density=1.0)
        plan = [(l, inst.feasible_bits[l][0]) for l in range(inst.model.num_layers)]
        _, cp, _ = evaluate_plan(plan, build_delay_table(inst))
        _, cp_scaled, _ = evaluate_plan(plan, build_delay_table(
            _scale_instance(inst, ccs_factor=2.0)))
        assert cp_scaled == pytest.approx(cp / 2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_total_linear_in_tokens(self, seed):
        rng = random.Random(200 + seed)
        inst = random_test_instance(rng, link_density=1.0, tokens=3)
        plan = [(l, inst.feasible_bits[l][0]) for l in range(inst.model.num_layers)]
        base = _scale_instance(inst)  # zeroes the propagation delays
        total_a, _, _ = evaluate_plan(plan, build_delay_table(base))
        total_2a, _, _ = evaluate_plan(plan, build_delay_table(
            _scale_instance(inst, tokens=6)))
        assert total_2a == pytest.approx(2.0 * total_a, rel=1e-12)
