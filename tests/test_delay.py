import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from edgeplan.core import LayerProfile, LinkSpec, ParseError, ServerSpec, ValidationError
from edgeplan.delay import (DelayOptions, build_delay_table, check_plan_feasible,
                            compute_cm, compute_cp, path_delay)
from edgeplan.gen import random_test_instance

from conftest import make_2x2_instance, with_binding_storage


def layer(flops=100.0, params=10, out=4.0, obp=32):
    return LayerProfile(flops, params, out, obp)


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


class TestDelayOptions:
    @pytest.mark.parametrize("field, value", [
        ("cp_scaling", "pl"), ("cp_scaling", 5), ("per_token_activation", "no"),
        ("per_token_activation", 1), ("storage", "bogus"), ("storage", 7)])
    def test_bad_value_is_value_error(self, field, value):
        """Checked where a value enters: from_doc for a plan's options block."""
        with pytest.raises(ParseError, match=field):
            DelayOptions.from_doc({field: value})

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

    def test_propagation_term(self):
        # n=2, payload=1*16, b=8, capacity=256 -> 2 * (128/256 + 0.01) = 1.02
        got = compute_cm(layer(), LinkSpec(0, 1, 256.0, 0.01), 8, 2, 1, 16)
        assert got == pytest.approx(1.02, rel=1e-12)


class TestDelayTable:
    def test_entry_counts(self, golden_instance, golden_table):
        assert golden_table.widths == (8, 8)
        assert golden_table.cp.shape == (2, 2)  # L, M
        assert golden_table.cm.shape == (2, 2, 2)  # L, M, M
        assert np.isfinite(golden_table.cp).all()
        off_diagonal = ~np.eye(2, dtype=bool)
        assert np.isfinite(golden_table.cm[:, off_diagonal]).all()

    def test_missing_link_is_infinite(self):
        inst = make_2x2_instance()
        one_way = tuple(inst.cluster.links)[:1]  # keep only 0 -> 1
        inst = make_2x2_instance(
            cluster=type(inst.cluster)(servers=inst.cluster.servers,
                                       links=one_way))
        table = build_delay_table(inst)
        assert math.isinf(table.cm[0, 1, 0])
        assert table.cm[0, 0, 1] > 0

    def test_diagonal_is_infinite(self, golden_table):
        """No server links to itself: consecutive layers need distinct servers."""
        assert golden_table.cm[0, 0, 0] == math.inf
        assert golden_table.cm[1, 1, 1] == math.inf

    @pytest.mark.parametrize("options", [
        DelayOptions(cp_scaling="without_pl", per_token_activation=False), DelayOptions()],
        ids=["payload", "cp_scale"])
    def test_layer_factor_beyond_the_float_range(self, options):
        """Output size 1e308 at 32 bits of an 8-bit layer: the payload
        (1e308 * 32) or the compute scaling (32 / 8 * 1e308) is a Python
        product, which overflows to inf without a flag. The table refuses
        it as DelayOverflow, with no warning, instead of reading it as the
        mask."""
        base = make_2x2_instance()
        layers = (LayerProfile(100.0, 10, 1e308, 8), base.model.layers[1])
        inst = make_2x2_instance(bit_menu=(32,),
                                 model=dataclasses.replace(base.model, layers=layers))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="DelayOverflow"):
                build_delay_table(inst, options)

    def test_pointwise_matches_direct_evaluation(self):
        rng = random.Random(20)
        for _ in range(100):
            inst = random_test_instance(rng)
            table = build_delay_table(inst)
            finite = {(int(i), int(l))
                      for l, i in zip(*np.nonzero(np.isfinite(table.cp)))}
            assert finite == {(i, l) for i in range(inst.cluster.num_servers)
                              for l, fb in enumerate(inst.feasible_bits) if fb}
            for (i, l) in finite:
                direct = compute_cp(inst.model.layers[l], inst.cluster.servers[i],
                                    inst.feasible_bits[l][0], inst.tokens)
                assert table.cp[l, i] == direct

    @pytest.mark.parametrize("seed", range(100))
    def test_entries_match_scalar_functions_and_mask(self, seed):
        """Each layer runs at the smallest width it keeps, also when the
        set is given unsorted; every finite entry equals the scalar
        reference at that width bit for bit; every inf is a missing link
        (the diagonal among them), a layer without a width or a storage
        overflow."""
        rng = random.Random(30_000 + seed)
        density, tightness = rng.choice([0.3, 0.6, 0.9]), rng.choice([0.0, 0.5])
        inst = with_binding_storage(random_test_instance(rng, link_density=density),
                                    rng, tightness)
        feasible = list(inst.feasible_bits)
        feasible[0] = tuple(rng.sample(inst.bit_menu, len(inst.bit_menu)))
        if seed % 3 == 0:
            feasible[-1] = ()  # cp[-1] is all inf
        inst = dataclasses.replace(inst, feasible_bits=tuple(feasible))
        options = DelayOptions(cp_scaling=rng.choice(["with_pl", "without_pl"]),
                               per_token_activation=rng.random() < 0.5,
                               storage="literal" if rng.random() < 0.3 else "compact")
        table = build_delay_table(inst, options)
        cluster, model = inst.cluster, inst.model
        M, L = cluster.num_servers, model.num_layers
        assert table.widths == tuple(min(fb) if fb else None for fb in feasible)
        assert table.cp.shape == (L, M) and table.cm.shape == (L, M, M)
        for l, layer in enumerate(model.layers):
            b = table.widths[l]
            for i, server in enumerate(cluster.servers):
                fits = b is not None and (
                    options.bytes_needed(layer, b) <= server.storage_capacity)
                if fits:
                    assert table.cp[l, i] == compute_cp(
                        layer, server, b, inst.tokens, options)
                else:
                    assert table.cp[l, i] == math.inf
                for j in range(M):
                    link = cluster.link(i, j)
                    if b is not None and link is not None:
                        assert table.cm[l, i, j] == compute_cm(
                            layer, link, b, inst.tokens, model.batch_size,
                            model.embedding_size, options)
                    else:
                        assert table.cm[l, i, j] == math.inf


class TestEvaluatePlan:
    """Pricing a plan: path_delay over the table's entries."""

    def test_golden_plan(self, golden_table):
        total, cp, cm = path_delay(golden_table.cp, golden_table.cm, [0, 1])
        assert total == pytest.approx(3.0, rel=1e-12)
        assert cp == pytest.approx(2.0, rel=1e-12)
        assert cm == pytest.approx(1.0, rel=1e-12)

    def test_swapped_plan(self, golden_table):
        total, _, _ = path_delay(golden_table.cp, golden_table.cm, [1, 0])
        assert total == pytest.approx(3.5, rel=1e-12)

    def test_single_layer_has_no_comm(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(model=type(inst.model)(
            layers=inst.model.layers[:1], batch_size=1, embedding_size=4))
        table = build_delay_table(inst)
        total, cp, cm = path_delay(table.cp, table.cm, [0])
        assert cm == 0.0
        assert total == cp

    def test_dominated_width_is_feasible_but_not_kept(self):
        """The table keeps only the smallest width; a plan at a larger
        feasible width still passes the plan checker."""
        inst = make_2x2_instance(bit_menu=(4, 8), feasible_bits=((8, 4), (8,)))
        assert build_delay_table(inst).widths == (4, 8)
        assert check_plan_feasible(((0, 8), (1, 8)), inst) == []


def price(servers, inst):
    """(total, compute, comm) of an admissible path on inst's table."""
    table = build_delay_table(inst)
    delay = path_delay(table.cp, table.cm, servers)
    assert math.isfinite(delay[0])
    return delay


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
        servers = range(inst.model.num_layers)
        _, _, comm = price(servers, inst)
        _, _, comm_scaled = price(servers, _scale_instance(inst, link_factor=4.0))
        assert comm_scaled == pytest.approx(comm / 4.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_throughput_scaling_divides_compute(self, seed):
        rng = random.Random(100 + seed)
        inst = random_test_instance(rng, link_density=1.0)
        servers = range(inst.model.num_layers)
        _, cp, _ = price(servers, inst)
        _, cp_scaled, _ = price(servers, _scale_instance(inst, ccs_factor=2.0))
        assert cp_scaled == pytest.approx(cp / 2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_total_linear_in_tokens(self, seed):
        rng = random.Random(200 + seed)
        inst = random_test_instance(rng, link_density=1.0, tokens=3)
        servers = range(inst.model.num_layers)
        base = _scale_instance(inst)  # zeroes the propagation delays
        total_a, _, _ = price(servers, base)
        total_2a, _, _ = price(servers, _scale_instance(inst, tokens=6))
        assert total_2a == pytest.approx(2.0 * total_a, rel=1e-12)
