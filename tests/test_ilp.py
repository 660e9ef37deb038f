import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from edgeplan.core import (ClusterSpec, LayerProfile, ModelProfile,
                           ProblemInstance, ServerSpec)
from edgeplan.delay import DelayOptions, build_delay_table, evaluate_plan
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.ilp import (EmptyFeasibleSet, build_ilp, check_plan_feasible,
                          export_lp, model_as_parsed, parse_lp, storage_bytes,
                          substitute, write_lp)
from edgeplan.solver import solve_brute_force

from conftest import make_2x2_instance, with_binding_storage


def codes(violations):
    return [v.code for v in violations]


class TestBuildIlp:
    def test_golden_counts(self, golden_instance, golden_table):
        m = build_ilp(golden_instance, golden_table)
        assert len(m.x_vars) == 4
        assert len(m.z_vars) == 2
        assert not any(name.startswith("y_") for name in m.binaries)
        names = [r.name for r in m.constraints]
        assert names == ["assign_l0", "assign_l1", "cap_s0", "cap_s1",
                         "out_l0_s0_b8", "out_l0_s1_b8", "in_l0_s0", "in_l0_s1"]
        assert len(m.binaries) == 6

    def test_storage_pruning_omits_columns(self):
        # layer needs bits * 10 / 8 bytes; cap server 0 below the 8-bit need
        inst = make_2x2_instance()
        cluster = ClusterSpec(
            servers=(ServerSpec(0, 100.0, 5.0), ServerSpec(1, 200.0, 1e9)),
            links=inst.cluster.links)
        inst = make_2x2_instance(cluster=cluster)
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        assert (0, 0, 8) not in m.x_vars and (0, 1, 8) not in m.x_vars
        referenced = set()
        for row in m.constraints:
            referenced |= set(row.coeffs)
        assert referenced <= set(m.binaries)

    def test_layer_too_big_everywhere(self):
        inst = make_2x2_instance()
        cluster = ClusterSpec(
            servers=(ServerSpec(0, 100.0, 1.0), ServerSpec(1, 200.0, 1.0)),
            links=inst.cluster.links)
        inst = make_2x2_instance(cluster=cluster)
        with pytest.raises(EmptyFeasibleSet) as exc:
            build_ilp(inst, build_delay_table(inst))
        assert exc.value.layer == 0

    def test_nothing_pruned_gives_full_grid(self):
        inst = make_2x2_instance(bit_menu=(4, 8))
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        assert len(m.x_vars) == 2 * 2 * 2  # M * L * |menu|

    def test_flow_model_size(self):
        # rows: L assign + M cap + one out row per x below the last layer
        # + one in row per (boundary, server); nothing is masked here
        inst = generate_instance(1, 32, 12, (4, 8, 16), "heterogeneous", tokens=32)
        m = build_ilp(inst, build_delay_table(inst))
        assert len(m.constraints) == 12 + 32 + 11 * 32 * 3 + 11 * 32 == 1452
        assert len(m.x_vars) == 12 * 32 * 3
        assert sum(len(r.coeffs) for r in m.constraints) == 69_888

    def test_literal_storage_mode(self):
        layer = LayerProfile(0, 1.0, 10, 4.0, 32)
        assert storage_bytes(layer, 8) == 10.0
        assert storage_bytes(layer, 8, literal_output_factor=True) == 40.0


class TestCheckPlanFeasible:
    def test_solver_output_is_clean(self, golden_instance, golden_table):
        result = solve_brute_force(golden_instance, golden_table)
        assert check_plan_feasible(result.plan.assignments, golden_instance) == []

    def test_duplicate_server(self, golden_instance):
        got = check_plan_feasible(((0, 8), (0, 8)), golden_instance)
        assert "DuplicateServer" in codes(got)

    def test_bits_outside_feasible_set(self):
        inst = make_2x2_instance(bit_menu=(4, 8), feasible_bits=((8,), (4, 8)))
        got = check_plan_feasible(((0, 4), (1, 8)), inst)
        assert "InfeasibleBits" in codes(got)

    def test_missing_link(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(
            cluster=ClusterSpec(servers=inst.cluster.servers,
                                links=inst.cluster.links[1:]))
        got = check_plan_feasible(((0, 8), (1, 8)), inst)
        assert "MissingLink" in codes(got)

    def test_storage_follows_options(self):
        """Each layer needs 10 B at 8 bits, 40 B under literal storage."""
        inst = make_2x2_instance()
        servers = tuple(dataclasses.replace(s, storage_capacity=20.0)
                        for s in inst.cluster.servers)
        inst = make_2x2_instance(cluster=ClusterSpec(servers, inst.cluster.links))
        assert check_plan_feasible(((0, 8), (1, 8)), inst) == []
        got = check_plan_feasible(((0, 8), (1, 8)), inst, DelayOptions(storage="literal"))
        assert codes(got) == ["StorageOverflow", "StorageOverflow"]

    def test_wrong_length(self, golden_instance):
        assert codes(check_plan_feasible(((0, 8),), golden_instance)) == ["WrongLength"]


class TestFlowRows:
    def test_missing_link_has_no_z_column(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(
            cluster=ClusterSpec(servers=inst.cluster.servers,
                                links=inst.cluster.links[1:]))  # drops 0 -> 1
        m = build_ilp(inst, build_delay_table(inst))
        assert set(m.z_vars) == {(1, 0, 0, 8)}
        referenced = set()
        for row in m.constraints:
            referenced |= set(row.coeffs)
        assert "z_0_1_0_8" not in referenced | set(m.objective)

    @pytest.mark.parametrize("seed", range(20))
    def test_z_columns_exactly_where_flow_can_pass(self, seed):
        rng = random.Random(1_100 + seed)
        inst = random_test_instance(rng, link_density=(0.3, 0.6, 1.0)[seed % 3])
        inst = with_binding_storage(inst, rng, 0.6 if seed % 2 else 0.0)
        table = build_delay_table(inst)
        try:
            m = build_ilp(inst, table)
        except EmptyFeasibleSet:
            return
        links = {(lk.src, lk.dst) for lk in inst.cluster.links}
        want = {(i, j, l, b)
                for (i, l, b) in m.x_vars
                for j in range(inst.cluster.num_servers)
                if l + 1 < inst.model.num_layers and j != i and (i, j) in links
                and any((j, l + 1, b2) in m.x_vars for b2 in inst.bit_menu)}
        assert set(m.z_vars) == want
        for (i, j, l, b), name in m.z_vars.items():
            assert m.objective[name] == table.cm[l, i, j, table.bit_index(b)]

    def test_placement_without_flow_violates_out_and_in(self, golden_instance,
                                                        golden_table):
        m = build_ilp(golden_instance, golden_table)
        # consecutive layers on (0, 1) with every z at 0
        vals = {name: 0.0 for name in m.binaries}
        vals["x_0_0_8"] = vals["x_1_1_8"] = 1.0
        violated = []
        for r in m.constraints:
            lhs = sum(c * vals[v] for v, c in r.coeffs.items())
            if not (lhs <= r.rhs if r.relation == "<=" else lhs == r.rhs):
                violated.append(r.name)
        assert violated == ["out_l0_s0_b8", "in_l0_s1"]

    @pytest.mark.parametrize("seed", range(10))
    def test_substitute_sets_one_z_per_boundary(self, seed):
        rng = random.Random(1_200 + seed)
        inst = random_test_instance(rng, max_layers=3, max_servers=4,
                                    link_density=(0.6, 1.0)[seed % 2])
        m = build_ilp(inst, build_delay_table(inst))
        L = inst.model.num_layers
        plans = 0
        for perm in itertools.permutations(range(inst.cluster.num_servers), L):
            for bits in itertools.product(*inst.feasible_bits):
                plan = tuple(zip(perm, bits))
                if check_plan_feasible(plan, inst):
                    continue
                plans += 1
                values, _, violated = substitute(m, plan)
                assert violated == []
                on = sorted((key for key, name in m.z_vars.items() if values[name] == 1.0),
                            key=lambda key: key[2])
                assert on == [(perm[l], perm[l + 1], l, bits[l]) for l in range(L - 1)]
        assert plans > 0


class TestSubstitution:
    @pytest.mark.parametrize("seed", range(30))
    def test_optimum_satisfies_every_row_and_objective(self, seed):
        rng = random.Random(300 + seed)
        inst = random_test_instance(rng, link_density=1.0)
        table = build_delay_table(inst)
        result = solve_brute_force(inst, table)
        if result.plan is None:
            return
        try:
            m = build_ilp(inst, table)
        except EmptyFeasibleSet:
            return
        _, obj, violated = substitute(m, result.plan.assignments)
        assert violated == []
        total, _, _ = evaluate_plan(result.plan.assignments, table)
        assert obj == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_feasible_plans_match_objective(self, seed):
        rng = random.Random(600 + seed)
        inst = random_test_instance(rng, max_layers=3, max_servers=4,
                                    link_density=1.0)
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        L = inst.model.num_layers
        server_ids = range(inst.cluster.num_servers)
        for perm in itertools.permutations(server_ids, L):
            for bits in itertools.product(*inst.feasible_bits):
                plan = tuple(zip(perm, bits))
                if check_plan_feasible(plan, inst):
                    continue
                _, obj, violated = substitute(m, plan)
                assert violated == []
                total, _, _ = evaluate_plan(plan, table)
                assert obj == pytest.approx(total, rel=1e-9)


class TestLpExport:
    def test_deterministic_bytes(self, golden_instance, golden_table, tmp_path):
        m1 = build_ilp(golden_instance, golden_table)
        m2 = build_ilp(golden_instance, build_delay_table(golden_instance))
        export_lp(m1, tmp_path / "a.lp")
        export_lp(m2, tmp_path / "b.lp")
        assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()

    def test_round_trip(self, golden_instance, golden_table):
        m = build_ilp(golden_instance, golden_table)
        parsed = parse_lp(write_lp(m))
        assert parsed == model_as_parsed(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_random(self, seed):
        rng = random.Random(900 + seed)
        inst = random_test_instance(rng, link_density=1.0)
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        parsed = parse_lp(write_lp(m))
        assert parsed.binaries == m.binaries
        assert parsed.objective == pytest.approx(m.objective)
        assert len(parsed.constraints) == len(m.constraints)
        for got, want in zip(parsed.constraints, m.constraints):
            assert got.name == want.name
            assert got.relation == want.relation
            assert got.rhs == want.rhs
            assert got.coeffs == pytest.approx(want.coeffs)

    def test_golden_file_frozen(self, golden_instance, golden_table):
        from conftest import data_path
        m = build_ilp(golden_instance, golden_table)
        with open(data_path("golden_2x2.lp")) as f:
            assert f.read() == write_lp(m)


def _milp_solve(text, *, continuous_z=False):
    """Solve an exported LP with HiGHS: (status, objective, assignments).

    continuous_z relaxes the z columns to [0, 1]. The optimum is the same
    (at integral x the flow rows leave one z per layer boundary, at 1),
    and HiGHS is about 10x faster at M=24/L=10."""
    from scipy import optimize, sparse

    lp = parse_lp(text)
    column = {name: k for k, name in enumerate(lp.binaries)}
    c = np.zeros(len(column))
    for name, v in lp.objective.items():
        c[column[name]] = v
    rows, cols, vals = [], [], []
    lo = np.empty(len(lp.constraints))
    hi = np.empty(len(lp.constraints))
    for r, row in enumerate(lp.constraints):
        for name, v in row.coeffs.items():
            rows.append(r)
            cols.append(column[name])
            vals.append(v)
        lo[r] = -math.inf if row.relation == "<=" else row.rhs
        hi[r] = math.inf if row.relation == ">=" else row.rhs
    # sparse: the flow model's nonzeros are a small share of rows x columns
    A = sparse.csr_array((vals, (rows, cols)), shape=(len(lp.constraints), len(column)))
    res = optimize.milp(c, constraints=optimize.LinearConstraint(A, lo, hi),
                        integrality=[0 if continuous_z and name.startswith("z_") else 1
                                     for name in lp.binaries],
                        bounds=optimize.Bounds(0.0, 1.0),
                        options={"mip_rel_gap": 0.0})
    if res.status != 0:
        return res.status, None, None
    placed = {}
    for name, value in zip(lp.binaries, res.x):
        if name.startswith("x_") and value > 0.5:
            i, l, b = map(int, name.split("_")[1:])
            placed[l] = (i, b)
    return 0, res.fun, tuple(placed[l] for l in sorted(placed))


class TestHighsGate:
    def test_flow_lp_optimum_equals_brute_force(self):
        pytest.importorskip("scipy.optimize")
        solved = infeasible = 0
        for seed in range(200):
            rng = random.Random(1_300_000 + seed)
            inst = random_test_instance(rng, link_density=rng.choice((0.3, 0.6, 1.0)))
            inst = with_binding_storage(inst, rng, 0.6 if seed % 2 else 0.0)
            table = build_delay_table(inst)
            exact = solve_brute_force(inst, table)
            try:
                text = write_lp(build_ilp(inst, table))
            except EmptyFeasibleSet:
                assert exact.plan is None, seed
                infeasible += 1
                continue
            status, obj, plan = _milp_solve(text)
            if exact.plan is None:
                assert status == 2, seed  # HiGHS: infeasible
                infeasible += 1
                continue
            assert status == 0, seed
            assert obj == pytest.approx(exact.objective, rel=1e-7), seed
            assert check_plan_feasible(plan, inst) == [], seed
            total, _, _ = evaluate_plan(plan, table)
            assert total == pytest.approx(exact.objective, rel=1e-7), seed
            solved += 1
        assert solved >= 150 and infeasible >= 10, (solved, infeasible)
