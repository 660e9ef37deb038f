import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from edgeplan.core import (ClusterSpec, LayerProfile, ServerSpec, load_instance,
                           write_outputs)
from edgeplan.delay import (DelayOptions, build_delay_table, check_plan_feasible,
                            compute_cm, compute_cp, path_delay)
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.ilp import build_ilp, parse_lp, storage_bytes, substitute, write_lp
from edgeplan.solver import solve_brute_force

from conftest import data_path, make_2x2_instance, with_binding_storage


def codes(violations):
    return [v.code for v in violations]


def columns(m, kind):
    """The index tuples of the model's x or z columns, in column order:
    x_{i}_{l}_{b} gives (i, l, b) and z_{i}_{j}_{l}_{b} gives (i, j, l, b)."""
    return [tuple(map(int, name.split("_")[1:]))
            for name in m.binaries if name.startswith(kind + "_")]


class TestBuildIlp:
    def test_golden_counts(self, golden_instance, golden_table):
        m = build_ilp(golden_instance, golden_table)
        assert m.binaries == ("x_0_0_8", "x_1_0_8", "x_0_1_8", "x_1_1_8",
                              "z_0_1_0_8", "z_1_0_0_8")
        names = [r.name for r in m.constraints]
        assert names == ["assign_l0", "assign_l1", "cap_s0", "cap_s1",
                         "out_l0_s0_b8", "out_l0_s1_b8", "in_l0_s0", "in_l0_s1"]

    def test_storage_pruning_omits_columns(self):
        # layer needs bits * 10 / 8 bytes; cap server 0 below the 8-bit need
        inst = make_2x2_instance()
        cluster = ClusterSpec(
            servers=(ServerSpec(0, 100.0, 5.0), ServerSpec(1, 200.0, 1e9)),
            links=inst.cluster.links)
        inst = make_2x2_instance(cluster=cluster)
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        assert "x_0_0_8" not in m.binaries and "x_0_1_8" not in m.binaries
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
        with pytest.raises(ValueError, match=r"^layer 0 has no feasible \(server, bits\) "
                                             r"placement$"):
            build_ilp(inst, build_delay_table(inst))

    def test_nothing_pruned_gives_full_grid(self):
        inst = make_2x2_instance(bit_menu=(4, 8))
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        assert len(columns(m, "x")) == 2 * 2  # M * L, at the one kept width per layer

    def test_flow_model_size(self):
        # rows: L assign + M cap + one out row per x below the last layer
        # + one in row per (boundary, server); nothing is masked here, and
        # each layer has one column per server, at its kept width
        inst = generate_instance(1, 32, 12, (4, 8, 16), "heterogeneous", tokens=32)
        m = build_ilp(inst, build_delay_table(inst))
        assert len(m.constraints) == 12 + 32 + 11 * 32 + 11 * 32 == 748
        assert columns(m, "x") == [(i, l, 4) for l in range(12) for i in range(32)]
        assert sum(len(r.coeffs) for r in m.constraints) == 23_296

    def test_literal_storage_mode(self):
        layer = LayerProfile(1.0, 10, 4.0, 32)
        assert storage_bytes(layer, 8) == DelayOptions().bytes_needed(layer, 8) == 10.0
        assert DelayOptions(storage="literal").bytes_needed(layer, 8) == 40.0


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
                                links=tuple(inst.cluster.links)[1:]))
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

    @pytest.mark.parametrize("server", [-1, 2])
    def test_unknown_server(self, golden_instance, server):
        got = check_plan_feasible(((0, 8), (server, 8)), golden_instance)
        assert codes(got) == ["UnknownServer", "MissingLink"]

    @pytest.mark.parametrize("server", [-1, 2])
    def test_unknown_first_server(self, golden_instance, server):
        """-1 is no alias of server M - 1 = 1: the hop from it to server 0
        is missing, although link 1 -> 0 exists."""
        got = check_plan_feasible(((server, 8), (0, 8)), golden_instance)
        assert codes(got) == ["UnknownServer", "MissingLink"]

    def test_wrong_length(self, golden_instance):
        assert codes(check_plan_feasible(((0, 8),), golden_instance)) == ["WrongLength"]


class TestFlowRows:
    def test_missing_link_has_no_z_column(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(
            cluster=ClusterSpec(servers=inst.cluster.servers,
                                links=tuple(inst.cluster.links)[1:]))  # drops 0 -> 1
        m = build_ilp(inst, build_delay_table(inst))
        assert columns(m, "z") == [(1, 0, 0, 8)]
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
        if table.unplaceable_layer() is not None:
            return
        m = build_ilp(inst, table)
        links = {(lk.src, lk.dst) for lk in inst.cluster.links}
        x = columns(m, "x")
        want = [(i, j, l, b)
                for l in range(inst.model.num_layers - 1)
                for (i, l0, b) in x if l0 == l
                for j in range(inst.cluster.num_servers)
                if j != i and (i, j) in links
                and any((j, l + 1, b2) in x for b2 in inst.bit_menu)]
        assert columns(m, "z") == want  # also in (layer, src, dst) order
        for i, j, l, b in want:
            assert b == table.widths[l]
            assert m.objective[f"z_{i}_{j}_{l}_{b}"] == table.cm[l, i, j]

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
        table = build_delay_table(inst)
        m = build_ilp(inst, table)
        L = inst.model.num_layers
        bits = table.widths  # the LP has columns at the kept widths only
        plans = 0
        for perm in itertools.permutations(range(inst.cluster.num_servers), L):
            plan = tuple(zip(perm, bits))
            if check_plan_feasible(plan, inst):
                continue
            plans += 1
            values, _, violated = substitute(m, plan)
            assert violated == []
            on = [tuple(map(int, name.split("_")[1:])) for name, v in values.items()
                  if name.startswith("z_") and v == 1.0]
            assert on == [(perm[l], perm[l + 1], l, bits[l]) for l in range(L - 1)]
        assert plans > 0


def _scalar_total(plan, inst):
    """A plan's total from compute_cp and compute_cm, summed in
    delay.path_delay's order: the computes, then the transfers."""
    cluster, model = inst.cluster, inst.model
    compute = comm = 0.0
    for l, (i, b) in enumerate(plan):
        compute += compute_cp(model.layers[l], cluster.servers[i], b, inst.tokens)
        if l + 1 < len(plan):
            comm += compute_cm(model.layers[l], cluster.link(i, plan[l + 1][0]), b,
                               inst.tokens, model.batch_size, model.embedding_size)
    return compute + comm


class TestSubstitution:
    def test_names_the_rows_a_plan_violates(self):
        inst = make_2x2_instance()
        m = build_ilp(inst, build_delay_table(inst))
        assert substitute(m, ((0, 8), (1, 8)))[2] == []
        # server 0 hosts both layers; the self-hop has no z column
        assert substitute(m, ((0, 8), (0, 8)))[2] == ["cap_s0", "out_l0_s0_b8", "in_l0_s0"]
        # server 1 cannot store layer 1, so the model has no x_1_1_8 column
        small = dataclasses.replace(inst.cluster, servers=(
            inst.cluster.servers[0], ServerSpec(1, 200.0, 1.0)))
        inst = dataclasses.replace(inst, cluster=small)
        m = build_ilp(inst, build_delay_table(inst))
        assert "x_1_1_8" not in m.binaries
        assert substitute(m, ((0, 8), (1, 8)))[2] == ["assign_l1", "out_l0_s0_b8"]

    @pytest.mark.parametrize("seed", range(30))
    def test_optimum_satisfies_every_row_and_objective(self, seed):
        rng = random.Random(300 + seed)
        inst = random_test_instance(rng, link_density=1.0)
        table = build_delay_table(inst)
        result = solve_brute_force(inst, table)
        if result.plan is None:
            return
        m = build_ilp(inst, table)
        _, obj, violated = substitute(m, result.plan.assignments)
        assert violated == []
        servers = [i for i, _ in result.plan.assignments]
        total, _, _ = path_delay(table.cp, table.cm, servers)
        assert obj == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_feasible_plans_match_objective(self, seed):
        rng = random.Random(600 + seed)
        drawn = random_test_instance(rng, max_layers=3, max_servers=4,
                                     link_density=1.0)
        # the drawn widths, then the whole menu on every layer
        for inst in (drawn, dataclasses.replace(drawn, feasible_bits=None)):
            table = build_delay_table(inst)
            m = build_ilp(inst, table)
            L = inst.model.num_layers
            for perm in itertools.permutations(range(inst.cluster.num_servers), L):
                for bits in itertools.product(*inst.feasible_bits):
                    plan = tuple(zip(perm, bits))
                    if check_plan_feasible(plan, inst):
                        continue
                    if bits != table.widths:
                        # a dominated width has no column; its scalar price
                        # is never below the same servers at the kept widths
                        kept = path_delay(table.cp, table.cm, perm)[0]
                        assert _scalar_total(plan, inst) >= kept
                        continue
                    _, obj, violated = substitute(m, plan)
                    assert violated == []
                    total, _, _ = path_delay(table.cp, table.cm, perm)
                    assert obj == pytest.approx(total, rel=1e-9)


class TestLpExport:
    def test_deterministic_bytes(self, golden_instance, golden_table, tmp_path):
        m1 = build_ilp(golden_instance, golden_table)
        m2 = build_ilp(golden_instance, build_delay_table(golden_instance))
        write_outputs((tmp_path / "a.lp", write_lp(m1)), (tmp_path / "b.lp", write_lp(m2)))
        assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()

    def test_round_trip(self, golden_instance, golden_table):
        m = build_ilp(golden_instance, golden_table)
        assert parse_lp(write_lp(m)) == m

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
        # the file lists every expression's terms in Binary order
        column = {name: k for k, name in enumerate(parsed.binaries)}
        for coeffs in (parsed.objective, *(r.coeffs for r in parsed.constraints)):
            at = [column[name] for name in coeffs]
            assert at == sorted(at)

    def test_golden_file_frozen(self, golden_instance, golden_table):
        m = build_ilp(golden_instance, golden_table)
        with open(data_path("golden_2x2.lp")) as f:
            assert f.read() == write_lp(m)

    def test_golden_m4_l3_frozen(self):
        """Two layer boundaries, so the file pins the z order: (layer, src,
        dst), after every x column."""
        inst = load_instance(data_path("cluster_m4.json"), data_path("model_l3.json"),
                             bit_menu=(4, 8), delta=math.inf, tokens=2)
        with open(data_path("golden_m4_l3.lp")) as f:
            assert f.read() == write_lp(build_ilp(inst, build_delay_table(inst)))


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
        hi[r] = row.rhs  # write_lp writes only <= and = rows
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
            if table.unplaceable_layer() is not None:
                assert exact.plan is None, seed
                infeasible += 1
                continue
            text = write_lp(build_ilp(inst, table))
            status, obj, plan = _milp_solve(text)
            if exact.plan is None:
                assert status == 2, seed  # HiGHS: infeasible
                infeasible += 1
                continue
            assert status == 0, seed
            assert obj == pytest.approx(exact.objective, rel=1e-7), seed
            assert check_plan_feasible(plan, inst) == [], seed
            total, _, _ = path_delay(table.cp, table.cm, [i for i, _ in plan])
            assert total == pytest.approx(exact.objective, rel=1e-7), seed
            solved += 1
        assert solved >= 150 and infeasible >= 10, (solved, infeasible)
