import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest

from edgeplan import solver
from edgeplan.core import (ClusterSpec, LayerProfile, LinkSpec, ModelProfile,
                           ProblemInstance, ServerSpec)
from edgeplan.delay import (DelayOptions, DelayTable, build_delay_table,
                            check_plan_feasible, path_delay)
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.ilp import build_ilp, substitute, write_lp
from edgeplan.solver import (SizeLimit, solve_branch_and_bound,
                             solve_brute_force, solve_relaxed_dp)

from conftest import make_2x2_instance, with_binding_storage
from oracles import held_karp, layered_dp


def dominant_server_instance(num_layers=3):
    """One server 100x faster than the rest; the relaxation reuses it for
    non-consecutive layers, so its bound drops strictly below the optimum."""
    m = num_layers + 1
    servers = tuple(
        ServerSpec(i, 1e4 if i == 0 else 1e2, 1e9) for i in range(m))
    links = tuple(LinkSpec(i, j, 1e6)
                  for i in range(m) for j in range(m) if i != j)
    layers = tuple(LayerProfile(1e4, 10, 4.0, 32) for _ in range(num_layers))
    model = ModelProfile(layers=layers, batch_size=1, embedding_size=4)
    return ProblemInstance(cluster=ClusterSpec(servers, links), model=model,
                           bit_menu=(8,), delta=math.inf, tokens=1)


class TestBruteForce:
    def test_golden_optimum(self, golden_instance, golden_table):
        result = solve_brute_force(golden_instance, golden_table)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0, rel=1e-12)
        assert result.plan.assignments == ((0, 8), (1, 8))

    def test_single_layer_places_on_argmin_cp(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(model=ModelProfile(
            layers=inst.model.layers[:1], batch_size=1, embedding_size=4))
        table = build_delay_table(inst)
        result = solve_brute_force(inst, table)
        best = min(((table.cp[0, i], i) for i in range(2)))
        assert result.plan.assignments == ((best[1], 8),)
        assert result.objective == best[0]

    def test_pigeonhole_infeasible(self):
        model = ModelProfile(
            layers=tuple(LayerProfile(1.0, 1, 1.0, 32) for _ in range(3)),
            batch_size=1, embedding_size=4)
        inst = make_2x2_instance(model=model)
        result = solve_brute_force(inst, build_delay_table(inst))
        assert result.status == "infeasible"
        assert result.plan is None

    def test_size_guard(self):
        rng = random.Random(0)
        inst = random_test_instance(rng, max_layers=1, max_servers=1)
        big = ProblemInstance(
            cluster=ClusterSpec(
                servers=tuple(ServerSpec(i, 1.0, 1.0) for i in range(12)),
                links=()),
            model=inst.model, bit_menu=inst.bit_menu, delta=0.0, tokens=1)
        with pytest.raises(SizeLimit):
            solve_brute_force(big, build_delay_table(big))


def _small_integer_prices(rng, L, M, masked):
    """cp (L, M) and cm (L, M, M) drawn from {0, 1, 2, 3}, each entry inf
    with probability ``masked`` and every hop from a server to itself inf,
    as the table masks it: sums are exact and tie often."""
    def price(*shape):
        return np.array([rng.choice((math.inf,) if rng.random() < masked
                                    else (0.0, 1.0, 2.0, 3.0))
                         for _ in range(math.prod(shape))]).reshape(shape)

    cm = price(L, M, M)
    cm[:, range(M), range(M)] = math.inf
    return price(L, M), cm


class TestRelaxedDp:
    def test_golden_bound_is_tight(self, golden_instance, golden_table):
        bound, path = solve_relaxed_dp(golden_table)
        assert bound == pytest.approx(3.0, rel=1e-12)
        assert path == ((0, 8), (1, 8))

    def test_dominant_server_gives_strict_gap(self):
        inst = dominant_server_instance()
        table = build_delay_table(inst)
        bound, path = solve_relaxed_dp(table)
        optimum = solve_brute_force(inst, table).objective
        assert bound < optimum - 1e-12
        servers = [i for i, _ in path]
        assert len(set(servers)) < len(servers)  # the witness reuses a server

    def test_single_layer_is_exact(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(model=ModelProfile(
            layers=inst.model.layers[:1], batch_size=1, embedding_size=4))
        table = build_delay_table(inst)
        bound, _ = solve_relaxed_dp(table)
        assert bound == solve_brute_force(inst, table).objective

    @pytest.mark.parametrize("seed", range(40))
    def test_admissible_on_random_instances(self, seed):
        rng = random.Random(1000 + seed)
        inst = random_test_instance(rng)
        table = build_delay_table(inst)
        exact = solve_brute_force(inst, table)
        bound, _ = solve_relaxed_dp(table)
        if exact.plan is not None:
            assert bound <= exact.objective + 1e-12

    @pytest.mark.parametrize("seed", range(60))
    def test_witness_is_smallest_sequence(self, seed):
        """Small-integer prices sum exactly and tie often: the bound and
        witness are the smallest (cost, path) over every server sequence,
        reuse allowed, so each tie goes to the smaller server."""
        rng = random.Random(7000 + seed)
        M, L = rng.randint(1, 5), rng.randint(1, 4)
        cp, cm = _small_integer_prices(rng, L, M, rng.choice((0.0, 0.2, 0.5)))
        table = DelayTable((8,) * L, cp, cm, DelayOptions())
        cost, path = min((path_delay(table.cp, table.cm, seq)[0], seq)
                         for seq in itertools.product(range(M), repeat=L))
        bound, witness = solve_relaxed_dp(table)
        if math.isinf(cost):
            assert (bound, witness) == (math.inf, None)
        else:
            assert bound == cost
            assert witness == tuple((i, 8) for i in path)


class TestBranchAndBound:
    def test_golden_matches_brute_force(self, golden_instance, golden_table):
        result = solve_branch_and_bound(golden_table)
        assert result.objective == pytest.approx(3.0, rel=1e-12)
        assert result.plan.assignments == ((0, 8), (1, 8))
        assert result.lower_bound_at_root <= result.objective + 1e-12

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_equivalence(self, seed):
        rng = random.Random(2000 + seed)
        inst = random_test_instance(rng)
        table = build_delay_table(inst)
        exact = solve_brute_force(inst, table)
        got = solve_branch_and_bound(table)
        if exact.plan is None:
            assert got.plan is None
        else:
            assert got.status == "optimal"
            assert got.objective == pytest.approx(exact.objective, rel=1e-9)
            assert got.plan.assignments == exact.plan.assignments
            assert got.nodes_explored <= exact.nodes_explored
            assert check_plan_feasible(got.plan.assignments, inst) == []

    def test_deterministic(self):
        rng = random.Random(7)
        inst = random_test_instance(rng)
        table = build_delay_table(inst)
        a = solve_branch_and_bound(table)
        b = solve_branch_and_bound(table)
        assert (a.status, a.objective, a.nodes_explored) == \
            (b.status, b.objective, b.nodes_explored)
        assert (a.plan is None) == (b.plan is None)
        if a.plan is not None:
            assert a.plan.assignments == b.plan.assignments

    def test_a_solve_is_a_value(self):
        """No solver reads a clock: two solves of one table give equal
        SolveResults, whether the solve is optimal, infeasible or cut by
        the budget, for branch and bound and brute force alike."""
        statuses = set()
        for seed in range(12):
            inst = _lagrangian_instance(seed)
            table = build_delay_table(inst)
            full = solve_branch_and_bound(table)
            solves = [functools.partial(solve_brute_force, inst, table),
                      functools.partial(solve_branch_and_bound, table)]
            if full.expansions > 1:
                solves.append(functools.partial(solve_branch_and_bound, table,
                                                full.expansions - 1))
            for solve in solves:
                first = solve()
                assert solve() == first, seed
                statuses.add(first.status)
        assert statuses == {"optimal", "infeasible", "budget_exceeded"}

    def test_budget_exhaustion(self):
        inst = dominant_server_instance(num_layers=4)
        table = build_delay_table(inst)
        result = solve_branch_and_bound(table, budget=1)
        assert result.status == "budget_exceeded"

    def test_empty_feasible_bits_is_infeasible(self):
        inst = make_2x2_instance(feasible_bits=((8,), ()))
        result = solve_branch_and_bound(build_delay_table(inst))
        assert result.status == "infeasible"

    def test_no_servers_is_infeasible(self):
        """A cluster without servers is valid input; every route finds no
        plan, and the DP has no rows to take a minimum over."""
        inst = make_2x2_instance(cluster=ClusterSpec(servers=(), links=()))
        table = build_delay_table(inst)
        assert solve_branch_and_bound(table).status == "infeasible"
        assert solve_brute_force(inst, table).status == "infeasible"
        assert solve_relaxed_dp(table) == (math.inf, None)


# every reading of the delay and storage formulas
ALL_OPTIONS = [DelayOptions(*reading) for reading in itertools.product(
    ("with_pl", "without_pl"), (True, False), ("compact", "literal"))]


def _storage_options(seed):
    return ALL_OPTIONS[seed % len(ALL_OPTIONS)]


def _storage_instance(seed):
    """Capacities drawn from the footprints of the seed's own reading."""
    rng = random.Random(5000 + seed)
    return with_binding_storage(random_test_instance(rng), rng, 0.6,
                                _storage_options(seed))


def _without_storage_limits(inst):
    return ProblemInstance(
        cluster=ClusterSpec(tuple(ServerSpec(s.id, s.compute_throughput, 1e18)
                                  for s in inst.cluster.servers),
                            inst.cluster.links),
        model=inst.model, bit_menu=inst.bit_menu, delta=inst.delta,
        tokens=inst.tokens, feasible_bits=inst.feasible_bits)


class TestStorageBinding:
    """Seeded suite where server capacities fall inside the range of layer
    footprints, so the storage part of the admissibility mask binds."""

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_equivalence_and_export_rows(self, seed):
        """Brute force over every width equals the search over the kept
        width, under each of the 8 DelayOptions readings in turn."""
        inst = _storage_instance(seed)
        options = _storage_options(seed)
        table = build_delay_table(inst, options)
        exact = solve_brute_force(inst, table)
        got = solve_branch_and_bound(table)
        bound, _ = solve_relaxed_dp(table)
        assert got.status == exact.status
        if exact.plan is None:
            assert got.plan is None
            return
        assert got.plan.assignments == exact.plan.assignments
        assert got.objective == exact.objective
        assert bound <= exact.objective + 1e-12
        assert check_plan_feasible(got.plan.assignments, inst, options) == []
        _, obj, violated = substitute(build_ilp(inst, table), got.plan.assignments)
        assert violated == []
        assert obj == pytest.approx(got.objective, rel=1e-9)

    def test_storage_binds_on_the_suite(self):
        """Storage masks and moves plans under every reading, and the
        literal-storage seeds stay mostly feasible, with enough layers that
        keep two widths for brute force to check the smallest-width rule."""
        masked = changed = literal_feasible = literal_two_widths = 0
        for seed in range(60):
            inst = _storage_instance(seed)
            options = _storage_options(seed)
            table = build_delay_table(inst, options)
            loose = _without_storage_limits(inst)
            loose_table = build_delay_table(loose, options)
            masked += bool((np.isinf(table.cp) & np.isfinite(loose_table.cp)).any())
            exact = solve_brute_force(inst, table)
            free = solve_brute_force(loose, loose_table)
            changed += (exact.plan and exact.plan.assignments) != \
                (free.plan and free.plan.assignments)
            if options.storage == "literal" and exact.plan is not None:
                literal_feasible += 1
                literal_two_widths += any(len(fb) > 1 for fb in inst.feasible_bits)
        assert masked >= 30
        assert changed >= 10
        assert literal_feasible >= 25, literal_feasible
        assert literal_two_widths >= 12, literal_two_widths

    def test_no_admissible_column_is_infeasible(self):
        inst = make_2x2_instance(cluster=ClusterSpec(
            servers=(ServerSpec(0, 100.0, 1.0), ServerSpec(1, 200.0, 1.0)),
            links=make_2x2_instance().cluster.links))
        table = build_delay_table(inst)
        assert solve_brute_force(inst, table).status == "infeasible"
        assert solve_branch_and_bound(table).status == "infeasible"
        assert solve_relaxed_dp(table) == (math.inf, None)
        with pytest.raises(ValueError, match="^layer 0 "):
            build_ilp(inst, table)


def _with_extra_server(inst):
    m = inst.cluster.num_servers
    extra = ServerSpec(m, 5e8, 2e9)
    links = list(inst.cluster.links)
    for i in range(m):
        links.append(LinkSpec(i, m, 5e8))
        links.append(LinkSpec(m, i, 5e8))
    return ProblemInstance(
        cluster=ClusterSpec(inst.cluster.servers + (extra,), tuple(links)),
        model=inst.model, bit_menu=inst.bit_menu, delta=inst.delta,
        tokens=inst.tokens, feasible_bits=inst.feasible_bits)


def _with_full_bits(inst):
    return ProblemInstance(
        cluster=inst.cluster, model=inst.model, bit_menu=inst.bit_menu,
        delta=inst.delta, tokens=inst.tokens,
        feasible_bits=tuple(inst.bit_menu for _ in inst.feasible_bits))


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(25))
    def test_extra_server_never_hurts(self, seed):
        rng = random.Random(3000 + seed)
        inst = random_test_instance(rng, max_servers=5)
        base = solve_branch_and_bound(build_delay_table(inst))
        grown = _with_extra_server(inst)
        more = solve_branch_and_bound(build_delay_table(grown))
        if base.plan is not None:
            assert more.plan is not None
            assert more.objective <= base.objective + 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_wider_bit_sets_never_hurt(self, seed):
        rng = random.Random(4000 + seed)
        inst = random_test_instance(rng)
        base = solve_branch_and_bound(build_delay_table(inst))
        wide = _with_full_bits(inst)
        more = solve_branch_and_bound(build_delay_table(wide))
        if base.plan is not None:
            assert more.plan is not None
            assert more.objective <= base.objective + 1e-12


def _identical_servers(inst, rng):
    """Server 0 copied to every id and one link spec on every pair: any
    relabelling of a plan's servers keeps its objective bit for bit, so
    optimal plans tie and only the lexicographic tie-break separates them."""
    m = inst.cluster.num_servers
    proto = inst.cluster.servers[0]
    servers = tuple(dataclasses.replace(proto, id=i) for i in range(m))
    bps, prop = rng.uniform(1e6, 1e9), rng.choice((0.0, 1e-3))
    links = tuple(LinkSpec(i, j, bps, prop)
                  for i in range(m) for j in range(m) if i != j)
    return dataclasses.replace(inst, cluster=ClusterSpec(servers, links))


def _lagrangian_instance(seed):
    """Sparse links, binding storage, and every fifth seed tie-heavy."""
    rng = random.Random(6000 + seed)
    inst = random_test_instance(rng, link_density=rng.choice((0.3, 0.6, 1.0)))
    inst = with_binding_storage(inst, rng, 0.6)
    if seed % 5 == 4:
        inst = _identical_servers(inst, rng)
    return inst


LAGRANGIAN_SEEDS = 320


def _ascent(table, target, incumbent=None):
    """A fresh root ascent on its own layered-DP workspace."""
    return solver._ascent(solver._LayeredDP(table.cp, table.cm), target, incumbent)


def _steps(ascent, n):
    """The yields of up to n more steps of ``ascent``: (best, incumbent,
    done) each, best the (bound, lambda, H) triple."""
    return list(itertools.islice(ascent, n))


class TestLagrangianRoute:
    """The first probe's allowance is 0, so the ascent starts before any
    plain-bound expansion and every instance is solved by the penalised
    probes between its rounds."""

    @pytest.fixture(autouse=True)
    def escalate_at_once(self, monkeypatch):
        monkeypatch.setattr(solver, "_FIRST_PROBE", 0)

    @pytest.mark.parametrize("seed", range(LAGRANGIAN_SEEDS))
    def test_oracle_equivalence(self, seed):
        inst = _lagrangian_instance(seed)
        table = build_delay_table(inst)
        exact = solve_brute_force(inst, table)
        got = solve_branch_and_bound(table)
        assert got.status == exact.status
        if exact.plan is None:
            assert got.plan is None
            return
        assert got.objective == exact.objective
        assert got.plan.assignments == exact.plan.assignments
        assert got.lower_bound_at_root <= exact.objective
        assert check_plan_feasible(got.plan.assignments, inst) == []

    def test_root_bound_admissible_and_raised(self):
        raised = 0
        for seed in range(LAGRANGIAN_SEEDS):
            inst = _lagrangian_instance(seed)
            table = build_delay_table(inst)
            dp_bound, _ = solve_relaxed_dp(table)
            if math.isinf(dp_bound) or inst.model.num_layers > inst.cluster.num_servers:
                continue
            # the whole ascent as the solve starts it without an incumbent;
            # its bound is unclamped, unlike lower_bound_at_root
            ascent = _ascent(table, dp_bound * (1 + solver._ESTIMATE_SLACK))
            (bound, lam, _), incumbent, _ = _steps(ascent, solver._SUBGRADIENT_STEPS)[-1]
            assert (lam >= 0).all(), seed
            exact = solve_brute_force(inst, table)
            if exact.plan is not None:
                assert bound <= exact.objective * (1 + 1e-12), seed
            if incumbent is not None:  # a witness on distinct servers
                assert incumbent[0] >= exact.objective, seed
            raised += bound > dp_bound * (1 + 1e-9)
        assert raised >= 50, raised

    def test_ties_are_exact_on_identical_servers(self):
        tied = 0
        for seed in range(4, LAGRANGIAN_SEEDS, 5):
            inst = _lagrangian_instance(seed)
            table = build_delay_table(inst)
            got = solve_branch_and_bound(table)
            if got.plan is None or inst.model.num_layers < 2:
                continue
            # reversing the servers gives another plan of the same objective
            servers = [i for i, _ in got.plan.assignments][::-1]
            swapped = tuple((i, b) for i, (_, b) in zip(servers, got.plan.assignments))
            assert path_delay(table.cp, table.cm, servers)[0] == got.objective, seed
            assert swapped > got.plan.assignments, seed
            tied += 1
        assert tied >= 20, tied

    @pytest.mark.parametrize("penalised", [False, True])
    def test_tied_incumbent_gives_way_to_smaller_plan(self, penalised):
        """Seeded with an optimal but lexicographically larger plan, the
        search must still reach the brute-force plan: a subtree whose bound
        equals the incumbent is kept."""
        checked = 0
        for seed in range(4, LAGRANGIAN_SEEDS, 5):
            inst = _lagrangian_instance(seed)
            table = build_delay_table(inst)
            exact = solve_brute_force(inst, table)
            if exact.plan is None or inst.model.num_layers < 2:
                continue
            best = tuple(i for i, _ in exact.plan.assignments)
            tied = best[::-1]
            M = inst.cluster.num_servers
            if penalised:
                ascent = _ascent(table, exact.objective)
                (_, lam, H), _, _ = _steps(ascent, solver._SUBGRADIENT_STEPS)[-1]
                lam = lam.tolist()
            else:
                lam, H = [0.0] * M, solver._LayeredDP(table.cp, table.cm).H
            found, _, _, exhausted = solver._search(
                table.cp, table.cm, H, lam, 10 ** 6, (exact.objective, tied))
            assert not exhausted
            assert found == (exact.objective, best), seed
            checked += 1
        assert checked >= 20, checked

    def test_budget_spans_both_passes(self, monkeypatch):
        """One budget for the plain probe and every penalised one."""
        monkeypatch.setattr(solver, "_FIRST_PROBE", 3)
        inst = dominant_server_instance(num_layers=4)
        table = build_delay_table(inst)
        full = solve_branch_and_bound(table)
        assert full.status == "optimal" and full.expansions > 3
        cut = solve_branch_and_bound(table, budget=full.expansions - 1)
        assert cut.status == "budget_exceeded"
        assert cut.expansions == full.expansions - 1
        again = solve_branch_and_bound(table, budget=full.expansions)
        assert again.status == "optimal"
        assert again.plan.assignments == full.plan.assignments


def _typed_instance(seed):
    """Servers of two or three types and one layer repeated: servers of a
    type share their specs and their links to every other type, so any
    relabelling within a type keeps a plan's objective bit for bit. M <= 8,
    L <= 5, inside brute force's guard; a type may lack the storage for
    the layer, which masks it."""
    rng = random.Random(9000 + seed)
    types = [(rng.uniform(1e8, 1e10), rng.choice((1e9, 1e9, 500.0)))
             for _ in range(rng.randint(2, 3))]
    of = [rng.randrange(len(types)) for _ in range(rng.randint(3, 8))]
    servers = tuple(ServerSpec(i, *types[t]) for i, t in enumerate(of))
    hop = {(a, b): (rng.uniform(1e6, 1e9), rng.choice((0.0, 1e-3)))
           for a in range(len(types)) for b in range(len(types))}
    links = tuple(LinkSpec(i, j, *hop[of[i], of[j]])
                  for i in range(len(of)) for j in range(len(of)) if i != j)
    layer = LayerProfile(rng.uniform(1e6, 1e9), 1000, rng.uniform(1.0, 1e3), 32)
    model = ModelProfile(layers=(layer,) * rng.randint(2, min(5, len(of))),
                         batch_size=1, embedding_size=rng.choice((4, 64)))
    return ProblemInstance(cluster=ClusterSpec(servers, links), model=model,
                           bit_menu=(8,), delta=math.inf, tokens=rng.choice((1, 32)))


def _mixed_prices(rng, L, M):
    """cp (L, M) and cm (L, M, M) spread over 10^-6 to 10^3, every hop from
    a server to itself inf as the table masks it: sums that round."""
    cp = 10.0 ** rng.uniform(-6.0, 3.0, (L, M))
    cm = 10.0 ** rng.uniform(-6.0, 3.0, (L, M, M))
    cm[:, range(M), range(M)] = math.inf
    return cp, cm


def _node_bounds(cp, cm, H, lam, leaf):
    """The bound _search computes at each node on the path to ``leaf``, in
    its order of operations: compute + comm, less the reserve (the
    L - l largest lam among the unused servers, largest first), plus
    edge + H[l, i]."""
    L = len(leaf)
    order = sorted(range(len(lam)), key=lambda i: -lam[i])
    compute = comm = 0.0
    bounds = []
    for l, i in enumerate(leaf):
        edge = cm[l - 1][leaf[l - 1]][i] if l else 0.0
        reserve = 0.0
        for j in [j for j in order if j not in leaf[:l]][:L - l]:
            reserve += lam[j]
        base = compute + comm
        base -= reserve
        bounds.append(base + (edge + H[l][i]))
        compute += cp[l][i]
        comm += edge
    return bounds


class TestPruningMargin:
    """_search cuts a child only when its bound exceeds the incumbent by
    more than solver._margin, the rounding a bound and a leaf total may
    carry (the derivation is in the solver's module docstring)."""

    @pytest.mark.parametrize("seed", range(24))
    def test_near_tie_is_pruned_beyond_the_margin_only(self, seed):
        """An incumbent 1e-10 below the optimum, inside a 1e-9 window but
        far beyond the margin, prunes every leaf; one an ulp below it,
        inside the margin, does not prune the optimum's leaf."""
        rng = np.random.default_rng(9100 + seed)
        L, M = 3, 5
        cp, cm = _mixed_prices(rng, L, M)
        H, lam = solver._LayeredDP(cp, cm).H, [0.0] * M
        optimum = min(path_delay(cp, cm, p)[0] for p in itertools.permutations(range(M), L))
        for below, reached in ((optimum * (1 - 1e-10), 0), (math.nextafter(optimum, 0.0), 1)):
            incumbent = (below, (M - 1,) * L)
            found, leaves, _, exhausted = solver._search(cp, cm, H, lam, 10 ** 6, incumbent)
            assert not exhausted and found == incumbent, seed
            assert min(leaves, 1) == reached, (seed, below, leaves)

    def test_margin_bounds_every_node_above_every_leaf(self):
        """For every leaf and every node on its path, the computed bound is
        at most the leaf's computed total plus the margin at that total:
        cutting a node whose bound exceeds an incumbent by more than the
        margin can lose no leaf at or below the incumbent. Prices span nine
        decades and lambda reaches 1.6 times the optimum."""
        above = 0
        for seed in range(40):
            rng = np.random.default_rng(9200 + seed)
            M = int(rng.integers(2, 7))
            L = int(rng.integers(1, M + 1))
            cp, cm = _mixed_prices(rng, L, M)
            leaves = list(itertools.permutations(range(M), L))
            totals = [float(path_delay(cp, cm, leaf)[0]) for leaf in leaves]
            dp = solver._LayeredDP(cp, cm)
            for scale in (0.0, 0.4, 1.6):
                lam = rng.uniform(0.0, scale * min(totals), M) * (rng.random(M) < 0.8)
                dp.solve(lam)
                H, lam = dp.H.tolist(), lam.tolist()
                reserve = 0.0
                for x in sorted(lam, reverse=True)[:L]:
                    reserve += x
                for leaf, total in zip(leaves, totals):
                    for bound in _node_bounds(cp, cm, H, lam, leaf):
                        assert bound <= total + solver._margin(total, reserve, L), (seed, leaf)
                        above += bound > total
        # bounds sum their terms in another order than path_delay, so some
        # land above the total they bound: a zero margin would cut ties
        assert above >= 10, above

    @pytest.mark.parametrize("first_probe", [solver._FIRST_PROBE, 0], ids=["plain", "lagrangian"])
    def test_typed_clusters_return_brute_force_plan(self, monkeypatch, first_probe):
        """Interchangeable servers and identical layers tie whole orbits of
        plans exactly; every search returns brute force's tie-broken plan,
        with the ascent started at once (the penalised probes) or not."""
        monkeypatch.setattr(solver, "_FIRST_PROBE", first_probe)
        tied = 0
        for seed in range(30):
            inst = _typed_instance(seed)
            table = build_delay_table(inst)
            exact = solve_brute_force(inst, table)
            got = solve_branch_and_bound(table)
            assert (got.status, got.objective) == (exact.status, exact.objective), seed
            if exact.plan is None:
                continue
            assert got.plan.assignments == exact.plan.assignments, seed
            servers = [i for i, _ in exact.plan.assignments]
            swapped = servers[::-1]
            tied += (swapped != servers
                     and path_delay(table.cp, table.cm, swapped)[0] == exact.objective)
        assert tied >= 10, tied


def _yields(steps):
    """An ascent's yields as bytes and reprs, so equal yields are equal
    bit for bit."""
    return [(repr(bound), lam.tobytes(), H.tobytes(), incumbent, done)
            for (bound, lam, H), incumbent, done in steps]


class TestPacedAscent:
    """The solve pauses the ascent for search probes and resumes it: the
    pauses change neither its trajectory nor its target, and the budget
    binds inside any probe."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Probes of 2, then 4 expansions, so a small instance pauses its
        ascent often; returns the record of the last solve: its ascent's
        start target and incumbent with the steps the solve took of it,
        and each probe's incumbent in and out."""
        record = {"ascents": [], "probes": []}
        ascent, search = solver._ascent, solver._search

        def recorded(dp, target, incumbent):
            steps = []
            record["ascents"].append((target, incumbent, steps))
            for step in ascent(dp, target, incumbent):
                steps.append(step)
                yield step

        def probe(cp, cm, H, lam, limit, incumbent):
            found = search(cp, cm, H, lam, limit, incumbent)
            record["probes"].append((incumbent, found[0]))
            return found

        monkeypatch.setattr(solver, "_FIRST_PROBE", 3)
        monkeypatch.setattr(solver, "_FIRST_ROUND_PROBE", 2)
        monkeypatch.setattr(solver, "_ascent", recorded)
        monkeypatch.setattr(solver, "_search", probe)
        record["ascent"] = ascent
        return record

    def test_pauses_leave_the_trajectory_alone(self):
        """k steps and then n - k, or the solve's doubling rounds, yield
        the steps of one uninterrupted n-step run, bit for bit."""
        n = solver._SUBGRADIENT_STEPS
        rounds = tuple(solver._FIRST_ROUND_STEPS << r for r in range(3))
        assert sum(rounds) >= n
        split = 0
        for seed in range(LAGRANGIAN_SEEDS):
            inst = _lagrangian_instance(seed)
            table = build_delay_table(inst)
            dp_bound, _ = solve_relaxed_dp(table)
            if math.isinf(dp_bound) or inst.model.num_layers > inst.cluster.num_servers:
                continue
            target = dp_bound * (1 + solver._ESTIMATE_SLACK)
            whole = _yields(_steps(_ascent(table, target), n))
            assert [done for *_, done in whole] == [False] * (len(whole) - 1) + [True]
            # a pause inside the trajectory wherever it has two steps
            k = 1 + seed % max(len(whole) - 1, 1)
            for schedule in ((k, n - k), rounds):
                paused = _ascent(table, target)
                got = []
                for steps in schedule:
                    got += _steps(paused, steps)
                assert _yields(got) == whole, (seed, schedule)
            split += len(whole) > k
        assert split >= 50, split

    def test_probe_incumbents_never_move_the_target(self, recorded, monkeypatch):
        """The solve's ascent is the ascent run alone from the same start
        for as many steps, though probes between its rounds found plans
        below its target: only its own witnesses lower the target."""
        # the ascent starts with no incumbent, aimed above the DP bound
        monkeypatch.setattr(solver, "_FIRST_PROBE", 0)
        below = 0
        for seed in range(LAGRANGIAN_SEEDS):
            table = build_delay_table(_lagrangian_instance(seed))
            recorded["ascents"].clear()
            recorded["probes"].clear()
            solve_branch_and_bound(table)
            if not recorded["ascents"]:
                continue
            (target, incumbent, steps), = recorded["ascents"]
            alone = recorded["ascent"](
                solver._LayeredDP(table.cp, table.cm), target, incumbent)
            assert _yields(steps) == _yields(_steps(alone, len(steps))), seed
            # the target the ascent ended with: its own witnesses lower it
            own = steps[-1][1]
            target = min(target, own[0]) if own else target
            # every probe but the last is followed by a round
            below += any(found is not None and found[0] < target
                         for _, found in recorded["probes"][:-1])
        assert below >= 20, below

    def test_budget_runs_out_inside_a_probe(self, recorded):
        """Cut at every budget short of the full solve's expansions, the
        solve stops exactly there with the best incumbent so far: the
        better of the ascent's and what the probes returned."""
        kept = cuts = 0
        for seed in range(0, LAGRANGIAN_SEEDS, 4):
            table = build_delay_table(_lagrangian_instance(seed))
            full = solve_branch_and_bound(table)
            if not recorded["ascents"]:
                continue
            for budget in range(1, full.expansions):
                recorded["ascents"].clear()
                recorded["probes"].clear()
                got = solve_branch_and_bound(table, budget=budget)
                assert (got.status, got.expansions) == ("budget_exceeded", budget)
                known = [found for _, found in recorded["probes"]]
                known += [steps[-1][1] for _, _, steps in recorded["ascents"]]
                best = min(filter(None, known), default=None)
                if best is None:
                    assert got.plan is None, (seed, budget)
                    continue
                servers = tuple(i for i, _ in got.plan.assignments)
                assert (got.objective, servers) == best, (seed, budget)
                cuts += 1
                # the cut probe found nothing better than it was handed
                kept += recorded["probes"][-1][0] == best
        assert cuts >= 500 and kept >= 500, (cuts, kept)

    def test_done_ascent_leaves_one_probe_for_the_whole_budget(self, monkeypatch):
        """A one-step ascent is done after its first round, so the probe
        after it is the last: it may spend the whole remaining budget, and
        when that runs out the loop stops on the budget alone."""
        limits, search = [], solver._search

        def probe(cp, cm, H, lam, limit, incumbent):
            limits.append(limit)
            return search(cp, cm, H, lam, limit, incumbent)

        monkeypatch.setattr(solver, "_FIRST_PROBE", 0)
        monkeypatch.setattr(solver, "_SUBGRADIENT_STEPS", 1)
        monkeypatch.setattr(solver, "_search", probe)
        solved = 0
        for seed in range(0, LAGRANGIAN_SEEDS, 4):
            table = build_delay_table(_lagrangian_instance(seed))
            limits.clear()
            full = solve_branch_and_bound(table)
            if full.status != "optimal":
                continue
            assert limits == [0, solver.DEFAULT_NODE_BUDGET], seed
            if full.expansions < 2:
                continue
            budget = full.expansions - 1
            limits.clear()
            cut = solve_branch_and_bound(table, budget=budget)
            assert limits == [0, budget], seed
            assert (cut.status, cut.expansions) == ("budget_exceeded", budget), seed
            solved += 1
        assert solved >= 30, solved


def _assert_dp_matches(dp, pen, cm):
    """The workspace holds the oracle's DP on pen and cm, bit for bit, and
    its witness walks the oracle's first minima from H[0]'s first one."""
    H, nxt = layered_dp(pen, cm)
    assert dp.H.tobytes() == np.array(H, dtype=float).reshape(dp.H.shape).tobytes()
    assert dp.nxt.tolist() == nxt
    first = H[0]
    if not first or math.isinf(min(first)):
        assert dp.witness() is None
        return
    path = [first.index(min(first))]
    for row in nxt:
        path.append(row[path[-1]])
    assert dp.witness() == path
    assert dp.H[0, path[0]] == min(first)


def _penalties(rng, M):
    """lambda >= 0 of one of four kinds: zero, small integers that tie,
    uniform floats, or floats far above the prices."""
    kind = rng.randrange(4)
    if kind == 0:
        return np.zeros(M)
    if kind == 1:
        return np.array([float(rng.randint(0, 2)) for _ in range(M)])
    return np.array([rng.random() * (1e6 if kind == 3 else 1.0) for _ in range(M)])


class TestLayeredDP:
    """The solver's layered-DP workspace, one per table and reused by
    every solve on it, against the loop oracle tests/oracles.layered_dp."""

    @pytest.mark.parametrize("seed", range(40))
    def test_reused_across_steps(self, seed):
        """One workspace solved at many penalties in turn, then at none:
        each solve equals a fresh oracle run, so no buffer keeps a value
        from an earlier step."""
        rng = random.Random(8000 + seed)
        M, L = rng.randint(1, 6), rng.randint(1, 6)
        cp, cm = _small_integer_prices(rng, L, M, rng.choice((0.0, 0.2, 0.5)))
        dp = solver._LayeredDP(cp, cm)
        _assert_dp_matches(dp, cp, cm)
        for _ in range(12):
            lam = _penalties(rng, M)
            dp.solve(lam)
            _assert_dp_matches(dp, cp + lam, cm)
        dp.solve(np.zeros(M))
        _assert_dp_matches(dp, cp, cm)

    def test_masks_of_sparse_links_and_binding_storage(self):
        masked_cp = masked_cm = 0
        for seed in range(60):
            table = build_delay_table(_lagrangian_instance(seed))
            cp, cm = table.cp, table.cm
            M = cp.shape[1]
            masked_cp += bool(np.isinf(cp).any())
            masked_cm += bool(np.isinf(cm).sum() > cm.shape[0] * M)
            rng = random.Random(seed)
            dp = solver._LayeredDP(cp, cm)
            _assert_dp_matches(dp, cp, cm)
            for _ in range(3):
                lam = _penalties(rng, M)
                dp.solve(lam)
                _assert_dp_matches(dp, cp + lam, cm)
        # storage masks cp entries, missing links cm entries off the diagonal
        assert masked_cp >= 10 and masked_cm >= 10, (masked_cp, masked_cm)

    @pytest.mark.parametrize("L, M", [(1, 1), (1, 5), (5, 5), (3, 1), (2, 0)],
                             ids=["L1-M1", "L1", "L=M", "M1", "M0"])
    def test_edge_shapes(self, L, M):
        rng = random.Random(L * 10 + M)
        cp, cm = _small_integer_prices(rng, L, M, 0.2)
        dp = solver._LayeredDP(cp, cm)
        _assert_dp_matches(dp, cp, cm)
        lam = _penalties(rng, M)
        dp.solve(lam)
        _assert_dp_matches(dp, cp + lam, cm)

    def test_lagrangian_root_returns_its_own_arrays(self):
        """The best (lambda, H) the ascent holds is the oracle's DP at that
        lambda: later steps, which reuse the workspace, leave it alone."""
        moved = 0
        for seed in range(LAGRANGIAN_SEEDS):
            inst = _lagrangian_instance(seed)
            table = build_delay_table(inst)
            dp_bound, _ = solve_relaxed_dp(table)
            if math.isinf(dp_bound) or inst.model.num_layers > inst.cluster.num_servers:
                continue
            ascent = _ascent(table, dp_bound * (1 + solver._ESTIMATE_SLACK))
            (_, lam, H), _, _ = _steps(ascent, solver._SUBGRADIENT_STEPS)[-1]
            want, _ = layered_dp(table.cp + lam, table.cm)
            assert H.tobytes() == np.array(want).reshape(H.shape).tobytes(), seed
            moved += bool(lam.any())
        assert moved >= 50, moved

    def test_more_layers_than_servers_is_refused_before_the_dp(self, monkeypatch):
        def no_dp(cp, cm):
            raise AssertionError("the DP ran")

        model = ModelProfile(layers=tuple(LayerProfile(1.0, 1, 1.0, 32) for _ in range(3)),
                             batch_size=1, embedding_size=4)
        table = build_delay_table(make_2x2_instance(model=model))
        monkeypatch.setattr(solver, "_LayeredDP", no_dp)
        result = solve_branch_and_bound(table)
        assert (result.status, result.nodes_explored, result.lower_bound_at_root) == \
            ("infeasible", 0, math.inf)


def _deep_class_instance():
    """The M=16/L=10 shape of the benchmark's `deep` class: plain-DP search
    runs out of the default budget on it."""
    return generate_instance(random.Random("deep:base:19").randrange(2 ** 31),
                             16, 10, (4, 8, 16), "heterogeneous", tokens=32)


class TestAgainstHighs:
    """Beyond brute force's reach: the flow MILP solved by HiGHS is the
    reference optimum."""

    @pytest.mark.parametrize("make", [
        lambda: generate_instance(1, 16, 8, (4, 8, 16), "heterogeneous", tokens=32),
        lambda: generate_instance(1, 24, 10, (4, 8, 16), "heterogeneous", tokens=32),
        _deep_class_instance,
    ], ids=["16x8", "24x10", "deep-16x10"])
    def test_bnb_objective_equals_milp(self, make):
        pytest.importorskip("scipy.optimize")
        from test_ilp import _milp_solve

        inst = make()
        table = build_delay_table(inst)
        got = solve_branch_and_bound(table)
        assert got.status == "optimal"
        assert check_plan_feasible(got.plan.assignments, inst) == []
        status, obj, plan = _milp_solve(write_lp(build_ilp(inst, table)),
                                        continuous_z=True)
        assert status == 0
        assert got.objective == pytest.approx(obj, rel=1e-9)
        assert got.lower_bound_at_root <= got.objective
        assert check_plan_feasible(plan, inst) == []
        servers = [i for i, _ in plan]
        assert path_delay(table.cp, table.cm, servers)[0] >= got.objective * (1 - 1e-12)


def _close(a: float, b: float) -> bool:
    """Equal within 1e-12 relative, this test's own tolerance: the oracle
    sums a path in another order than delay.path_delay does, and two orders
    of at most 23 nonnegative terms (L <= 12) differ by at most 2 gamma_23,
    about 5e-15 of the total."""
    return math.isclose(a, b, rel_tol=1e-12)


def _held_karp_instance(seed):
    """Small enough for brute force: sparse links, binding storage."""
    rng = random.Random(7000 + seed)
    inst = random_test_instance(rng, max_layers=5, max_servers=7,
                                link_density=rng.choice((0.3, 0.6, 1.0)))
    return with_binding_storage(inst, rng, 0.3)


HELD_KARP_SEEDS = 200


class TestHeldKarpOracle:
    @pytest.mark.parametrize("seed", range(HELD_KARP_SEEDS))
    def test_equals_brute_force(self, seed):
        inst = _held_karp_instance(seed)
        table = build_delay_table(inst)
        exact = solve_brute_force(inst, table)
        assert _close(held_karp(table.cp, table.cm), exact.objective)

    def test_suite_has_both_outcomes(self):
        tables = [build_delay_table(_held_karp_instance(seed)) for seed in range(HELD_KARP_SEEDS)]
        feasible = sum(math.isfinite(held_karp(t.cp, t.cm)) for t in tables)
        assert 0 < feasible < HELD_KARP_SEEDS, feasible

    def test_too_many_servers_refused(self):
        # refused before the (2^M, M) table is allocated
        with pytest.raises(ValueError, match="19 servers"):
            held_karp(np.zeros((2, 19)), np.zeros((2, 19, 19)))


# expansions: the identical-layer instances that exhaust it take about
# 0.5 s each
SEARCH_BUDGET = 200_000
SEARCH_SEEDS = 32


@functools.lru_cache(maxsize=None)
def _searched(seed):
    """(oracle optimum, capped search, table) on M 10-16, L 6 to min(M, 12):
    every other instance a stack of identical layers, ROADMAP's hard case,
    with binding storage and sparse links."""
    rng = random.Random(8000 + seed)
    m = rng.randint(10, 16)
    l = rng.randint(6, min(m, 12))
    inst = generate_instance(seed, m, l, (4, 8, 16), "heterogeneous", tokens=32,
                             link_density=rng.choice((0.5, 0.8, 1.0)))
    if seed % 2:
        model = dataclasses.replace(inst.model, layers=(inst.model.layers[0],) * l)
        inst = dataclasses.replace(inst, model=model)
    table = build_delay_table(with_binding_storage(inst, rng, 0.3))
    return (held_karp(table.cp, table.cm), solve_branch_and_bound(table, budget=SEARCH_BUDGET),
            table)


class TestSearchAgainstHeldKarp:
    """Beyond brute force's reach: an optimal search equals the oracle, and
    one that runs out of budget brackets it between its root bound and its
    incumbent. An optimal search is also cut one expansion short, so the
    bracket is checked on every seed a search proves, not only on those
    that happen to exhaust SEARCH_BUDGET."""

    @staticmethod
    def assert_brackets(got, exact):
        assert got.status == "budget_exceeded"
        assert got.lower_bound_at_root <= exact or _close(got.lower_bound_at_root, exact)
        assert exact <= got.objective or _close(exact, got.objective)

    @pytest.mark.parametrize("seed", range(SEARCH_SEEDS))
    def test_search_agrees_with_oracle(self, seed):
        exact, got, table = _searched(seed)
        if got.status == "optimal":
            assert _close(got.objective, exact)
            self.assert_brackets(solve_branch_and_bound(table, budget=got.expansions - 1),
                                 exact)
        elif got.status == "budget_exceeded":
            self.assert_brackets(got, exact)
        else:
            assert got.status == "infeasible" and exact == math.inf

    def test_suite_exhausts_the_budget(self):
        statuses = [_searched(seed)[1].status for seed in range(SEARCH_SEEDS)]
        assert statuses.count("optimal") >= SEARCH_SEEDS // 2
        assert "budget_exceeded" in statuses
