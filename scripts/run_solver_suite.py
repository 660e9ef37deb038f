#!/usr/bin/env python3
"""Compare the three solver routes over a seeded random suite.

Reports, per instance: optimum, relaxed-DP lower bound and its gap, the
gap of the strongest root bound branch and bound proved (the DP bound, or
the Lagrangian bound when the search escalated), and how much of the
brute-force leaf space the branch-and-bound search actually visited.
Each instance draws its reading of the delay and storage formulas
(DelayOptions) from its own seeded generator. Every branch-and-bound plan
must equal brute force's, which enumerates every width while the search
keeps each layer's smallest, and its objective must equal brute force's
exactly: the search prices from the delay table, brute force from the
raw specs. Every plan must also pass the plan checker and replay through
the simulator to its objective exactly, as the simulate command demands. The last line counts
the searches that ran at least one round of the Lagrangian ascent, and
the rounds they ran; ``--lagrangian`` starts the ascent before any
plain-bound expansion, as if the first probe's allowance were 0, so the
ascent and the penalised probes run on every instance.
"""

import argparse
import random
import statistics

from edgeplan import solver
from edgeplan.delay import DelayOptions, build_delay_table, check_plan_feasible
from edgeplan.gen import random_test_instance
from edgeplan.sim import simulate
from edgeplan.solver import (BRUTE_FORCE_MAX_LAYERS, BRUTE_FORCE_MAX_SERVERS,
                             solve_branch_and_bound, solve_brute_force,
                             solve_relaxed_dp)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-layers", type=int, default=4)
    ap.add_argument("--max-servers", type=int, default=6)
    ap.add_argument("--lagrangian", action="store_true",
                    help="start every search's Lagrangian ascent at once")
    args = ap.parse_args()
    # each instance draws 1 <= L <= M <= --max-servers, and brute force
    # refuses an instance beyond its guard
    if not 1 <= args.max_layers <= args.max_servers:
        ap.error("need 1 <= --max-layers <= --max-servers")
    if args.max_layers > BRUTE_FORCE_MAX_LAYERS:
        ap.error(f"--max-layers above brute force's limit of {BRUTE_FORCE_MAX_LAYERS}")
    if args.max_servers > BRUTE_FORCE_MAX_SERVERS:
        ap.error(f"--max-servers above brute force's limit of {BRUTE_FORCE_MAX_SERVERS}")

    if args.lagrangian:
        solver._FIRST_PROBE = 0
    escalated = rounds = 0
    ascent_round = solver._Ascent.run

    def counted_round(ascent, steps):
        nonlocal rounds
        rounds += 1
        ascent_round(ascent, steps)

    solver._Ascent.run = counted_round

    gaps, root_gaps, visit_ratios = [], [], []
    infeasible = 0
    print(f"{'seed':>6} {'L':>2} {'M':>2} {'optimum_s':>12} {'bound_s':>12} "
          f"{'gap%':>6} {'root%':>6} {'visited%':>9}")
    for k in range(args.instances):
        rng = random.Random(args.seed * 1_000_003 + k)
        inst = random_test_instance(rng, max_layers=args.max_layers,
                                    max_servers=args.max_servers)
        options = DelayOptions(
            cp_scaling=rng.choice(("with_pl", "without_pl")),
            per_token_activation=rng.random() < 0.5,
            storage=rng.choice(("compact", "literal")))
        table = build_delay_table(inst, options)
        exact = solve_brute_force(inst, table)
        if exact.plan is None:
            infeasible += 1
            continue
        before = rounds
        bnb = solve_branch_and_bound(table)
        escalated += rounds > before
        assert bnb.plan.assignments == exact.plan.assignments
        # brute force prices from the specs, bnb from the table: equal bit
        # for bit where the table is right
        assert bnb.objective == exact.objective
        assert not check_plan_feasible(bnb.plan.assignments, inst, options)
        replayed = simulate(bnb.plan.assignments, inst, options).completion_time
        assert replayed == bnb.objective
        bound, _ = solve_relaxed_dp(table)
        gap = 100 * (exact.objective - bound) / exact.objective
        root_gap = 100 * (exact.objective - bnb.lower_bound_at_root) / exact.objective
        visited = 100 * bnb.nodes_explored / max(exact.nodes_explored, 1)
        gaps.append(gap)
        root_gaps.append(root_gap)
        visit_ratios.append(visited)
        print(f"{k:>6} {inst.model.num_layers:>2} {inst.cluster.num_servers:>2} "
              f"{exact.objective:>12.6f} {bound:>12.6f} {gap:>6.2f} "
              f"{root_gap:>6.2f} {visited:>9.2f}")

    print(f"\n{len(gaps)} feasible / {infeasible} infeasible")
    if gaps:
        print(f"DP bound gap: mean {statistics.mean(gaps):.2f}% "
              f"max {max(gaps):.2f}%")
        print(f"root bound gap: mean {statistics.mean(root_gaps):.2f}% "
              f"max {max(root_gaps):.2f}%")
        print(f"leaves visited by branch-and-bound: "
              f"mean {statistics.mean(visit_ratios):.2f}% of brute force")
    print(f"escalated to the Lagrangian bound: {escalated} of {len(gaps)} searches, "
          f"{rounds} ascent rounds")


if __name__ == "__main__":
    main()
