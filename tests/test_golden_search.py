"""The search trajectory, pinned: branch and bound's plan, objective,
leaves, expansions and root bound, and the relaxed bound and witness, on a
fixed set of instances, equal to tests/data/golden_search.json exactly.
On the ladder it also pins where a cut budget stops the search: inside a
node, and on either side of the end of the plain-bound first probe and of
the first round's probe (BUDGET_CUTS).

A refactor that changes what the search does fails here. A change that
alters the search on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_search.py

and says why in CHANGES.md.
"""

import json
import random

import pytest

from edgeplan.delay import DelayOptions, build_delay_table
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.solver import solve_branch_and_bound, solve_relaxed_dp

from conftest import data_path, left_for_collector, with_binding_storage

GOLDEN = data_path("golden_search.json")

# the ladder includes instances that run the Lagrangian ascent; 48x16 s4
# once took 524,236 expansions under 100 ascent steps fixed in advance
LADDER = [(m, l, seed) for m, l in ((16, 8), (24, 10), (32, 12), (48, 5))
          for seed in (1, 2, 3)] + [(48, 16, 4)]
RANDOM_CASES = 20
# budgets around the end of the first probe (200 expansions, plain bound)
# and of the first round's probe (500 more); each ladder case also runs at
# its full expansion count minus one
BUDGET_CUTS = (1, 199, 200, 201, 700, 701)


def cases():
    """(id, instance, options) of every pinned instance."""
    for m, l, seed in LADDER:
        inst = generate_instance(seed, m, l, (4, 8, 16), "heterogeneous", tokens=32)
        yield f"ladder-{m}x{l}-s{seed}", inst, DelayOptions()
    for seed in range(RANDOM_CASES):
        rng = random.Random(50_000 + seed)
        inst = with_binding_storage(
            random_test_instance(rng, max_servers=8, link_density=0.3), rng, 0.3)
        options = DelayOptions(storage="literal" if seed % 2 else "compact")
        yield f"random-{seed}", inst, options


def _floats(got) -> None:
    """Every number the solve returns is a Python float, not a numpy scalar
    (a plan document would print ``np.float64(...)``)."""
    numbers = [got.objective, got.lower_bound_at_root]
    if got.plan is not None:
        numbers += [got.plan.total_delay, got.plan.compute_delay,
                    got.plan.comm_delay]
    for x in numbers:
        assert type(x) is float, (type(x), x)


def budget_cuts(table, expansions: int) -> list:
    """Status, leaves, expansions, objective and root bound of the solve
    cut at each budget of BUDGET_CUTS and at ``expansions - 1``."""
    cuts = []
    for budget in (*BUDGET_CUTS, expansions - 1):
        got = solve_branch_and_bound(table, budget=budget)
        _floats(got)
        cuts.append({
            "budget": budget,
            "status": got.status,
            "nodes_explored": got.nodes_explored,
            "expansions": got.expansions,
            "objective": repr(got.objective),
            "lower_bound_at_root": repr(got.lower_bound_at_root),
        })
    return cuts


def record(name, inst, options) -> dict:
    table = build_delay_table(inst, options)
    got = solve_branch_and_bound(table)
    _floats(got)
    bound, witness = solve_relaxed_dp(table)
    doc = {
        "status": got.status,
        "assignments": None if got.plan is None else [list(a) for a in got.plan.assignments],
        "objective": repr(got.objective),
        "nodes_explored": got.nodes_explored,
        "expansions": got.expansions,
        "lower_bound_at_root": repr(got.lower_bound_at_root),
        "relaxed_bound": repr(bound),
        "relaxed_witness": None if witness is None else [list(a) for a in witness],
    }
    if name.startswith("ladder-"):
        doc["budget_cuts"] = budget_cuts(table, got.expansions)
    return doc


def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: c[0])
def test_search_trajectory_is_pinned(case):
    name, inst, options = case
    assert record(name, inst, options) == _golden()[name]


@pytest.mark.parametrize("budget", BUDGET_CUTS)
def test_cut_search_leaves_no_cycles(budget):
    """A probe cut by the budget returns from deep in the recursion, and a
    finished one from the top; either way its state is freed when it
    returns, with nothing left in reference cycles for the collector. The
    24x10 s1 ladder case is cut at every budget of BUDGET_CUTS, and its
    full solve runs three probes."""
    inst = generate_instance(1, 24, 10, (4, 8, 16), "heterogeneous", tokens=32)
    table = build_delay_table(inst, DelayOptions())
    for cut in (budget, None):
        got, left = left_for_collector(solve_branch_and_bound, table,
                                       *(() if cut is None else (cut,)))
        assert (got.status, left) == (
            "budget_exceeded" if cut else "optimal", 0)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(name for name, _, _ in cases())


if __name__ == "__main__":
    doc = {name: record(name, inst, options) for name, inst, options in cases()}
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}: {len(doc)} cases")
