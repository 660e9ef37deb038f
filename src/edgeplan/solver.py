"""Exact solvers for the single-model placement problem.

Three routes over the same delay table, whose math.inf entries are the
one admissibility mask (missing links, infeasible widths, storage):
  - brute force: every injective server assignment times every feasible
    bit choice, skipping masked ones; the verification oracle.
  - relaxed DP: shortest path through the layered graph whose stage-l
    nodes are (server, bits), dropping the one-layer-per-server rule;
    an admissible lower bound, computed with whole-array minima.
  - branch and bound: depth-first over layers with the DP suffix bound,
    guaranteed to reproduce the brute-force optimum and tie-broken plan.

Brute force and branch and bound visit nodes one at a time, so they read
the table as nested Python lists converted once per solve; per-node numpy
scalar indexing costs more than the search itself. Bit-widths are handled
as positions in the instance's bit menu, which is sorted, so the order on
positions is the order on widths.

Ties are broken by the lexicographically smallest (server, bits) sequence
so plans, not just objectives, are comparable across solvers.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PlacementPlan, ProblemInstance
from .delay import DelayTable, evaluate_plan, path_delay

DEFAULT_NODE_BUDGET = 10_000_000

# solve_brute_force refuses anything past this; exact enumeration of
# M-permutations times bit products explodes quickly.
BRUTE_FORCE_MAX_LAYERS = 6
BRUTE_FORCE_MAX_SERVERS = 9


class SizeLimit(ValueError):
    """Instance too large for the brute-force guard."""


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal", "infeasible", "budget_exceeded"
    plan: Optional[PlacementPlan]
    objective: float  # math.inf when infeasible
    nodes_explored: int  # complete candidate plans evaluated
    lower_bound_at_root: float
    wall_time: float

    @property
    def feasible(self) -> bool:
        return self.plan is not None


def _widths(path, table: DelayTable) -> tuple[tuple[int, int], ...]:
    """(server, bit position) pairs -> (server, bits) assignments."""
    return tuple((i, table.bit_menu[k]) for i, k in path)


def _make_plan(path, table: DelayTable) -> PlacementPlan:
    """Plan from (server, bit position) pairs, priced by evaluate_plan."""
    assignments = _widths(path, table)
    total, cp, cm = evaluate_plan(assignments, table)
    return PlacementPlan(assignments=assignments, total_delay=total,
                        compute_delay=cp, comm_delay=cm)


def solve_brute_force(instance: ProblemInstance, table: DelayTable) -> SolveResult:
    """Enumerate every feasible plan; exact by construction."""
    L = instance.model.num_layers
    M = instance.cluster.num_servers
    if L > BRUTE_FORCE_MAX_LAYERS or M > BRUTE_FORCE_MAX_SERVERS:
        raise SizeLimit(f"L={L}, M={M} beyond brute-force guard "
                        f"({BRUTE_FORCE_MAX_LAYERS}, {BRUTE_FORCE_MAX_SERVERS})")
    t0 = time.perf_counter()
    if L > M or any(not fb for fb in instance.feasible_bits):
        return SolveResult("infeasible", None, math.inf, 0, math.inf,
                           time.perf_counter() - t0)

    cp = table.cp.transpose(1, 0, 2).tolist()  # [layer][server][bits]
    cm = table.cm.tolist()  # [layer][src][dst][bits]
    widths = [[table.bit_index(b) for b in fb] for fb in instance.feasible_bits]
    best_total = math.inf
    best: Optional[tuple[tuple[int, int], ...]] = None
    leaves = 0
    for perm in itertools.permutations(range(M), L):
        for bits in itertools.product(*widths):
            leaves += 1
            candidate = tuple(zip(perm, bits))
            total = path_delay(cp, cm, candidate)[0]
            if total > best_total or math.isinf(total):
                continue
            if total < best_total or candidate < best:
                best_total, best = total, candidate
    wall = time.perf_counter() - t0
    if best is None:
        return SolveResult("infeasible", None, math.inf, leaves, math.inf, wall)
    plan = _make_plan(best, table)
    return SolveResult("optimal", plan, plan.total_delay, leaves,
                       plan.total_delay, wall)


# ---------------------------------------------------------------------------
# Layered-graph relaxation
# ---------------------------------------------------------------------------

def _suffix_bounds(table: DelayTable) -> list[np.ndarray]:
    """H[l][i, k] = cheapest completion of layers l..L-1 starting with
    layer l on server i at bit position k, allowing non-consecutive server
    reuse:

        H[l][i, k] = cp[i, l, k] + min_{j != i} (cm[l, i, j, k] + min_k2 H[l+1][j, k2])

    Consecutive layers still need distinct, linked servers (any feasible
    plan satisfies that), so the bound stays admissible while excluding
    free self-edges. Adding a constant is monotone under rounding, so
    taking the inner minimum first gives the same value as minimising
    every (j, k2) sum."""
    cp, cm = table.cp, table.cm
    M, L, _ = cp.shape
    if L == 0:
        return []
    diag = np.arange(M)
    H = [cp[:, L - 1, :]]
    for l in range(L - 2, -1, -1):
        via = cm[l] + H[0].min(axis=1, initial=math.inf)[None, :, None]
        via[diag, diag] = math.inf
        H.insert(0, cp[:, l, :] + via.min(axis=1, initial=math.inf))
    return H


def solve_relaxed_dp(instance: ProblemInstance, table: DelayTable
                     ) -> tuple[float, Optional[tuple[tuple[int, int], ...]]]:
    """Shortest layered path; returns (lower_bound, path). The path may
    reuse servers, so it is a bound witness, not a plan. Ties go to the
    first (server, bits) in row-major order, the lexicographic smallest."""
    L = instance.model.num_layers
    if L == 0:
        return 0.0, ()
    H = _suffix_bounds(table)
    if H[0].size == 0:
        return math.inf, None
    B = H[0].shape[1]
    i, k = divmod(int(np.argmin(H[0])), B)
    bound = float(H[0][i, k])
    if math.isinf(bound):
        return math.inf, None
    path = [(i, k)]
    for l in range(L - 1):
        via = table.cm[l, i, :, k][:, None] + H[l + 1]
        via[i] = math.inf
        i, k = divmod(int(np.argmin(via)), B)
        path.append((i, k))
    return bound, _widths(path, table)


def solve_branch_and_bound(instance: ProblemInstance, table: DelayTable,
                           budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact search with DP suffix pruning.

    Pruning is strict (bound > incumbent) so objective ties survive and the
    lexicographic tie-break matches brute force exactly. Deterministic:
    layers expanded in order, children sorted by (bound, server, bits).
    Masked (server, layer, bits) entries are never expanded.
    """
    t0 = time.perf_counter()
    L = instance.model.num_layers
    M = instance.cluster.num_servers
    if L > M or any(not fb for fb in instance.feasible_bits):
        return SolveResult("infeasible", None, math.inf, 0, math.inf,
                           time.perf_counter() - t0)
    if L == 0:
        plan = PlacementPlan((), 0.0, 0.0, 0.0)
        return SolveResult("optimal", plan, 0.0, 0, 0.0,
                           time.perf_counter() - t0)

    bounds = _suffix_bounds(table)
    root_bound = float(bounds[0].min(initial=math.inf))
    if math.isinf(root_bound):
        return SolveResult("infeasible", None, math.inf, 0, math.inf,
                           time.perf_counter() - t0)

    cp = table.cp.transpose(1, 0, 2).tolist()  # [layer][server][bits]
    # [layer][src][bits][dst]: one row per placed parent
    cm = table.cm.transpose(0, 1, 3, 2).tolist()
    H = [h.tolist() for h in bounds]  # [layer][server][bits]
    admissible = [[[k for k, c in enumerate(row) if c != math.inf] for row in layer]
                  for layer in cp]
    incumbent: Optional[tuple[float, tuple[tuple[int, int], ...]]] = None
    leaves = 0
    expansions = 0
    exhausted = False

    def children(l: int, last: Optional[tuple[int, int]], used: int):
        out = []
        edges = cm[l - 1][last[0]][last[1]] if last is not None else None
        for i in range(M):
            if used >> i & 1:
                continue
            edge = 0.0
            if edges is not None:
                edge = edges[i]
                if edge == math.inf:
                    continue
            tails = H[l][i]
            for k in admissible[l][i]:
                out.append((edge + tails[k], i, k, edge))
        out.sort()
        return out

    def dfs(l: int, used: int, cost: float,
            prefix: tuple[tuple[int, int], ...]) -> None:
        nonlocal incumbent, leaves, expansions, exhausted
        if exhausted:
            return
        last = prefix[-1] if prefix else None
        for bound_tail, i, k, edge in children(l, last, used):
            expansions += 1
            if expansions > budget:
                exhausted = True
                return
            if incumbent is not None and cost + bound_tail > incumbent[0]:
                continue
            child_cost = cost + edge + cp[l][i][k]
            child_prefix = prefix + ((i, k),)
            if l == L - 1:
                leaves += 1
                key = (child_cost, child_prefix)
                if incumbent is None or key < incumbent:
                    incumbent = key
            else:
                dfs(l + 1, used | 1 << i, child_cost, child_prefix)

    dfs(0, 0, 0.0, ())
    wall = time.perf_counter() - t0
    if incumbent is None:
        status = "budget_exceeded" if exhausted else "infeasible"
        return SolveResult(status, None, math.inf, leaves, root_bound, wall)
    plan = _make_plan(incumbent[1], table)
    status = "budget_exceeded" if exhausted else "optimal"
    return SolveResult(status, plan, plan.total_delay, leaves, root_bound, wall)
