"""Exact solvers for the single-model placement problem.

The solvers split along one line. The planner side reads the delay table
and nothing else. The table runs each layer at one width, the smallest
its filter kept (see build_delay_table), so the relaxed DP and branch and
bound choose a server per layer, within the table's math.inf mask:
  - relaxed DP: shortest path through the layered graph whose stage-l
    nodes are servers, dropping the one-layer-per-server rule; an
    admissible lower bound, computed one M x M layer at a time.
  - branch and bound: depth-first over layers, in short probes: first
    under the DP suffix bound, then under a Lagrangian bound (per-server
    penalties on the same DP) that a subgradient ascent raises between
    probes, until a probe finishes the search; guaranteed to reproduce
    the brute-force optimum and tie-broken plan.
The oracle reads the raw specs and, of the table, only its DelayOptions:
  - brute force: every injective server assignment times every feasible
    width, priced by compute_cp/compute_cm; the oracle of the search, of
    the table and of the smallest-width rule. Its plan and objective never
    pass through the table, so an equal objective is a bit-for-bit check
    of the table at the optimum.
Both price their plans with delay.path_delay, branch and bound on the
table's entries and brute force on its scalar prices, so the objective is
summed in one order. Neither checks a plan; delay.check_plan_feasible does.

The relaxed DP of a solve runs in one workspace (_LayeredDP) that holds
cp + lambda, H, the next-server argmins and one M x M layer of sums: the
root bound is its first solve, which is also the subgradient ascent's
first step, and every later step solves it again in place. A step, the
DP with its witness and the multiplier update, costs about 28 us at
M 16/L 9 on a 2-CPU Xeon.

Branch and bound visits nodes one at a time, and a numpy call per node
would cost more than the search itself. So a probe reads the table once
per (layer, parent server) pair it reaches: one sorted child list in
Python floats, which every node under that pair walks. Of the table only cp
(L x M) becomes nested lists; the L x M x M edge array stays numpy.

Ties are broken by the lexicographically smallest (server, bits) sequence
so plans, not just objectives, are comparable across solvers.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PlacementPlan, ProblemInstance
from .delay import DelayTable, compute_cm, compute_cp, path_delay

DEFAULT_NODE_BUDGET = 10_000_000

# The search alternates short probes (_search calls with a small expansion
# allowance) with rounds of the Lagrangian ascent, and stops as soon as a
# probe finishes: the search, not a step cap, says when the bound is good
# enough. The first probe runs under the plain DP bound; round r (from 0)
# takes _FIRST_ROUND_STEPS << r more subgradient steps and then probes
# under the best multipliers so far with _FIRST_ROUND_PROBE << r
# expansions (children examined). One step is a relaxed DP with its
# witness, O(L * M^2), about 28 us at M 16/L 9 on a 2-CPU Xeon, so a
# round's steps cost about as much as its probe. Shallow searches (L <= 5,
# any M) mostly finish in the first probe and never take a step. On the
# seed-9101 `deep` benchmark pool (M 10-16, L 6-10), 36 of the 39 plans
# take a round and 30 of those finish in the probe after it, 20 steps
# where a fixed cap took up to 100. A first probe of 100 expansions
# instead of 200 nearly doubled the search time on the `artifacts` pool.
_FIRST_PROBE = 200
_FIRST_ROUND_STEPS = 20
_FIRST_ROUND_PROBE = 500
_SUBGRADIENT_STEPS = 100  # the whole ascent's cap, over every round
_STALL_STEPS = 3  # halve the Polyak step size after this many non-improving steps
_ESTIMATE_SLACK = 0.1  # target above the DP bound when there is no incumbent yet
# pruning slack: penalised bounds are rounded sums that may exceed a tied
# plan's objective by a few ulps, so a bound must beat the incumbent by more
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12

# solve_brute_force refuses anything past this; exact enumeration of
# M-permutations times bit products explodes quickly.
BRUTE_FORCE_MAX_LAYERS = 6
BRUTE_FORCE_MAX_SERVERS = 9


class SizeLimit(ValueError):
    """A problem too large for the brute-force guard."""


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal", "infeasible", "budget_exceeded"
    plan: Optional[PlacementPlan]
    objective: float  # math.inf when infeasible
    nodes_explored: int  # complete candidate plans evaluated
    lower_bound_at_root: float
    wall_time: float
    expansions: int = 0  # search-tree children examined (bnb only)


def _scalar_prices(instance: ProblemInstance, options) -> tuple[list, list]:
    """cp[l][b][i] and cm[l][b][i][j] at every width b layer l keeps, from
    the scalar functions on the raw specs, masked as the table masks."""
    cluster, model, n = instance.cluster, instance.model, instance.tokens
    servers = range(cluster.num_servers)
    cp, cm = [], []
    for layer, fb in zip(model.layers, instance.feasible_bits):
        cp.append({b: [compute_cp(layer, s, b, n, options)
                       if options.bytes_needed(layer, b) <= s.storage_capacity
                       else math.inf for s in cluster.servers] for b in fb})
        cm.append({b: [[math.inf if (link := cluster.link(i, j)) is None else
                        compute_cm(layer, link, b, n, model.batch_size,
                                   model.embedding_size, options) for j in servers]
                       for i in servers] for b in fb})
    return cp, cm


def solve_brute_force(instance: ProblemInstance, table: DelayTable) -> SolveResult:
    """Enumerate every feasible plan at every feasible width, priced from
    the raw specs under ``table.options``; exact by construction. Of the
    table it reads only the options, so a wrong entry, or an optimum at a
    width the table dropped, shows as a different plan or objective from
    the search's. With more layers than servers, or a layer that keeps no
    width, there is nothing to enumerate: 0 leaves, infeasible."""
    L = instance.model.num_layers
    M = instance.cluster.num_servers
    if L > BRUTE_FORCE_MAX_LAYERS or M > BRUTE_FORCE_MAX_SERVERS:
        raise SizeLimit(f"L={L}, M={M} beyond brute-force guard "
                        f"({BRUTE_FORCE_MAX_LAYERS}, {BRUTE_FORCE_MAX_SERVERS})")
    t0 = time.perf_counter()
    cp, cm = _scalar_prices(instance, table.options)
    best_delay = (math.inf, math.inf, math.inf)
    best: Optional[tuple[tuple[int, int], ...]] = None
    leaves = 0
    for bits in itertools.product(*instance.feasible_bits):
        cp_at = [cp[l][b] for l, b in enumerate(bits)]
        cm_at = [cm[l][b] for l, b in enumerate(bits)]
        for perm in itertools.permutations(range(M), L):
            leaves += 1
            delay = path_delay(cp_at, cm_at, perm)
            total = delay[0]
            if total > best_delay[0] or math.isinf(total):
                continue
            candidate = tuple(zip(perm, bits))
            if total < best_delay[0] or candidate < best:
                best_delay, best = delay, candidate
    wall = time.perf_counter() - t0
    if best is None:
        return SolveResult("infeasible", None, math.inf, leaves, math.inf, wall)
    total, compute, comm = best_delay
    plan = PlacementPlan(assignments=best, total_delay=total,
                         compute_delay=compute, comm_delay=comm)
    return SolveResult("optimal", plan, total, leaves, total, wall)


# ---------------------------------------------------------------------------
# Layered-graph relaxation
# ---------------------------------------------------------------------------

class _LayeredDP:
    """The relaxed DP of one table in one set of buffers, which the root
    bound and every subgradient step reuse:

        H[l, i] = pen[l, i] + min_j (cm[l, i, j] + H[l + 1, j]),

    H[l, i] the cheapest completion of layers l..L-1 starting with layer
    l on server i, allowing non-consecutive server reuse, and pen = cp +
    lambda, per-server penalties (the Lagrangian bound's) on cp. The table
    masks every hop from a server to itself, so consecutive layers still
    need distinct, linked servers, as in every feasible plan, and the
    bound stays admissible. nxt[l, i] is the first j attaining the
    minimum, the witness's next server. Each layer writes its sums to one
    M x M buffer, takes each row's first argmin and reads the minimum back
    there, the float a min-reduce gives; keeping all L - 1 layers' sums
    for the witness instead made an ascent step at M = 1024 half again as
    slow. Built, it holds the plain DP (lambda = 0); each ``solve``
    overwrites pen, H and nxt. Needs L >= 1."""

    def __init__(self, cp: np.ndarray, cm: np.ndarray):
        L, M = cp.shape
        self.cp, self.cm, self.pen = cp, cm, cp.copy()
        self.H = H = np.empty((L, M))
        self.nxt = np.empty((L - 1, M), dtype=np.intp)
        self._via = np.empty((M, M))
        self._flat, self._starts = self._via.reshape(-1), np.arange(M) * M
        self._at, self._mins = np.empty(M, dtype=np.intp), np.empty(M)
        # per layer, last first: (cm, pen, H, nxt) rows of l and H's of l + 1
        self._layers = [(cm[l], self.pen[l], H[l], self.nxt[l], H[l + 1])
                        for l in range(L - 2, -1, -1)]
        self._run()

    def solve(self, lam: np.ndarray) -> None:
        """The DP on cp + lam."""
        np.add(self.cp, lam, out=self.pen)
        self._run()

    def _run(self) -> None:
        via, flat, starts, at, mins = (self._via, self._flat, self._starts,
                                       self._at, self._mins)
        self.H[-1] = self.pen[-1]
        if not len(via):  # argmin refuses empty rows; H is empty anyway
            return
        for cm_l, pen_l, H_l, nxt_l, below in self._layers:
            np.add(cm_l, below, out=via)
            via.argmin(axis=1, out=nxt_l)
            np.add(nxt_l, starts, out=at)
            np.add(pen_l, flat.take(at, out=mins), out=H_l)

    def witness(self) -> Optional[list[int]]:
        """The shortest layered path, one server per layer, following the
        first minima: ties go to the smallest server, so the path is the
        lexicographic smallest, and H[0] at its first server is H[0].min().
        None when H[0] has no finite entry."""
        first = self.H[0]
        if not len(first):
            return None
        path = [int(first.argmin())]
        if math.isinf(first[path[0]]):
            return None
        for row in self.nxt.tolist():
            path.append(row[path[-1]])
        return path


def solve_relaxed_dp(table: DelayTable
                     ) -> tuple[float, Optional[tuple[tuple[int, int], ...]]]:
    """Shortest layered path; returns (lower_bound, (server, bits) path).
    The path may reuse servers, so it is a bound witness, not a plan."""
    dp = _LayeredDP(table.cp, table.cm)
    path = dp.witness()
    if path is None:
        return math.inf, None
    return float(dp.H[0, path[0]]), tuple(zip(path, table.widths))


# ---------------------------------------------------------------------------
# Lagrangian bound and branch and bound
# ---------------------------------------------------------------------------

class _Ascent:
    """Multipliers lambda >= 0, one per server, for the bound

        min H_lambda[0] - (sum of the L largest lambda),

    where H_lambda is the relaxed DP on cp + lambda. A feasible plan visits
    L distinct servers, so it pays at most the L largest penalties back and
    the bound is admissible for every lambda >= 0; lambda = 0 gives the
    plain DP bound. Projected subgradient ascent with Polyak steps toward
    ``target`` (the incumbent's objective or an estimate of one); the
    subgradient is the witness path's visits per server minus one for each
    server in the top-L set. A witness on L distinct servers is a feasible
    plan: it replaces ``incumbent`` (None or (objective, path)) when
    better, and the target drops to it; nothing else moves the target.
    ``dp`` holds the table's plain DP, the first step's; each later step
    solves it again at its own lambda.

    The ascent is resumable: ``run(n)`` takes up to n more steps, and
    lambda, ``best`` (bound, lambda, H_lambda), the step size, the stall
    count, the step count and the target carry over, so k steps and then
    n - k are the n steps of one call. ``done`` is set once the ascent
    stops for good: the best bound reached the target, _SUBGRADIENT_STEPS
    were taken, or the subgradient was zero. ``best`` holds arrays that
    later steps leave alone."""

    def __init__(self, dp: _LayeredDP, target: float, incumbent):
        L, M = dp.cp.shape
        self.dp, self.target, self.incumbent = dp, target, incumbent
        self.lam = np.zeros(M)
        self.best = (-math.inf, self.lam, None)
        self.theta, self.stall, self.steps, self.done = 2.0, 0, 0, False
        # the top-L sort's keys (-visits, -lambda), lambda on the top-L set
        # and the subgradient, written in place each step
        self._keys = (np.empty(M, dtype=np.intp), np.empty(M))
        self._top_lam, self._grad = np.empty(L), np.empty(M)

    def run(self, n: int) -> None:
        if self.done:
            return
        dp = self.dp
        cp, cm, H = dp.cp, dp.cm, dp.H
        L, M = cp.shape
        keys, top_lam, grad = self._keys, self._top_lam, self._grad
        lam, best, target, incumbent = self.lam, self.best, self.target, self.incumbent
        theta, stall, step = self.theta, self.stall, self.steps
        stop, done = min(step + n, _SUBGRADIENT_STEPS), False
        while step < stop:
            if step:
                dp.solve(lam)
            step += 1
            witness = dp.witness()
            if len(set(witness)) == L:
                total = float(path_delay(cp, cm, witness)[0])
                key = (total, tuple(witness))
                if incumbent is None or key < incumbent:
                    incumbent = key
                    target = min(target, total)
            visits = np.bincount(witness, minlength=M)
            np.negative(visits, out=keys[0])
            np.negative(lam, out=keys[1])
            # top-L set: largest lambda, ties to the servers the witness visits
            top = np.lexsort(keys)[:L]
            bound = float(H[0, witness[0]]) - float(lam.take(top, out=top_lam).sum())
            if bound > best[0]:
                best, stall = (bound, lam, H.copy()), 0
            else:
                stall += 1
                if stall == _STALL_STEPS:
                    theta, stall = theta / 2, 0
            if best[0] >= target - _tie_tolerance(target):
                done = True
                break
            np.copyto(grad, visits)
            grad[top] -= 1.0
            norm = float(grad @ grad)
            if norm == 0.0:  # the witness is a plan at the bound
                done = True
                break
            # a new array each step: best may hold the old one
            moved = np.multiply(grad, theta * (target - bound) / norm)
            lam = np.maximum(0.0, np.add(lam, moved, out=moved), out=moved)
        self.done = done or step == _SUBGRADIENT_STEPS
        self.lam, self.best, self.target, self.incumbent = lam, best, target, incumbent
        self.theta, self.stall, self.steps = theta, stall, step


def _tie_tolerance(objective: float) -> float:
    return max(_TIE_RTOL * abs(objective), _TIE_ATOL)


def _search(cp, cm, H, lam, limit: int, incumbent):
    """Depth-first search over layers under the bound

        compute + comm + edge + H[l, i] - (sum of the L - l largest lam
                                           among the unused servers)

    which is the plain DP bound when lam is all zero. cp, cm and H are
    arrays (the table's and _LayeredDP's), lam a list. The children of
    a node at layer l under parent server p are the servers in (edge +
    H[l, i], server) order, edge = cm[l - 1, p, i] (0 at the root); that
    list is sorted once per (l, p), the first time the search reaches
    the pair, and a node walks it, skipping used servers. The walk stops
    at the first child whose bound exceeds the incumbent by more than the
    tie tolerance, measured against the incumbent at node entry before the
    child counts as examined and against the current one after, since
    all later children are no better. Exact ties therefore survive, and
    the incumbent is the smallest (objective, path) over the leaves
    reached, with the objective summed as delay.path_delay sums it, so
    plans are brute force's tie-broken plan. Examines at most ``limit``
    children. A masked placement has an infinite bound, so the finite
    cutoff drops it. A path is one server per layer; ``incumbent`` is None
    or (objective, path). Returns (incumbent, leaves, expansions,
    exhausted).
    """
    L, M = cp.shape
    cpl = cp.tolist()
    order = sorted(range(M), key=lambda i: -lam[i])
    penalised = any(lam)
    best_total, best_path = incumbent if incumbent else (math.inf, None)
    # a finite cutoff also prunes children without any completion (inf
    # bound) before the first incumbent exists
    cutoff = (best_total + _tie_tolerance(best_total) if incumbent
              else sys.float_info.max)
    path: list[int] = []
    leaves = expansions = 0
    exhausted = False
    # kids[l][p]: (bound_tail, server, edge) of layer l under parent p
    kids: list[list] = [[None] * M for _ in range(L)]

    def children(l: int, p: int) -> list:
        edges = cm[l - 1, p] if l else np.zeros(M)
        tails = edges + H[l]
        by_bound = tails.argsort(kind="stable")
        return list(zip(tails[by_bound].tolist(), by_bound.tolist(),
                        edges[by_bound].tolist()))

    def reserve(used: int, n: int) -> float:
        total = 0.0
        for i in order:
            if not used >> i & 1:
                total += lam[i]
                n -= 1
                if n == 0:
                    break
        return total

    def dfs(l: int, used: int, compute: float, comm: float) -> None:
        nonlocal best_total, best_path, cutoff, leaves, expansions, exhausted
        p = path[-1] if l else 0
        listed = kids[l][p]
        if listed is None:
            listed = kids[l][p] = children(l, p)
        base = compute + comm
        if penalised:
            base -= reserve(used, L - l)
        entry = cutoff
        cp_l = cpl[l]
        leaf = l == L - 1
        for bound_tail, i, edge in listed:
            bound = base + bound_tail
            if bound > entry:
                break
            if used >> i & 1:
                continue
            if expansions >= limit:
                exhausted = True
                return
            expansions += 1
            if bound > cutoff:
                break
            child_compute = compute + cp_l[i]
            path.append(i)
            if leaf:
                leaves += 1
                total = child_compute + (comm + edge)
                if total < best_total or (total == best_total
                                          and tuple(path) < best_path):
                    best_total, best_path = total, tuple(path)
                    cutoff = total + _tie_tolerance(total)
            else:
                dfs(l + 1, used | 1 << i, child_compute, comm + edge)
            path.pop()
            if exhausted:
                return

    dfs(0, 0, 0.0, 0.0)
    found = (best_total, best_path) if best_path is not None else None
    return found, leaves, expansions, exhausted


def solve_branch_and_bound(table: DelayTable,
                           budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact search: short probes under the DP suffix bound, then under a
    Lagrangian bound that improves between probes, until one finishes.

    The first probe runs under the plain DP bound for at most _FIRST_PROBE
    expansions (children examined). If that is not enough, the root
    subgradient ascent (_Ascent) starts, aimed at the probe's incumbent,
    and the solve alternates rounds of ascent steps with probes under the
    best multipliers so far, each probe starting over with the incumbent
    so far (the probes' or an ascent witness's, whichever is better). Both
    the rounds and the probes double (see _FIRST_ROUND_STEPS). It stops
    when a probe finishes; once the ascent stops, the next probe is the
    last and may use the whole budget. ``budget`` caps the expansions of
    every probe together. Pruning needs the bound to exceed the incumbent
    by a small relative tolerance, so objective ties survive and the
    lexicographic tie-break matches brute force exactly. Deterministic;
    masked (layer, server) entries are never expanded. lower_bound_at_root
    is the strongest root bound proven when the search finished.
    """
    t0 = time.perf_counter()
    cp, cm = table.cp, table.cm
    L, M = cp.shape
    if L > M:
        return SolveResult("infeasible", None, math.inf, 0, math.inf,
                           time.perf_counter() - t0)
    dp = _LayeredDP(cp, cm)
    root_bound = float(dp.H[0].min(initial=math.inf))
    # a layer that keeps no width has an all-inf cp row: an inf root bound
    if math.isinf(root_bound):
        return SolveResult("infeasible", None, math.inf, 0, math.inf,
                           time.perf_counter() - t0)

    lam, H = [0.0] * M, dp.H
    limit, ascent, rounds = _FIRST_PROBE, None, 0
    incumbent, leaves, expansions = None, 0, 0
    while True:
        incumbent, more_leaves, more, exhausted = _search(
            cp, cm, H, lam, min(limit, budget - expansions), incumbent)
        leaves += more_leaves
        expansions += more
        if not exhausted or expansions == budget or ascent and ascent.done:
            break
        if ascent is None:
            # no incumbent yet: aim the Polyak steps a little above the DP bound
            ascent = _Ascent(dp, incumbent[0] if incumbent
                             else root_bound * (1 + _ESTIMATE_SLACK), incumbent)
        ascent.run(_FIRST_ROUND_STEPS << rounds)
        limit = budget if ascent.done else _FIRST_ROUND_PROBE << rounds
        rounds += 1
        bound, lam, H = ascent.best
        lam = lam.tolist()
        root_bound = max(root_bound, bound)
        found = ascent.incumbent
        if found is not None and (incumbent is None or found < incumbent):
            incumbent = found
    wall = time.perf_counter() - t0
    if incumbent is None:
        status = "budget_exceeded" if exhausted else "infeasible"
        return SolveResult(status, None, math.inf, leaves, root_bound, wall,
                           expansions)
    status = "budget_exceeded" if exhausted else "optimal"
    # array entries sum to numpy scalars: the plan carries Python floats
    total, compute, comm = map(float, path_delay(cp, cm, incumbent[1]))
    plan = PlacementPlan(assignments=tuple(zip(incumbent[1], table.widths)),
                         total_delay=total, compute_delay=compute,
                         comm_delay=comm)
    # the root bound can exceed the objective only by rounding
    return SolveResult(status, plan, total, leaves, min(root_bound, total),
                       wall, expansions)
