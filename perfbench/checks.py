"""Correctness checks on each command's output, run outside the timed
region. Each returns a list of problems; empty means the output is right.

The checks call edgeplan's functions by their defining modules, never
through the names the tracer replaces, so they add no spans.
"""

from __future__ import annotations

import json
import math

from edgeplan.core import load_instance
from edgeplan.delay import DelayOptions, build_delay_table
from edgeplan.ilp import (build_ilp, check_plan_feasible, model_as_parsed,
                          parse_lp, substitute)
from edgeplan.solver import solve_brute_force
from inputs import BITS

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def canonical_plan(path: str) -> str:
    """Plan JSON with meta.wall_time_s removed, for the determinism check."""
    with open(path) as f:
        doc = json.load(f)
    doc["meta"].pop("wall_time_s", None)
    return json.dumps(doc, sort_keys=True)


def _instance(case, options: dict):
    delta = options["delta"]
    return load_instance(case.cluster, case.model, bit_menu=options["bits"],
                         delta=math.inf if delta == "inf" else delta,
                         tokens=options["tokens"],
                         feasible_bits=options["feasible_bits"])


def _assignments(doc: dict) -> tuple:
    return tuple((a["server"], a["bits"])
                 for a in sorted(doc["assignments"], key=lambda a: a["layer"]))


def check_plan(case, plan_path: str) -> list[str]:
    """Feasible, objective >= root bound, and equal to brute force where
    the instance is small enough to enumerate."""
    with open(plan_path) as f:
        doc = json.load(f)
    instance = _instance(case, doc["options"])
    plan = _assignments(doc)
    problems = [f"infeasible plan: {v}"
                for v in check_plan_feasible(plan, instance)]
    total = doc["objective"]["total_s"]
    bound = doc["meta"]["lower_bound_at_root"]
    if not (math.isfinite(total) and (total >= bound or _close(total, bound))):
        problems.append(f"objective {total!r} below root bound {bound!r}")
    if case.brute_checkable:
        table = build_delay_table(instance, DelayOptions.from_doc(doc["options"]))
        exact = solve_brute_force(instance, table)
        if exact.plan is None or exact.plan.assignments != plan:
            problems.append(f"plan {plan} differs from brute force "
                            f"{exact.plan and exact.plan.assignments}")
    return problems


def check_simulation(case, plan_path: str, summary_path: str) -> list[str]:
    """Replay length is one compute and one transfer per layer and round,
    less the last transfer, and its end time is the plan objective."""
    with open(plan_path) as f:
        plan = json.load(f)
    with open(summary_path) as f:
        summary = json.load(f)
    L, n = case.shape["L"], case.tokens
    problems = []
    if summary["events"] != n * (2 * L - 1):
        problems.append(f"{summary['events']} events, expected {n * (2 * L - 1)}")
    if not _close(summary["completion_time_s"], plan["objective"]["total_s"]):
        problems.append("replay completion differs from plan objective")
    return problems


def quant_feasible_bits(case, report_path: str) -> list[tuple]:
    """Feasible widths per model layer, as the quantize report states them."""
    with open(report_path) as f:
        records = json.load(f)["records"]
    with open(case.model) as f:
        refs = [layer["weights"] for layer in json.load(f)["layers"]]
    kept = {ref: [] for ref in refs}
    for r in records:
        if r["feasible"]:
            kept[r["layer"]].append(r["bits"])
    return [sorted(kept[ref]) for ref in refs]


def check_quant_paths(case, report_path: str, plan_path: str) -> list[str]:
    """The report path (analyze_tensor) and the plan filter path
    (feasible_bits) must keep the same widths."""
    with open(plan_path) as f:
        planned = json.load(f)["options"]["feasible_bits"]
    reported = quant_feasible_bits(case, report_path)
    if reported != planned:
        return [f"quantize kept {reported}, plan kept {planned}"]
    return []


def check_lp(case, lp_path: str, plan_path) -> list[str]:
    """The exported file reparses to the in-memory model, and the plan (if
    any) satisfies every row with the plan's objective. Without a plan, the
    model is rebuilt from the widths the quantize report kept."""
    if plan_path is not None:
        with open(plan_path) as f:
            options = json.load(f)["options"]
    else:
        options = {"bits": list(BITS), "delta": float(case.delta), "tokens": case.tokens,
                   "feasible_bits": quant_feasible_bits(case, case.out("quant.json"))}
    instance = _instance(case, options)
    table = build_delay_table(instance, DelayOptions.from_doc(options))
    model = build_ilp(instance, table)
    with open(lp_path) as f:
        parsed = parse_lp(f.read())
    problems = []
    if parsed != model_as_parsed(model):
        problems.append("exported LP does not reparse to the built model")
    if plan_path is not None:
        with open(plan_path) as f:
            doc = json.load(f)
        _, obj, violated = substitute(model, _assignments(doc))
        if violated:
            problems.append(f"plan violates LP rows {violated[:5]}")
        if not _close(obj, doc["objective"]["total_s"]):
            problems.append(f"LP objective {obj!r} != plan {doc['objective']['total_s']!r}")
    return problems
