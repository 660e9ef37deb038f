"""Command-line front end: instance generation, quantization analysis,
planning, replay simulation, and LP export.

Every command is deterministic given its files, flags, and seed. Exit
codes: 0 ok, 2 input error, 3 infeasible, 4 search budget exhausted,
5 plan/simulation mismatch, 6 input digest mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import math
import os
import sys

from . import __version__, quant
from .core import (InvalidBits, ParseError, ValidationError, check_bits, load_instance,
                   require_valid, save_instance, validate_instance)
from .delay import DelayOptions, build_delay_table
from .gen import PROFILES, generate_instance
from .ilp import EmptyFeasibleSet, build_ilp, check_plan_feasible, export_lp
from .quant import SchemeKind, analyze_tensor, load_weight_tensor
from .sim import InfeasiblePlan, simulate, trace_to_timeline
from .solver import (DEFAULT_NODE_BUDGET, solve_branch_and_bound,
                     solve_brute_force, solve_relaxed_dp)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_DIGEST = 6

PLAN_SCHEMA_VERSION = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _write_json(path, doc) -> None:
    # serialise first, so a non-finite value never leaves a partial file
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")


def _parse_bits(text: str) -> tuple[int, ...]:
    try:
        bits = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as e:
        raise CliError(f"--bits: {e}")
    if not bits:
        raise CliError("--bits: empty menu")
    try:
        check_bits(bits[0])
        check_bits(bits[-1])
    except InvalidBits as e:
        raise CliError(f"--bits: {e}")
    return bits


def _parse_delta(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError as e:
        raise CliError(f"--delta: {e}")
    if not value >= 0:  # also rejects NaN
        raise CliError(f"--delta must be >= 0 or 'inf', got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _budget(args) -> int:
    """The search budget: --budget, else EDGEPLAN_BUDGET, else the default.
    Either source must be an integer >= 1."""
    for source, text in (("--budget", args.budget),
                         ("EDGEPLAN_BUDGET", os.environ.get("EDGEPLAN_BUDGET"))):
        if text is not None:
            try:
                return _positive_int(text)
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise CliError(f"{source}: {e}")
    return DEFAULT_NODE_BUDGET


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def input_digest(cluster_path, model_path, options_doc: dict) -> str:
    """sha256 over the two input files plus the canonical option record."""
    h = hashlib.sha256()
    for path in (cluster_path, model_path):
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\x00")
    h.update(json.dumps(options_doc, sort_keys=True).encode())
    return h.hexdigest()


def _load_and_filter(args) -> tuple:
    """Shared plan/export-lp input path: load, validate, optionally narrow
    feasible bits from on-disk weight tensors."""
    bits = _parse_bits(args.bits)
    delta = _parse_delta(args.delta)
    instance = load_instance(args.cluster, args.model, bit_menu=bits,
                             delta=delta, tokens=args.tokens)
    if args.weights_dir is not None:
        if not os.path.isdir(args.weights_dir):
            raise CliError(f"--weights-dir {args.weights_dir}: not a directory")
        scheme = _forced_scheme(args.scheme)  # None: recommended per layer
        feas = []
        for layer in instance.model.layers:
            ref = layer.weights_ref
            if ref is None:
                feas.append(tuple(bits))
                continue
            path = os.path.join(args.weights_dir, f"{ref}.json")
            w = load_weight_tensor(path)
            feas.append(quant.feasible_bits(w, bits, delta, scheme))
        instance = require_valid(dataclasses.replace(instance, feasible_bits=tuple(feas)))
    options = DelayOptions(cp_scaling=args.cp_scaling,
                           per_token_activation=args.activation_payload == "per_token",
                           storage=args.storage)
    options_doc = {
        "bits": list(instance.bit_menu),
        "delta": instance.delta if math.isfinite(instance.delta) else "inf",
        "tokens": instance.tokens,
        "feasible_bits": [list(fb) for fb in instance.feasible_bits],
        **options.to_doc(),
    }
    return instance, options, options_doc


def _is_finite_number(value) -> bool:
    """An int or float (not a bool) within the finite float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _load_from_options(cluster_path, model_path, doc, path) -> tuple:
    """The instance and DelayOptions a plan's options block records: the
    inverse of _load_and_filter.

    A malformed block is an input error. bits must be a list of integers,
    delta a finite number or "inf", tokens an integer and feasible_bits one
    list of integers per layer, where no boolean counts as a number; the
    rest of the block must be a valid DelayOptions record.
    """
    def int_list(value) -> bool:
        return isinstance(value, list) and all(type(v) is int for v in value)

    if not isinstance(doc, dict):
        raise CliError(f"{path}: 'options' must be an object")
    for key in ("bits", "delta", "tokens", "feasible_bits"):
        if key not in doc:
            raise CliError(f"{path}: options: missing key '{key}'")
    bits, delta, tokens, feasible = (doc[key] for key in
                                     ("bits", "delta", "tokens", "feasible_bits"))
    if not int_list(bits):
        raise CliError(f"{path}: options.bits must be a list of integers")
    if delta != "inf" and not _is_finite_number(delta):
        raise CliError(f"{path}: options.delta must be a finite number or \"inf\"")
    if type(tokens) is not int:
        raise CliError(f"{path}: options.tokens must be an integer")
    if not (isinstance(feasible, list) and all(int_list(fb) for fb in feasible)):
        raise CliError(f"{path}: options.feasible_bits must be a list of integer lists")
    try:
        options = DelayOptions.from_doc(doc)
    except ValueError as e:
        raise CliError(f"{path}: options: {e}")
    instance = load_instance(cluster_path, model_path, bit_menu=bits,
                             delta=math.inf if delta == "inf" else delta,
                             tokens=tokens, feasible_bits=feasible)
    if len(feasible) != instance.model.num_layers:
        raise CliError(f"{path}: options.feasible_bits has {len(feasible)} entries "
                       f"for {instance.model.num_layers} layers")
    return instance, options


def _forced_scheme(text):
    if text in (None, "auto"):
        return None
    return SchemeKind.SYMMETRIC_SIGNED if text == "symmetric" else SchemeKind.ASYMMETRIC


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.layers > args.servers:
        raise CliError(f"--layers {args.layers} > --servers {args.servers}: "
                       "no one-layer-per-server placement can exist")
    bits = _parse_bits(args.bits)
    if args.profile not in PROFILES:
        raise CliError(f"--profile must be one of {PROFILES}")
    instance = generate_instance(args.seed, args.servers, args.layers, bits,
                                 args.profile, tokens=args.tokens)
    violations = [v for v in validate_instance(instance)
                  if v.code != "MoreLayersThanServers"]
    if violations:  # generator bug, not user error
        raise CliError("generated instance invalid: " + "; ".join(map(str, violations)))
    os.makedirs(args.out_dir, exist_ok=True)
    cluster_path = os.path.join(args.out_dir, "cluster.json")
    model_path = os.path.join(args.out_dir, "model.json")
    save_instance(instance, cluster_path, model_path)
    print(f"wrote {cluster_path} and {model_path}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    bits = _parse_bits(args.bits)
    delta = _parse_delta(args.delta)
    scheme = _forced_scheme(args.scheme)
    metas = sorted(glob.glob(os.path.join(args.weights_dir, "*.json")))
    if not metas:
        raise CliError(
            f"no weight tensors in {args.weights_dir}; expected <name>.json "
            "metadata ({\"name\",\"shape\",\"dtype\":\"f32\",\"order\":\"row-major\"}) "
            "plus <name>.bin little-endian float32 data")
    records, stats_docs, failures = [], [], []
    numerator = denominator = 0.0
    for path in metas:
        try:
            w = load_weight_tensor(path)
        except ParseError as e:
            failures.append(str(e))
            print(f"error: {e}", file=sys.stderr)
            continue
        recs, stats = analyze_tensor(w, bits, delta, scheme, bins=args.bins,
                                     skew_threshold=args.skew_threshold)
        feas = [r.bits for r in recs if r.feasible]
        for r in recs:
            records.append({
                "layer": r.layer_name, "bits": r.bits,
                "scheme": r.scheme.value, "scale": r.scale,
                "zero_point": r.zero_point,
                "max_abs_error": r.max_abs_error, "feasible": r.feasible,
            })
        stats_docs.append({
            "layer": stats.layer_name, "count": stats.count,
            "min": stats.min, "max": stats.max, "mean": stats.mean,
            "std": stats.std, "skewness": stats.skewness,
            "histogram": {"bin_edges": list(stats.bin_edges),
                          "counts": list(stats.counts)},
        })
        original_bits = args.original_precision
        numerator += (min(feas) if feas else original_bits) * w.values.size
        denominator += original_bits * w.values.size
        feas_str = ",".join(map(str, feas)) if feas else "-"
        print(f"{w.layer_name}: feasible bits {{{feas_str}}}")
    if denominator > 0:
        ratio = numerator / denominator
        print(f"quantization ratio: {100 * ratio:.2f}%")
    _write_json(args.out, {"schema_version": PLAN_SCHEMA_VERSION,
                           "records": records})
    if args.stats_out:
        _write_json(args.stats_out, {"schema_version": PLAN_SCHEMA_VERSION,
                                     "layers": stats_docs})
    return EXIT_OK


def cmd_plan(args) -> int:
    instance, options, options_doc = _load_and_filter(args)
    table = build_delay_table(instance, options)
    budget = _budget(args)

    if args.solver == "relaxed":
        bound, path = solve_relaxed_dp(instance, table)
        if path is None:
            raise CliError("no layered path exists", EXIT_INFEASIBLE)
        doc = {
            "schema_version": PLAN_SCHEMA_VERSION,
            "digest": input_digest(args.cluster, args.model, options_doc),
            "solver": "relaxed",
            "relaxed": True,
            "assignments": [{"layer": l, "server": i, "bits": b}
                            for l, (i, b) in enumerate(path)],
            "objective": {"lower_bound_s": bound},
            "options": options_doc,
            "meta": {"tool_version": __version__},
        }
        _write_json(args.out, doc)
        print(f"lower bound: {bound!r} s (server reuse allowed)")
        return EXIT_OK

    if args.solver == "brute":
        result = solve_brute_force(instance, table)
    else:
        result = solve_branch_and_bound(instance, table, budget)
    if result.status == "infeasible":
        print(json.dumps({"status": "infeasible",
                          "reason": "no feasible placement under the "
                                    "distinct-server, storage, link, and "
                                    "bit-feasibility constraints"}))
        return EXIT_INFEASIBLE
    if result.status == "budget_exceeded":
        print(json.dumps({
            "status": "budget_exceeded", "budget": budget,
            "incumbent_s": result.objective if result.plan is not None else None,
            "lower_bound_s": (result.lower_bound_at_root
                              if math.isfinite(result.lower_bound_at_root) else None),
        }, allow_nan=False))
        return EXIT_BUDGET
    violations = check_plan_feasible(result.plan.assignments, instance, options)
    if violations:  # solver bug guard, should be unreachable
        raise CliError("solver emitted infeasible plan: "
                       + "; ".join(map(str, violations)), EXIT_MISMATCH)
    doc = {
        "schema_version": PLAN_SCHEMA_VERSION,
        "digest": input_digest(args.cluster, args.model, options_doc),
        "solver": args.solver,
        "assignments": [{"layer": l, "server": i, "bits": b}
                        for l, (i, b) in enumerate(result.plan.assignments)],
        "objective": {
            "total_s": result.plan.total_delay,
            "compute_s": result.plan.compute_delay,
            "comm_s": result.plan.comm_delay,
        },
        "options": options_doc,
        "meta": {
            "nodes_explored": result.nodes_explored,
            "expansions": result.expansions,
            "lower_bound_at_root": result.lower_bound_at_root,
            "wall_time_s": result.wall_time,
            "tool_version": __version__,
        },
    }
    _write_json(args.out, doc)
    print(f"objective: {result.plan.total_delay!r} s "
          f"(compute {result.plan.compute_delay!r}, comm {result.plan.comm_delay!r})")
    return EXIT_OK


def _replay_inputs(doc: dict, num_layers: int, path) -> tuple[tuple, float]:
    """The plan's (server, bits) pairs in layer order and its claimed total.

    A malformed document is an input error: every assignment needs integer
    (not boolean) layer, server and bits, the layers must be 0..L-1 once
    each, and objective.total_s must be a finite number. A well-formed plan
    that names an unknown server or an infeasible width is left to the
    replay, which reports a mismatch.
    """
    entries = doc["assignments"]
    if not isinstance(entries, list) or not all(isinstance(a, dict) for a in entries):
        raise CliError(f"{path}: 'assignments' must be a list of objects")
    for a in entries:
        for key in ("layer", "server", "bits"):
            if type(a.get(key)) is not int:  # also rejects bools and missing keys
                raise CliError(f"{path}: assignment {a}: '{key}' must be an integer")
    ordered = sorted(entries, key=lambda a: a["layer"])
    if [a["layer"] for a in ordered] != list(range(num_layers)):
        raise CliError(f"{path}: assignment layers must be 0..{num_layers - 1}, once each")
    objective = doc["objective"]
    claimed = objective.get("total_s") if isinstance(objective, dict) else None
    if not _is_finite_number(claimed):
        raise CliError(f"{path}: objective.total_s must be a finite number")
    return tuple((a["server"], a["bits"]) for a in ordered), float(claimed)


def cmd_simulate(args) -> int:
    try:
        with open(args.plan) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"{args.plan}: {e}")
    if not isinstance(doc, dict):
        raise CliError(f"{args.plan}: not a plan document")
    for key in ("digest", "assignments", "objective", "options"):
        if key not in doc:
            raise CliError(f"{args.plan}: missing key '{key}'")
    if doc.get("relaxed"):
        raise CliError("relaxed documents carry a bound, not a runnable plan")
    options_doc = doc["options"]
    if input_digest(args.cluster, args.model, options_doc) != doc["digest"]:
        print("digest mismatch: plan was produced from different inputs or flags",
              file=sys.stderr)
        return EXIT_DIGEST
    instance, options = _load_from_options(args.cluster, args.model, options_doc, args.plan)
    assignments, claimed = _replay_inputs(doc, instance.model.num_layers, args.plan)
    try:
        trace = simulate(assignments, instance, options)
    except InfeasiblePlan as e:
        print(f"mismatch: plan cannot be replayed: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    scale = max(abs(claimed), abs(trace.completion_time), 1e-300)
    if abs(trace.completion_time - claimed) > 1e-9 * scale:
        print(f"mismatch: simulated {trace.completion_time!r} s vs "
              f"plan objective {claimed!r} s", file=sys.stderr)
        return EXIT_MISMATCH
    with open(args.out, "w") as f:
        f.write("\n".join(trace_to_timeline(trace)) + "\n")
    if args.summary:
        _write_json(args.summary, {
            "schema_version": PLAN_SCHEMA_VERSION,
            "completion_time_s": trace.completion_time,
            "events": trace.ends.size,
            "rounds": instance.tokens,
        })
    print(f"completion: {trace.completion_time!r} s, {trace.ends.size} events")
    return EXIT_OK


def cmd_export_lp(args) -> int:
    instance, options, _ = _load_and_filter(args)
    table = build_delay_table(instance, options)
    try:
        model = build_ilp(instance, table)
    except EmptyFeasibleSet as e:
        print(json.dumps({"status": "infeasible", "layer": e.layer,
                          "reason": str(e)}))
        return EXIT_INFEASIBLE
    export_lp(model, args.out)
    print(f"wrote {args.out}: {len(model.binaries)} binaries, "
          f"{len(model.constraints)} constraints")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_shared_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bits", required=True, help="comma-separated bit menu")
    p.add_argument("--delta", default="inf", help="max weight error (or 'inf')")
    p.add_argument("--tokens", type=int, default=1)
    p.add_argument("--weights-dir", help="narrow feasible bits from weight tensors")
    p.add_argument("--scheme", choices=["auto", "symmetric", "asymmetric"],
                   default="auto")
    p.add_argument("--cp-scaling", choices=["with_pl", "without_pl"],
                   default="with_pl")
    p.add_argument("--activation-payload", choices=["per_token", "output_size"],
                   default="per_token")
    p.add_argument("--storage", choices=["compact", "literal"], default="compact")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeplan",
        description="Joint layer placement and quantization planning "
                    "for edge inference")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic cluster + model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--servers", "-m", type=int, required=True)
    p.add_argument("--layers", "-l", type=int, required=True)
    p.add_argument("--bits", default="4,8,16")
    p.add_argument("--tokens", type=int, default=8)
    p.add_argument("--profile", choices=list(PROFILES), default="uniform")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("quantize", help="per-layer quantization error analysis")
    p.add_argument("--weights-dir", required=True)
    p.add_argument("--bits", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--scheme", choices=["auto", "symmetric", "asymmetric"],
                   default="auto")
    p.add_argument("--bins", type=_positive_int, default=32,
                   help="histogram bins in the --stats-out document")
    p.add_argument("--skew-threshold", type=_non_negative_float,
                   default=quant.SKEW_THRESHOLD)
    p.add_argument("--original-precision", type=_positive_int, default=32)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("plan", help="solve the placement problem")
    _add_shared_plan_args(p)
    p.add_argument("--solver", choices=["brute", "bnb", "relaxed"],
                   default="bnb")
    p.add_argument("--budget",
                   help="search budget in expansions (children examined, not "
                        "leaves) for --solver bnb (default env EDGEPLAN_BUDGET "
                        f"or {DEFAULT_NODE_BUDGET})")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="replay a plan and cross-check it")
    p.add_argument("--plan", required=True)
    p.add_argument("--cluster", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="timeline CSV path")
    p.add_argument("--summary", help="summary JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export-lp", help="write the model in LP text format")
    _add_shared_plan_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_lp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
