"""Command-line front end: instance generation, quantization analysis,
planning, replay simulation, and LP export.

Every command is deterministic given its files, flags, and seed. Exit
codes: 0 ok, 2 input error (a file that cannot be read or written too),
3 infeasible, 4 search budget exhausted, 5 plan/simulation mismatch,
6 input digest mismatch. A flag that breaks its rule is refused by the
flag's parser type (see _flag), as argparse's usage error, before any
file is read.

JSON documents are read, type-checked and written by ``core``; this
module declares the plan document's schemas and what each command writes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import glob
import math
import os
import sys

from . import __version__, ilp, quant
from .core import (REQUIRED, SCHEMA_VERSION, ParseError, ValidationError,
                   bit_menu_violations, delta_violations, hashing_reader, input_digest,
                   json_line, json_text, load_instance, load_json, read_bytes,
                   read_fields, read_finite, read_ints, read_records, require_valid,
                   save_instance, tokens_violations, write_outputs)
from .delay import (CP_SCALINGS, STORAGES, DelayOptions, build_delay_table,
                    check_plan_feasible)
from .gen import PROFILES, generate_instance
from .ilp import build_ilp
from .quant import SchemeKind, analyze_tensor, load_weight_tensor
from .sim import simulate, trace_to_timeline
from .solver import (DEFAULT_NODE_BUDGET, SizeLimit, solve_branch_and_bound,
                     solve_brute_force, solve_relaxed_dp)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_DIGEST = 6

# --scheme's choices and the scheme each forces; None: recommended per layer
SCHEMES = {"auto": None, "symmetric": SchemeKind.SYMMETRIC_SIGNED,
           "asymmetric": SchemeKind.ASYMMETRIC}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _flag(convert, rule=lambda value: []):
    """An argparse type: ``convert`` the flag's text, then refuse a value
    whose ``rule`` lists what it breaks, with the text of each. Either
    refusal is argparse's usage error, which names the flag; a ValueError
    left to argparse would print as "invalid <function name> value"."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        if broken := rule(value):
            raise argparse.ArgumentTypeError("; ".join(map(str, broken)))
        return value
    return parse


def _at_least(low: int):
    return _flag(int, lambda value: [f"must be >= {low}, got {value}"] if value < low else [])


_BITS = _flag(lambda text: tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()})),
              bit_menu_violations)
_DELTA = _flag(float, delta_violations)
_TOKENS = _flag(int, tokens_violations)
_DIRECTORY = _flag(str, lambda path: [] if os.path.isdir(path) else ["not a directory"])


def _file_key(path):
    """What names one file, as realpath would name it, without realpath's
    lstat of every path component: (st_dev, st_ino) of a file that is
    there, links followed; (st_dev, st_ino, name) of its directory for a
    path that is not there yet, a dangling link standing for the file it
    would create; and (realpath,) when that directory is missing too. Only
    a key of two members names a file that is there."""
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:
        pass
    if os.path.islink(path):
        path = os.path.realpath(path)
    head, name = os.path.split(path)
    try:
        st = os.stat(head or os.curdir)
    except OSError:
        return (os.path.realpath(path),)
    return st.st_dev, st.st_ino, name


def _refuse_overwrite(args) -> None:
    """CliError naming the flag when one of the command's ``outputs`` is the
    same file as another, as its --plan/--cluster/--model input, or as
    either file of a tensor pair in its --weights-dir (a <name>.json with a
    <name>.bin beside it), by _file_key. A tensor file is there, so the
    directory is listed only when some output is there too; the inputs are
    always keyed, since one that is missing can be named as a new output."""
    keys = {dest: _file_key(path) for dest in ("plan", "cluster", "model", *args.outputs)
            if (path := getattr(args, dest, None)) is not None}
    seen = {}
    wdir = getattr(args, "weights_dir", None)
    if wdir is not None and any(len(keys.get(dest, ())) == 2 for dest in args.outputs):
        for meta in glob.glob(os.path.join(glob.escape(wdir), "*.json")):
            if os.path.isfile(data := meta.removesuffix(".json") + ".bin"):
                seen.update(dict.fromkeys(map(_file_key, (meta, data)),
                                          "a weight tensor file in --weights-dir"))
    for dest, key in keys.items():
        flag = f"--{dest.replace('_', '-')}"
        if key in seen and dest in args.outputs:
            raise CliError(f"{flag} {getattr(args, dest)}: {seen[key]}")
        seen.setdefault(key, f"the same file as {flag}")


def _load_and_filter(args, read=read_bytes) -> tuple:
    """Shared plan/export-lp input path: load the inputs, their bytes got
    by ``read(path)``, validate, optionally narrow feasible bits from
    on-disk weight tensors. The narrowed sets need no second validation:
    quant.feasible_bits keeps a sorted subset of the menu, and a layer
    without weights keeps the whole menu."""
    bits, delta = args.bits, args.delta
    instance = load_instance(args.cluster, args.model, bit_menu=bits,
                             delta=delta, tokens=args.tokens, read=read)
    if args.weights_dir is not None:
        feas = tuple(bits if layer.weights_ref is None else quant.feasible_bits(
            load_weight_tensor(os.path.join(args.weights_dir, f"{layer.weights_ref}.json")),
            bits, delta, SCHEMES[args.scheme]) for layer in instance.model.layers)
        instance = dataclasses.replace(instance, feasible_bits=feas)
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


def _read_delta(value, where: str, *path) -> float:
    return math.inf if value == "inf" else read_finite(value, where, *path)


# The plan document's fields, read by simulate. A field of the wrong JSON
# type is an input error, and no boolean counts as a number. The top level
# is type-checked before the digest comparison, the fields inside it after.
_PLAN = (("digest", str, REQUIRED), ("assignments", list, REQUIRED),
         ("objective", dict, REQUIRED), ("options", dict, REQUIRED),
         ("relaxed", bool, False))
_OPTIONS = (("bits", read_ints, REQUIRED), ("delta", _read_delta, REQUIRED),
            ("tokens", int, REQUIRED), ("feasible_bits", list, REQUIRED))
_ASSIGNMENT = (("layer", int, REQUIRED), ("server", int, REQUIRED),
               ("bits", int, REQUIRED))
_OBJECTIVE = (("total_s", read_finite, REQUIRED),)


def _load_from_options(cluster_path, model_path, doc, path, read=read_bytes) -> tuple:
    """The instance and DelayOptions a plan's options block records, the
    input files' bytes got by ``read(path)``: the inverse of
    _load_and_filter. feasible_bits holds one list of integers per layer,
    and the rest of the block is a DelayOptions record."""
    where = str(path)
    bits, delta, tokens, rows = read_fields(doc, _OPTIONS, where, "options")
    feasible = [read_ints(row, where, "options", "feasible_bits", k)
                for k, row in enumerate(rows)]
    options = DelayOptions.from_doc(doc, where, "options")
    instance = load_instance(cluster_path, model_path, bit_menu=bits, delta=delta,
                             tokens=tokens, feasible_bits=feasible, read=read)
    return instance, options


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.layers > args.servers:
        raise CliError(f"--layers {args.layers} > --servers {args.servers}: "
                       "no one-layer-per-server placement can exist")
    instance = generate_instance(args.seed, args.servers, args.layers,
                                 profile=args.profile)
    require_valid(instance)  # -l 0, or a generator bug
    os.makedirs(args.out_dir, exist_ok=True)
    cluster_path = os.path.join(args.out_dir, "cluster.json")
    model_path = os.path.join(args.out_dir, "model.json")
    save_instance(instance, cluster_path, model_path)
    print(f"wrote {cluster_path} and {model_path}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    # the command's own report and stats, written there by an earlier run,
    # are no tensors
    own = {_file_key(path) for path in (args.out, args.stats_out) if path is not None}
    pattern = os.path.join(glob.escape(args.weights_dir), "*.json")
    metas = [path for path in sorted(glob.glob(pattern)) if _file_key(path) not in own]
    if not metas:
        raise CliError(
            f"no weight tensors in {args.weights_dir}; expected <name>.json "
            "metadata ({\"name\",\"shape\",\"dtype\":\"f32\",\"order\":\"row-major\"}) "
            "plus <name>.bin little-endian float32 data")
    # the moments and histogram only go to --stats-out
    bins = args.bins if args.stats_out else None
    records, stats_docs = [], []
    numerator = denominator = 0.0
    for path in metas:
        try:
            w = load_weight_tensor(path)
        except ParseError as e:
            print(f"error: {e}", file=sys.stderr)
            continue
        recs, stats = analyze_tensor(w, args.bits, args.delta, SCHEMES[args.scheme],
                                      bins=bins)
        feas = [r.bits for r in recs if r.feasible]
        records += ({"layer": r.layer_name, "bits": r.bits, "scheme": r.scheme.value,
                     "scale": r.scale, "zero_point": r.zero_point,
                     "max_abs_error": r.max_abs_error, "feasible": r.feasible} for r in recs)
        if args.stats_out:
            stats_docs.append({
                "layer": stats.layer_name, "count": stats.count,
                "min": stats.min, "max": stats.max, "mean": stats.mean,
                "std": stats.std, "skewness": stats.skewness,
                "histogram": {"bin_edges": list(stats.bin_edges),
                              "counts": list(stats.counts)},
            })
        stored_bits = 8 * w.values.itemsize
        numerator += (min(feas) if feas else stored_bits) * w.values.size
        denominator += stored_bits * w.values.size
        feas_str = ",".join(map(str, feas)) if feas else "-"
        print(f"{w.layer_name}: feasible bits {{{feas_str}}}")
        del w  # unmap it before the next tensor is mapped (see quant's docstring)
    if not records:
        raise CliError(f"no usable weight tensors in {args.weights_dir}")
    print(f"quantization ratio: {100 * (numerator / denominator):.2f}%")
    outputs = [(args.out, json_text({"schema_version": SCHEMA_VERSION,
                                     "records": records}))]
    if args.stats_out:
        outputs.append((args.stats_out, json_text({
            "schema_version": SCHEMA_VERSION, "layers": stats_docs})))
    write_outputs(*outputs)
    return EXIT_OK


def _no_plan(status: str = "infeasible", **fields) -> int:
    """The record plan and export-lp print on stdout when they make no
    plan, one JSON line, and its exit code: 4 when the search budget ran
    out, 3 when no plan exists. An infeasible record names the layer that
    has no admissible (server, width), if one has none, and gives a reason."""
    if status == "infeasible":
        layer = fields.get("layer")
        fields.setdefault("reason", f"layer {layer} has no feasible (server, bits) placement"
                          if layer is not None else
                          "no feasible placement under the distinct-server, storage, "
                          "link, and bit-feasibility constraints")
    print(json_line({"status": status, **fields}))
    return EXIT_BUDGET if status == "budget_exceeded" else EXIT_INFEASIBLE


def cmd_plan(args) -> int:
    read, inputs = hashing_reader()  # the input files, hashed as the loader reads them
    instance, options, options_doc = _load_and_filter(args, read)
    table = build_delay_table(instance, options)
    if (empty := table.unplaceable_layer()) is not None:
        return _no_plan(layer=empty)

    def write_plan(assignments, objective: dict, meta: dict, **extra) -> None:
        """The one plan document; each solver supplies its objective and
        meta fields, the relaxed DP also its flag."""
        write_outputs((args.out, json_text({
            "schema_version": SCHEMA_VERSION,
            "digest": input_digest(inputs, options_doc),
            "solver": args.solver,
            "assignments": [{"layer": l, "server": i, "bits": b}
                            for l, (i, b) in enumerate(assignments)],
            "objective": objective,
            "options": options_doc,
            "meta": {**meta, "tool_version": __version__},
            **extra,
        })))

    if args.solver == "relaxed":
        bound, path = solve_relaxed_dp(table)
        if path is None:
            return _no_plan(reason="no layered path: no chain of links joins a host "
                                   "of each layer, server reuse allowed")
        write_plan(path, {"lower_bound_s": bound}, {}, relaxed=True)
        print(f"lower bound: {bound!r} s (server reuse allowed)")
        return EXIT_OK

    if args.solver == "brute":
        try:
            result = solve_brute_force(instance, table)
        except SizeLimit as e:
            raise CliError(f"--solver brute: {e}")
    else:
        result = solve_branch_and_bound(table, args.budget)
    if result.status == "infeasible":
        return _no_plan()
    if result.status == "budget_exceeded":
        return _no_plan("budget_exceeded", budget=args.budget,
                        incumbent_s=result.objective if result.plan is not None else None,
                        lower_bound_s=result.lower_bound_at_root)
    violations = check_plan_feasible(result.plan.assignments, instance, options)
    if violations:  # solver bug guard, should be unreachable
        raise CliError("solver emitted infeasible plan: "
                       + "; ".join(map(str, violations)), EXIT_MISMATCH)
    write_plan(result.plan.assignments, {
        "total_s": result.plan.total_delay,
        "compute_s": result.plan.compute_delay,
        "comm_s": result.plan.comm_delay,
    }, {
        "nodes_explored": result.nodes_explored,
        "expansions": result.expansions,
        "lower_bound_at_root": result.lower_bound_at_root,
        "wall_time_s": result.wall_time,
    })
    print(f"objective: {result.plan.total_delay!r} s "
          f"(compute {result.plan.compute_delay!r}, comm {result.plan.comm_delay!r})")
    return EXIT_OK


def _replay_inputs(entries: list, objective: dict, L: int, where: str) -> tuple[tuple, float]:
    """The plan's (server, bits) pairs in layer order and its claimed total;
    the layers must be 0..L-1 once each. A well-formed plan that names an
    unknown server or an infeasible width is left to the plan checker,
    which reports a mismatch."""
    rows = sorted(zip(*read_records(entries, _ASSIGNMENT, where, "assignments")))
    if [layer for layer, _, _ in rows] != list(range(L)):
        raise CliError(f"{where}: assignment layers must be 0..{L - 1}, once each")
    (claimed,) = read_fields(objective, _OBJECTIVE, where, "objective")
    return tuple((server, bits) for _, server, bits in rows), claimed


def cmd_simulate(args) -> int:
    doc = load_json(args.plan)
    digest, entries, objective, options_doc, relaxed = read_fields(doc, _PLAN, args.plan)
    if relaxed:
        raise CliError("relaxed documents carry a bound, not a runnable plan")
    # both input files read, once, and hashed before either is parsed: an
    # input changed since the plan was made is a digest mismatch
    read, inputs = hashing_reader()
    held = {path: read(path) for path in (args.cluster, args.model)}
    if input_digest(inputs, options_doc) != digest:
        print("digest mismatch: plan was produced from different inputs or flags",
              file=sys.stderr)
        return EXIT_DIGEST
    instance, options = _load_from_options(args.cluster, args.model, options_doc,
                                           args.plan, held.__getitem__)
    assignments, claimed = _replay_inputs(entries, objective, instance.model.num_layers,
                                          args.plan)
    violations = check_plan_feasible(assignments, instance, options)
    if violations:
        print("mismatch: plan cannot be replayed: " + "; ".join(map(str, violations)),
              file=sys.stderr)
        return EXIT_MISMATCH
    trace = simulate(assignments, instance, options)
    completion = trace.completion_time
    if completion != claimed:  # claimed is finite: an inf or NaN replay differs
        print(f"mismatch: simulated {completion!r} s vs "
              f"plan objective {claimed!r} s", file=sys.stderr)
        return EXIT_MISMATCH
    events = trace.rounds * len(trace.events)
    outputs = [(args.out, trace_to_timeline(trace))]
    if args.summary:
        outputs.append((args.summary, json_text({
            "schema_version": SCHEMA_VERSION,
            "completion_time_s": completion,
            "events": events,
            "rounds": trace.rounds,
            "round_s": trace.round_time,
        })))
    write_outputs(*outputs)
    print(f"completion: {completion!r} s, {events} events")
    return EXIT_OK


def cmd_export_lp(args) -> int:
    instance, options, _ = _load_and_filter(args)
    table = build_delay_table(instance, options)
    if (empty := table.unplaceable_layer()) is not None:
        return _no_plan(layer=empty)
    model = build_ilp(instance, table)
    write_outputs((args.out, ilp.write_lp(model)))
    print(f"wrote {args.out}: {len(model.binaries)} binaries, "
          f"{len(model.constraints)} constraints")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_shared_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bits", type=_BITS, required=True, help="comma-separated bit menu")
    p.add_argument("--delta", type=_DELTA, default="inf", help="max weight error (or 'inf')")
    p.add_argument("--tokens", type=_TOKENS, default=1)
    p.add_argument("--weights-dir", type=_DIRECTORY,
                   help="narrow feasible bits from weight tensors")
    p.add_argument("--scheme", choices=SCHEMES, default="auto")
    p.add_argument("--cp-scaling", choices=CP_SCALINGS, default="with_pl")
    p.add_argument("--activation-payload", choices=["per_token", "output_size"],
                   default="per_token")
    p.add_argument("--storage", choices=STORAGES, default="compact")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves no state in the parser."""
    parser = argparse.ArgumentParser(
        prog="edgeplan",
        description="Joint layer placement and quantization planning "
                    "for edge inference")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic cluster + model")
    p.add_argument("--seed", type=_flag(int), required=True)
    p.add_argument("--servers", "-m", type=_at_least(0), required=True)
    p.add_argument("--layers", "-l", type=_at_least(0), required=True)
    p.add_argument("--profile", choices=list(PROFILES), default="uniform")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen, outputs=())

    p = sub.add_parser("quantize", help="per-layer quantization error analysis")
    p.add_argument("--weights-dir", type=_DIRECTORY, required=True)
    p.add_argument("--bits", type=_BITS, required=True)
    p.add_argument("--delta", type=_DELTA, required=True)
    p.add_argument("--scheme", choices=SCHEMES, default="auto")
    p.add_argument("--bins", type=_at_least(1), default=32,
                   help="histogram bins in the --stats-out document")
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out")
    p.set_defaults(func=cmd_quantize, outputs=("out", "stats_out"))

    p = sub.add_parser("plan", help="solve the placement problem")
    _add_shared_plan_args(p)
    p.add_argument("--solver", choices=["brute", "bnb", "relaxed"],
                   default="bnb")
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET,
                   help="search budget in expansions (children examined, not "
                        f"leaves) for --solver bnb (default {DEFAULT_NODE_BUDGET})")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan, outputs=("out",))

    p = sub.add_parser("simulate", help="replay a plan and cross-check it")
    p.add_argument("--plan", required=True)
    p.add_argument("--cluster", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="timeline CSV path")
    p.add_argument("--summary", help="summary JSON path")
    p.set_defaults(func=cmd_simulate, outputs=("out", "summary"))

    p = sub.add_parser("export-lp", help="write the model in LP text format")
    _add_shared_plan_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_lp, outputs=("out",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_overwrite(args)  # before any command reads or writes a file
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ParseError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as e:  # every command writes its outputs last
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
