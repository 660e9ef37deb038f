"""One benchmark run in its own process: set up the workload's instance
pool, drive ``edgeplan.cli.main`` over it in a closed loop (one caller,
each command starts after the previous one returns), check every output,
and write the measurements as JSON. Started by run.py, which reads the
result and adds peak memory and provenance.

The work is fixed: one chain of commands per instance of the pool, whose
size --seconds sets. A traced run covers the pool's first cycle only.

Timings are calibrated for host speed. On shared cores the CPU speed
drifts by up to ~40 % over tens of seconds, which moves every timing
together and swamps the differences the benchmark must resolve. A fixed
probe runs before and after every timed step, and each step's wall time
is scaled by PROBE_REF_S over the median of the probes around it: times
are seconds at the host speed where the probe takes PROBE_REF_S. Raw wall
times are reported beside them.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import edgeplan.cli
import checks
import inputs
from tracing import EXACT_COUNTERS, Tracer, layer_times, span_counts

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 70, 60, 50)
PROBE_TABLE = {(i & 63, i >> 6): i * 0.5 for i in range(4096)}
PROBE_ROUNDS = 15
PROBE_ARRAY = np.arange(1 << 18, dtype=np.float64)
PROBE_PASSES = 3
PROBE_REF_S = 0.008  # probe median on an unloaded core of the 2-CPU Xeon host
PROBE_WINDOW = 2  # extra probes each side of a step's bracketing pair


def probe() -> float:
    """Seconds for a fixed amount of work of both kinds edgeplan does:
    tuple-keyed dict lookups with float sums (tables, search) and passes
    over a 2 MiB float array (quantizers). It allocates no objects the
    garbage collector tracks, so the heap the program left does not move
    it."""
    table = PROBE_TABLE
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(PROBE_ROUNDS):
        for key in table:
            acc += table[key]
    for _ in range(PROBE_PASSES):
        np.abs(PROBE_ARRAY * 0.5 - 3.0).max()
    return time.perf_counter() - t0


class Clock:
    """Probe series. Each timed step is bracketed by a probe before and one
    after, and records the index of the one after."""

    def __init__(self):
        self.probes = []

    def mark(self) -> int:
        self.probes.append(probe())
        return len(self.probes) - 1

    def factor(self, i: int) -> float:
        """Speed factor of the step whose closing probe is i."""
        window = self.probes[max(0, i - 1 - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        return PROBE_REF_S / statistics.median(window)


def setup(args, tracer, clock):
    """Generate the pool several times; each must give the same bytes.
    Returns the cases of the last generation, (traced, wall seconds, probe
    index) per generation, (call id, probe index) of each traced one, and
    the file digests.
    """
    times, gen_busy, digests, cases = [], [], [], None
    variants = [False, True] * 2 if tracer else [False] * SETUP_REPEATS
    for k, traced in enumerate(variants):
        root = os.path.join(args.workdir, f"inputs{k}")
        clock.mark()
        if traced:
            tracer.install()
            tracer.call_id = f"setup{k}"
        t0 = time.perf_counter()
        cases = inputs.write_pool(args.workload, args.seed, args.seconds, root)
        elapsed = time.perf_counter() - t0
        mark = clock.mark()
        if traced:
            tracer.uninstall()
            gen_busy.append((f"setup{k}", mark))
        times.append((traced, elapsed, mark))
        digests.append(inputs.tree_digest(root))
        if k:
            shutil.rmtree(os.path.join(args.workdir, f"inputs{k - 1}"))
    if any(d != digests[0] for d in digests):
        raise SystemExit("same-seed generation wrote different bytes")
    return cases, times, gen_busy, digests[-1]


def run_cli(argv, tracer, call_id):
    """One command; returns (exit code or None on a crash, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.call(call_id, "cli." + argv[0]):
                    code = edgeplan.cli.main(argv)
            else:
                code = edgeplan.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


def chain_commands(case) -> list[list[str]]:
    """argv per command: [quantize,] plan, simulate [, export-lp]."""
    shared = ["--cluster", case.cluster, "--model", case.model,
              "--bits", inputs.BITS_ARG, "--delta", case.delta,
              "--tokens", str(case.tokens)]
    if case.weights_dir:
        shared += ["--weights-dir", case.weights_dir]
    cmds = []
    if case.weights_dir:
        cmds.append(["quantize", "--weights-dir", case.weights_dir,
                     "--bits", inputs.BITS_ARG, "--delta", case.delta,
                     "--out", case.out("quant.json")])
    cmds.append(["plan", *shared, "--solver", "bnb", "--out", case.out("plan.json")])
    cmds.append(["simulate", "--plan", case.out("plan.json"),
                 "--cluster", case.cluster, "--model", case.model,
                 "--out", case.out("timeline.csv"), "--summary", case.out("summary.json")])
    if case.weights_dir:
        cmds.append(["export-lp", *shared, "--out", case.out("model.lp")])
    return cmds


class Session:
    def __init__(self, cases, tracer, clock):
        self.cases = cases
        self.tracer = tracer
        self.clock = clock
        self.ops: list[dict] = []
        self.chains: list[dict] = []
        self.problems: list[str] = []  # wrong outputs: the run is not correct
        self.case_counters: dict[int, dict] = {}
        self.first_plan: dict[int, str] = {}

    def fail(self, message: str) -> None:
        print(f"ERROR: {message}", file=sys.stderr)
        self.problems.append(message)

    def flag(self, op, problem: str) -> None:
        op["problems"].append(problem)
        self.fail(f"case {op['case']} {op['cmd']}: {problem}")

    def loop(self) -> None:
        """Every case once untraced. With tracing, each case once traced and
        once untraced (alternating which goes first), then a second time
        traced for the exact-counter repeat check."""
        if not self.tracer:
            for case in self.cases:
                self.run_chain(case, False)
            return
        for case in self.cases:
            for traced in ((True, False) if case.index % 2 == 0 else (False, True)):
                self.run_chain(case, traced)
        for case in self.cases:
            self.run_chain(case, True, repeat=True)

    def calibrate(self) -> None:
        for op in self.ops:
            op["seconds"] = op["wall_s"] * self.clock.factor(op["probe"])

    def run_chain(self, case, traced: bool, repeat: bool = False) -> None:
        tracer = self.tracer if traced else None
        for name in os.listdir(case.dir):
            if name.endswith((".lp", ".csv")) or name.startswith(("plan", "summary", "quant")):
                os.remove(case.out(name))
        chain = {"case": case.index, "traced": traced, "repeat": repeat, "ops": {}}
        if tracer:
            tracer.counters = Counter()
            tracer.root_gaps = []
            tracer.install()
        try:
            for argv in chain_commands(case):
                if argv[0] == "simulate" and chain["ops"]["plan"]["code"] != 0:
                    continue  # no plan to replay
                call_id = f"c{len(self.ops)}"
                self.clock.mark()
                code, elapsed, err = run_cli(argv, tracer, call_id)
                op = {"cmd": argv[0], "case": case.index, "call": call_id,
                      "code": code, "wall_s": elapsed, "probe": self.clock.mark(),
                      "stderr": err.strip()[-300:], "problems": []}
                if code is None:
                    self.flag(op, f"crashed: {op['stderr']}")
                self.ops.append(op)
                chain["ops"][argv[0]] = op
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            chain["counters"] = dict(tracer.counters)
            chain["root_gaps"] = list(tracer.root_gaps)
            self.check_counters(case, chain["counters"])
        self.check_chain(case, chain["ops"])
        self.chains.append(chain)

    def check_repeat(self, case, plan_path: str) -> list[str]:
        """Plans of the same inputs must be byte-identical but for
        meta.wall_time_s."""
        canon = checks.canonical_plan(plan_path)
        if self.first_plan.setdefault(case.index, canon) != canon:
            return ["plan differs from an earlier plan of the same inputs"]
        return []

    def replan(self) -> None:
        """Determinism check, untimed: plan the first solved case again."""
        for case in self.cases:
            if case.index in self.first_plan:
                argv = next(a for a in chain_commands(case) if a[0] == "plan")
                code, _, err = run_cli(argv, None, None)
                op = {"cmd": "plan", "case": case.index, "problems": []}
                if code != 0:
                    self.flag(op, f"second plan of the same inputs exited {code}: {err}")
                else:
                    self.check(op, self.check_repeat, case, case.out("plan.json"))
                return

    def check_counters(self, case, counters: dict) -> None:
        exact = {k: counters.get(k, 0) for k in EXACT_COUNTERS}
        seen = self.case_counters.setdefault(case.index, exact)
        if seen != exact:
            self.fail(f"case {case.index}: exact counters differ between "
                      f"chains on the same inputs: {seen} vs {exact}")

    def check(self, op, check, *args) -> None:
        """Run one check; a check that raises on the program's output is a
        failed check too."""
        try:
            problems = check(*args)
        except Exception as e:
            problems = [f"{check.__name__} raised {e!r}: "
                        + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
        for problem in problems:
            self.flag(op, problem)

    def check_chain(self, case, ops: dict) -> None:
        """The correctness gate, outside the timed region."""
        plan_path = case.out("plan.json") if ops["plan"]["code"] == 0 else None
        if plan_path:
            self.check(ops["plan"], checks.check_plan, case, plan_path)
            self.check(ops["plan"], self.check_repeat, case, plan_path)
        sim = ops.get("simulate")
        if sim and sim["code"] == 0:
            self.check(sim, checks.check_simulation, case, plan_path,
                       case.out("summary.json"))
        quant = ops.get("quantize")
        quant_ok = quant is not None and quant["code"] == 0
        if quant_ok and plan_path:
            self.check(quant, checks.check_quant_paths, case, case.out("quant.json"),
                       plan_path)
        lp = ops.get("export-lp")
        if lp and lp["code"] == 0 and (plan_path or quant_ok):
            self.check(lp, checks.check_lp, case, case.out("model.lp"), plan_path)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. Unlike a single order statistic it moves smoothly when
    the samples near the quantile shift, so a pool of a few dozen unequal
    instances does not make it jump between neighbours."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def timing(values, unit="s"):
    if not values:
        return None
    return {"value": quantile(values, 0.5), "unit": unit, "samples": len(values)}


def tail(values):
    """The highest percentile with at least ten samples beyond it; with
    fewer than 20 samples none has, and the maximum stands in (p100)."""
    if not values:
        return None
    p = next((p for p in TAIL_PERCENTILES if len(values) * (100 - p) / 100 >= 10), 100)
    value = max(values) if p == 100 else quantile(values, p / 100)
    return {"value": value, "unit": "s", "samples": len(values), "percentile": p}


def end_to_end(chains, key="seconds"):
    """End-to-end metrics over the given chains, from calibrated times or
    (key="wall_s") raw ones. Timings are taken over calls that exited 0;
    failed calls are counted, not timed."""
    ops = [op for c in chains for op in c["ops"].values()]

    def times(cmd):
        return [op[key] for op in ops if op["cmd"] == cmd and op["code"] == 0]
    plans = [op for op in ops if op["cmd"] == "plan"]
    first_plans = [c["ops"]["plan"] for c in chains]
    plan_wall = sum(op[key] for op in plans)
    failed = sum(op["code"] != 0 or bool(op["problems"]) for op in ops)
    chain_times = [sum(op[key] for op in c["ops"].values()) for c in chains
                   if all(op["code"] == 0 for op in c["ops"].values())]
    metrics = {
        "plan_s.p50": timing(times("plan")),
        "plan_s.tail": tail(times("plan")),
        "plans_per_s": {"value": sum(op["code"] == 0 for op in plans) / plan_wall,
                        "unit": "1/s", "samples": len(plans)},
        "solved_ratio": {"value": sum(op["code"] == 0 for op in first_plans)
                         / len(first_plans), "unit": "ratio",
                         "samples": len(first_plans)},
        "failed_ratio": {"value": failed / len(ops), "unit": "ratio",
                         "samples": len(ops)},
        "ok_ratio": {"value": 1 - failed / len(ops), "unit": "ratio",
                     "samples": len(ops)},
        "simulate_s.p50": timing(times("simulate")),
        "quantize_s.p50": timing(times("quantize")),
        "export_lp_s.p50": timing(times("export-lp")),
        "chain_s.p50": timing(chain_times),
    }
    return {k: v for k, v in metrics.items() if v is not None}


SPAN_METRICS = {
    "core.load_instance_s": "core.load_instance",
    "delay.build_table_s": "delay.build_table",
    "solver.bnb_s": "solver.bnb",
    "quant.load_tensor_s": "quant.load_tensor",
    "quant.feasible_bits_s": "quant.feasible_bits",
    "quant.analyze_tensor_s": "quant.analyze_tensor",
    "quant.distribution_stats_s": "quant.distribution_stats",
    "ilp.build_s": "ilp.build",
    "ilp.write_lp_s": "ilp.write_lp",
    "ilp.check_plan_s": "ilp.check_plan",
    "sim.simulate_s": "sim.simulate",
    "sim.timeline_s": "sim.timeline",
    "cli.digest_s": "cli.digest",
    "cli.self_s": "cli.self",
}


def per_layer(session, gen_busy):
    """Per-layer metrics over the traced chains (one per case): busy
    seconds summed over the pool, call counts and exact counters."""
    chains = [c for c in session.chains if c["traced"] and not c["repeat"]]
    factor = session.clock.factor
    calls = {op["call"]: factor(op["probe"]) for c in chains for op in c["ops"].values()}
    busy = layer_times(session.tracer.spans, calls)
    counts = span_counts(session.tracer.spans, calls)
    counters = Counter()
    gaps = []
    for c in chains:
        counters.update(c["counters"])
        gaps += c["root_gaps"]
    out = {k: {"value": busy.get(span, 0.0), "unit": "s"}
           for k, span in SPAN_METRICS.items()}
    out["gen.instance_s"] = {"value": statistics.median(
        layer_times(session.tracer.spans, {call: factor(i)})["gen.instance"]
        for call, i in gen_busy), "unit": "s"}
    out["core.load_instance.calls"] = {"value": counts["core.load_instance"], "unit": "count"}
    out["delay.build_table.calls"] = {"value": counts["delay.build_table"], "unit": "count"}
    for k in EXACT_COUNTERS:
        out[k] = {"value": counters.get(k, 0), "unit": "count"}
    out["solver.root_gap"] = {"value": statistics.median(gaps) if gaps else 0.0,
                              "unit": "ratio"}
    tested = counters.get("quant.bits_tested", 0)
    out["quant.bits_kept_ratio"] = {
        "value": counters.get("quant.bits_kept", 0) / tested if tested else 0.0,
        "unit": "ratio"}
    return out


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "edgeplan", "*.py"))):
        with open(path, "rb") as f:
            h.update(path.encode() + b"\0" + f.read())
    return h.hexdigest()


def compare_counter_record(session, workdir, digest) -> None:
    """Exact counters must also match those that earlier runs of the same
    code recorded for the same inputs."""
    path = os.path.join(os.path.dirname(workdir), "counters.json")
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    code = code_digest()
    for case in session.cases:
        prefix = f"case{case.index:03d}/"
        files = [v for k, v in digest.items() if k.startswith(prefix)]
        key = hashlib.sha256(json.dumps(
            [code, files, case.delta, case.tokens]).encode()).hexdigest()
        now = session.case_counters[case.index]
        if record.setdefault(key, now) != now:
            session.fail(f"case {case.index}: exact counters {now} differ from "
                         f"an earlier run of the same code: {record[key]}")
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    clock = Clock()
    cases, setup_times, gen_busy, digest = setup(args, tracer, clock)
    if tracer:
        cases = cases[:len(inputs.CYCLES[args.workload])]
    session = Session(cases, tracer, clock)
    session.loop()
    session.replan()
    session.calibrate()

    def setup_metric(traced, calibrated=True):
        values = [t * (clock.factor(i) if calibrated else 1.0)
                  for was_traced, t, i in setup_times if was_traced == traced]
        return {"value": statistics.median(values), "unit": "s", "samples": len(values)}

    untraced = [c for c in session.chains if not c["traced"]]
    e2e = end_to_end(untraced)
    e2e["setup_s"] = setup_metric(False)
    raw = end_to_end(untraced, key="wall_s")
    raw["setup_s"] = setup_metric(False, calibrated=False)
    result = {"end_to_end": e2e,
              "raw_wall": {k: v for k, v in raw.items() if v["unit"] in ("s", "1/s")},
              "probe_s.p50": statistics.median(clock.probes),
              "attempted": len(session.ops),
              "failed": sum(op["code"] != 0 or bool(op["problems"]) for op in session.ops),
              "exit_codes": dict(Counter(f"{op['cmd']}:{op['code']}" for op in session.ops)),
              "shapes": [c.shape for c in cases]}
    if tracer:
        compare_counter_record(session, args.workdir, digest)
        e2e_traced = end_to_end([c for c in session.chains
                                 if c["traced"] and not c["repeat"]])
        e2e_traced["setup_s"] = setup_metric(True)
        result["per_layer"] = per_layer(session, gen_busy)
        result["overhead"] = {k: e2e_traced[k]["value"] - v["value"]
                              for k, v in e2e.items()
                              if k in e2e_traced and v["unit"] == "s"}
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    result["ops"] = [{k: op[k] for k in ("cmd", "case", "code", "wall_s", "probe")}
                     for op in session.ops]
    result["probes"] = clock.probes
    result["setup_wall"] = setup_times
    result["correct"] = not session.problems
    result["problems"] = session.problems[:20]
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
