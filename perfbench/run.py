#!/usr/bin/env python3
"""edgeplan benchmark: drives the real CLI (``edgeplan.cli.main``) on three
seeded workloads and checks every output.

    python3 perfbench/run.py --workload {wide,deep,artifacts} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. Each run starts one fresh child process
(perfbench/session.py) with one numeric thread and EDGEPLAN_BUDGET unset,
waits for it, and reports its peak resident memory. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints per-layer metrics from spans
recorded around the calls into each edgeplan module, plus the tracing
overhead (traced minus untraced, measured in the same run). Times are
calibrated to a reference host speed (see session.py); raw wall times are
printed beside them. The last line of standard output is a JSON object
with correct, attempted, failed and metrics. Inputs, spans and the full
result (with provenance) go to .perfbench_work/.

A failed operation is a non-zero exit or a failed output check; both count
in "failed". "correct" is false only when an output is wrong: a check
failed on a command that exited 0, a repeat differed, or a command crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NO_WAIT_NOTE = ("waiting: none measured - edgeplan is single-threaded with no "
                "queues or I/O concurrency, so no layer waits on another")


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EDGEPLAN_BUDGET", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def report(name, metrics) -> None:
    for key, m in sorted(metrics.items()):
        extra = f"  p{m['percentile']:g}" if "percentile" in m else ""
        samples = f"  n={m['samples']}" if "samples" in m else ""
        print(f"  {name}.{key:<28} {m['value']:<14.6g} {m['unit']:<6}{samples}{extra}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "edgeplan", "cli.py")):
        print("error: src/edgeplan not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.abspath(os.path.join(
        WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out_path]
    child = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if code != 0 or not os.path.exists(out_path):
        print(f"error: benchmark session exited {code}", file=sys.stderr)
        return 3
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(out_path) as f:
        result = json.load(f)
    for name in os.listdir(workdir):
        if name.startswith("inputs"):
            shutil.rmtree(os.path.join(workdir, name))

    e2e = result["end_to_end"]
    e2e["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB", "samples": 1}
    result["provenance"] = {
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "shapes": result["shapes"],
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    prov = {k: v for k, v in result["provenance"].items() if k != "shapes"}
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print("shapes (M, L, links, tokens, delta): " + " ".join(
        f"{s['M']}/{s['L']}/{s.get('density', 1.0)}/{s['tokens']}/{float(s['delta']):.3g}"
        for s in result["shapes"]))
    print(f"workload {args.workload} seed {args.seed}: exit codes "
          f"{json.dumps(result['exit_codes'], sort_keys=True)}")
    print("end-to-end" + (" (untraced half of the traced run)" if args.trace else "")
          + f", seconds at reference host speed (probe median {result['probe_s.p50']:.5f} s)")
    report(args.workload, e2e)
    print("raw wall times")
    report(args.workload, result["raw_wall"])
    for problem in result["problems"]:
        print(f"  problem: {problem}")

    if args.trace:
        layers = result["per_layer"]
        for key, value in result["overhead"].items():
            layers[f"trace_overhead.{key}"] = {"value": value, "unit": e2e[key]["unit"]}
        print("per-layer (first pass, traced)")
        report(args.workload, layers)
        print(f"  {NO_WAIT_NOTE}")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        layers = e2e
    metrics = {m["name"]: {"value": layers[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
