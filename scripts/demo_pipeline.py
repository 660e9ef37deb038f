#!/usr/bin/env python3
"""End-to-end walkthrough of the toolchain in one run directory:

  1. generate a synthetic cluster + model,
  2. synthesize per-layer weight tensors and attach them to the model,
  3. quantization-error analysis (feasible bits, stats, ratio),
  4. exact planning with the quantization filter applied,
  5. replay the plan and cross-check the objective,
  6. export the LP file for an external solver.
"""

import argparse
import os
import sys

import numpy as np

from edgeplan.cli import main as cli
from edgeplan.core import json_text, load_json, write_outputs
from edgeplan.quant import WeightTensor, save_weight_tensor


def run(argv):
    print(f"$ edgeplan {' '.join(argv)}")
    code = cli(argv)
    if code != 0:
        sys.exit(f"step failed with exit code {code}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--servers", type=int, default=5)
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--bits", default="4,8,16")
    ap.add_argument("--delta", default="0.02")
    ap.add_argument("--tokens", type=int, default=16)
    args = ap.parse_args()

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    run(["gen", "--seed", str(args.seed), "-m", str(args.servers),
         "-l", str(args.layers), "--out-dir", out])

    # synthetic weights: roughly zero-centered gaussians with varying spread
    wdir = os.path.join(out, "weights")
    os.makedirs(wdir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    model_path = os.path.join(out, "model.json")
    model_doc = load_json(model_path)
    for l, layer in enumerate(model_doc["layers"]):
        n = min(layer["param_count"], 50_000)
        values = rng.normal(0.0, 0.05 * (l + 1), n).astype(np.float32)
        name = f"layer{l}"
        save_weight_tensor(WeightTensor(name, values, values.shape), wdir)
        layer["weights"] = name
    write_outputs((model_path, json_text(model_doc)))

    run(["quantize", "--weights-dir", wdir, "--bits", args.bits,
         "--delta", args.delta, "--out", os.path.join(out, "quant_report.json"),
         "--stats-out", os.path.join(out, "weight_stats.json")])

    cluster = os.path.join(out, "cluster.json")
    plan = os.path.join(out, "plan.json")
    run(["plan", "--cluster", cluster, "--model", model_path,
         "--bits", args.bits, "--delta", args.delta,
         "--tokens", str(args.tokens), "--weights-dir", wdir,
         "--solver", "bnb", "--out", plan])

    run(["simulate", "--plan", plan, "--cluster", cluster,
         "--model", model_path, "--out", os.path.join(out, "timeline.csv"),
         "--summary", os.path.join(out, "summary.json")])

    run(["export-lp", "--cluster", cluster, "--model", model_path,
         "--bits", args.bits, "--delta", args.delta,
         "--tokens", str(args.tokens), "--weights-dir", wdir,
         "--out", os.path.join(out, "problem.lp")])

    print(f"\nartifacts in {out}/")


if __name__ == "__main__":
    main()
