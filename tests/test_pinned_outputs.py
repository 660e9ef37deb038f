"""The README chain's outputs, pinned byte for byte.

One in-process run of gen, four weight tensors, quantize under each
--scheme, plan under each solver (and bnb under each forced scheme),
simulate and export-lp, on small inputs. Every file it writes and every
command's stdout is compared by sha256 with tests/data/pinned_chain.json.
Two parts are left out of the digests:

- a plan document's meta.wall_time_s, which is a measurement;
- a stats document's mean, std and skewness, which are compared within
  1e-12 relative instead, since numpy's summation order may change
  between versions. The rest of the stats document is in its digest.

The tensors are drawn from random.Random, whose stream Python keeps
stable, not from numpy's generators. A change meant to keep every output
the same must pass this test unedited. To pin a change of output on
purpose, run ``python tests/test_pinned_outputs.py`` with ``src`` on the
path and say in the change why the outputs moved.
"""

import hashlib
import json
import math
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np

from edgeplan.cli import main
from edgeplan.core import json_text, load_json, write_outputs
from edgeplan.quant import WeightTensor, save_weight_tensor

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "pinned_chain.json")
SHARED = ["--cluster", "cluster.json", "--model", "model.json", "--bits", "4,8,16",
          "--delta", "0.02", "--tokens", "16", "--weights-dir", "w"]
MOMENTS = ("mean", "std", "skewness")


def tensors() -> dict[str, list[float]]:
    """Four tensors of 4,096 values: two two-sided (one near-symmetric, one
    skewed) and two one-sided (one positive, one negative)."""
    rng = random.Random(7)
    draws = [[rng.random() for _ in range(4096)] for _ in range(4)]
    return {"layer0": [0.29 * (2 * r - 1) for r in draws[0]],
            "layer1": [r ** 4 - 0.1 for r in draws[1]],
            "layer2": [0.2 * r for r in draws[2]],
            "layer3": [-0.6 * r for r in draws[3]]}


def commands() -> list[tuple[str, list[str]]]:
    """(step name, argv) of the chain after gen and the tensors."""
    steps = [(f"quantize-{scheme}",
              ["quantize", "--weights-dir", "w", "--bits", "4,8,16", "--delta", "0.02",
               "--scheme", scheme, "--out", f"report-{scheme}.json",
               "--stats-out", f"stats-{scheme}.json"])
             for scheme in ("auto", "symmetric", "asymmetric")]
    steps += [(f"plan-{solver}",
               ["plan", *SHARED, "--solver", solver, "--out", f"plan-{solver}.json"])
              for solver in ("bnb", "brute", "relaxed")]
    steps += [(f"plan-bnb-{scheme}",
               ["plan", *SHARED, "--scheme", scheme, "--out", f"plan-bnb-{scheme}.json"])
              for scheme in ("symmetric", "asymmetric")]
    steps.append(("simulate", ["simulate", "--plan", "plan-bnb.json", "--cluster",
                               "cluster.json", "--model", "model.json", "--out",
                               "timeline.csv", "--summary", "summary.json"]))
    steps.append(("export-lp", ["export-lp", *SHARED, "--out", "problem.lp"]))
    return steps


def call(argv: list[str]) -> str:
    """One command's stdout; it must exit 0 and print nothing on stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), (argv, code, err.getvalue())
    return out.getvalue()


def run_chain(workdir: str) -> dict:
    """Run the chain in ``workdir`` and return its digests: sha256 of each
    file (less the parts named in the module docstring) and of each
    step's stdout, and each stats document's moments."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout = {"gen": call(["gen", "--seed", "7", "-m", "5", "-l", "4", "--out-dir", "."])}
        model = load_json("model.json")
        os.makedirs("w")
        for layer, (name, values) in zip(model["layers"], tensors().items()):
            v = np.array(values, dtype=np.float32)
            save_weight_tensor(WeightTensor(name, v, v.shape), "w")
            layer["weights"] = name
        write_outputs(("model.json", json_text(model)))
        for step, argv in commands():
            stdout[step] = call(argv)
    finally:
        os.chdir(cwd)
    files, moments = {}, {}
    for root, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, workdir).replace(os.sep, "/")
            with open(path, "rb") as f:
                data = f.read()
            if rel.startswith("plan-"):
                data = re.sub(rb'"wall_time_s": [^,\n]*', b"", data)
            elif rel.startswith("stats-"):
                moments[rel] = [[layer[key] for key in MOMENTS]
                                for layer in json.loads(data)["layers"]]
                data = re.sub(rb'"(mean|std|skewness)": [^,\n]*', b"", data)
            files[rel] = hashlib.sha256(data).hexdigest()
    return {"files": dict(sorted(files.items())),
            "stdout": {step: hashlib.sha256(text.encode()).hexdigest()
                       for step, text in stdout.items()},
            "moments": dict(sorted(moments.items()))}


def test_chain_outputs_are_pinned(tmp_path):
    with open(PINNED) as f:
        pinned = json.load(f)
    got = run_chain(str(tmp_path))
    assert got["files"] == pinned["files"]
    assert got["stdout"] == pinned["stdout"]
    assert got["moments"].keys() == pinned["moments"].keys()
    for name, layers in pinned["moments"].items():
        assert len(got["moments"][name]) == len(layers), name
        for have, want in zip(got["moments"][name], layers):
            assert all(math.isclose(h, w, rel_tol=1e-12) for h, w in zip(have, want)), \
                (name, have, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_chain(workdir)
    with open(PINNED, "w") as f:
        json.dump(digests, f, indent=2)
        f.write("\n")
    print(f"wrote {PINNED}: {len(digests['files'])} files, {len(digests['stdout'])} steps",
          file=sys.stderr)
