"""The quantize report and the plan filter on multi-block tensors, pinned
byte for byte.

tests/test_pinned_outputs.py pins tensors of one block; here eight tensors
of one to four ``quant._BLOCK``-element blocks, two-sided and one-sided,
run through ``quantize`` under each --scheme, with and without
--stats-out, and through the plan filter at every reported error and its
two float neighbours: ``plan --weights-dir`` under --scheme auto (its
``options.feasible_bits`` and exit code) and ``quant.feasible_bits`` under
every scheme. Each is compared by sha256 with tests/data/pinned_quant.json.
A stats document's mean, std and skewness are left out of its digest and
compared within 1e-12 relative, as in test_pinned_outputs.

The tensors are drawn from random.Random, whose stream Python keeps
stable. A change meant to keep every output the same must pass this test
unedited. To pin a change of output on purpose, run ``python
tests/test_pinned_quant.py`` with ``src`` on the path and say in the
change why the outputs moved.
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

from edgeplan import quant
from edgeplan.cli import main
from edgeplan.core import json_text, load_json, write_outputs
from edgeplan.quant import SchemeKind, WeightTensor, load_weight_tensor, save_weight_tensor

from test_pinned_outputs import MOMENTS, call

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "pinned_quant.json")
BITS = "3,4,8,16,24"
WIDTHS = (3, 4, 8, 16, 24)
SCHEMES = {"auto": None, "symmetric": SchemeKind.SYMMETRIC_SIGNED,
           "asymmetric": SchemeKind.ASYMMETRIC}


def tensors() -> dict[str, list[float]]:
    """Eight tensors, two of each block count from one to four: one
    two-sided and one one-sided, the block counts reached from ragged
    sizes."""
    rng = random.Random(34)
    block = quant._BLOCK
    sizes = (block - 3, block, block + 517, 2 * block - 1,
             2 * block + 1001, 3 * block, 3 * block + 11, 4 * block)
    draws = [[rng.random() for _ in range(n)] for n in sizes]
    return {
        "t1_gauss": [rng.gauss(0.0, 0.05) for _ in range(sizes[0])],
        "t1_positive": [0.3 * r for r in draws[1]],
        "t2_skewed": [r ** 3 - 0.1 for r in draws[2]],
        "t2_negative": [-math.exp(2 * r) for r in draws[3]],
        "t3_uniform": [0.29 * (2 * r - 1) for r in draws[4]],
        "t3_offset": [5.0 + 0.01 * r for r in draws[5]],
        "t4_gauss": [rng.gauss(0.01, 0.2) for _ in range(sizes[6])],
        "t4_skewed_negative": [0.05 - r ** 4 for r in draws[7]],
    }


def quantize_steps() -> list[tuple[str, list[str]]]:
    steps = []
    for scheme in SCHEMES:
        argv = ["quantize", "--weights-dir", "w", "--bits", BITS, "--delta", "0.001",
                "--scheme", scheme]
        steps.append((f"quantize-{scheme}", argv + ["--out", f"report-{scheme}.json"]))
        steps.append((f"quantize-{scheme}-stats",
                      argv + ["--out", f"report-{scheme}-stats.json",
                              "--stats-out", f"stats-{scheme}.json"]))
    return steps


def boundary_deltas(errors) -> list[float]:
    """Each error and its two float neighbours."""
    return sorted({float(d) for e in errors
                   for d in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))
                   if d >= 0})


def plan_filter(delta: float) -> tuple[int, list]:
    """(exit code, options.feasible_bits) of a relaxed plan at delta; the
    plan refuses with exit 3, the record naming the first layer without a
    feasible width, and writes no plan, when a layer has none left."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["plan", "--cluster", "cluster.json", "--model", "model.json",
                     "--bits", BITS, "--delta", repr(delta), "--tokens", "4",
                     "--weights-dir", "w", "--solver", "relaxed", "--out", "plan.json"])
    if code == 0:
        return code, load_json("plan.json")["options"]["feasible_bits"]
    record = json.loads(out.getvalue())
    assert (code, err.getvalue(), record["status"]) == (3, "", "infeasible"), (delta, code)
    assert record["reason"] == f"layer {record['layer']} has no feasible (server, bits) placement"
    return code, []


def run_pins(workdir: str) -> dict:
    """Digests of every quantize output, of the plan's feasible_bits at
    the auto report's boundary deltas and of quant.feasible_bits at each
    tensor's own boundary deltas, plus each stats document's moments."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout = {"gen": call(["gen", "--seed", "3", "-m", "8", "-l", "8", "--out-dir", "."])}
        model = load_json("model.json")
        os.makedirs("w")
        for layer, (name, values) in zip(model["layers"], tensors().items()):
            v = np.array(values, dtype=np.float32)
            save_weight_tensor(WeightTensor(name, v, v.shape), "w")
            layer["weights"] = name
        write_outputs(("model.json", json_text(model)))
        for step, argv in quantize_steps():
            stdout[step] = call(argv)
        reports = {scheme: load_json(f"report-{scheme}.json")["records"] for scheme in SCHEMES}
        plans = []
        for delta in boundary_deltas(r["max_abs_error"] for r in reports["auto"]):
            plans.append([delta, *plan_filter(delta)])
        verdicts = []
        for name in tensors():
            w = load_weight_tensor(os.path.join("w", f"{name}.json"))
            errors = [r["max_abs_error"] for records in reports.values()
                      for r in records if r["layer"] == name]
            for delta in boundary_deltas(errors):
                verdicts.append([name, delta] + [list(quant.feasible_bits(w, WIDTHS, delta, s))
                                                 for s in SCHEMES.values()])
            del w
        files, moments = {}, {}
        for name in sorted(os.listdir(".")):
            if not name.startswith(("report-", "stats-")):
                continue
            with open(name, "rb") as f:
                data = f.read()
            if name.startswith("stats-"):
                moments[name] = [[layer[key] for key in MOMENTS]
                                 for layer in json.loads(data)["layers"]]
                data = re.sub(rb'"(mean|std|skewness)": [^,\n]*', b"", data)
            files[name] = hashlib.sha256(data).hexdigest()
    finally:
        os.chdir(cwd)

    def digest(doc) -> str:
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    return {"files": files,
            "stdout": {step: hashlib.sha256(text.encode()).hexdigest()
                       for step, text in stdout.items()},
            "plan_feasible_bits": {"deltas": len(plans), "sha256": digest(plans)},
            "feasible_bits": {"calls": 3 * len(verdicts), "sha256": digest(verdicts)},
            "moments": moments}


def test_quant_outputs_are_pinned(tmp_path):
    with open(PINNED) as f:
        pinned = json.load(f)
    got = run_pins(str(tmp_path))
    for key in ("files", "stdout", "plan_feasible_bits", "feasible_bits"):
        assert got[key] == pinned[key], key
    assert got["moments"].keys() == pinned["moments"].keys()
    for name, layers in pinned["moments"].items():
        assert len(got["moments"][name]) == len(layers), name
        for have, want in zip(got["moments"][name], layers):
            assert all(math.isclose(h, w, rel_tol=1e-12) for h, w in zip(have, want)), \
                (name, have, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_pins(workdir)
    with open(PINNED, "w") as f:
        json.dump(digests, f, indent=2)
        f.write("\n")
    print(f"wrote {PINNED}: {len(digests['files'])} files, "
          f"{digests['plan_feasible_bits']['deltas']} plan deltas, "
          f"{digests['feasible_bits']['calls']} feasible_bits calls", file=sys.stderr)
