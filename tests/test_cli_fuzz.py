"""Property tests over the plan, export-lp, quantize and simulate commands.

The first draws bit menus, error budgets, token counts, histogram bins,
schemes, skew thresholds and original precisions, valid and not, against
one small generated instance with weight tensors. The second mutates a
plan document and replays it.
Every run must end in a documented exit code without a traceback; invalid
input must be an input error (exit 2) and valid input must not be; what
a run writes on exit 0 must be finite and record the inputs as given,
and a run that exits non-zero writes no output file.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplan.cli import input_digest, main
from edgeplan.core import save_instance
from edgeplan.gen import generate_instance
from edgeplan.quant import WeightTensor, save_weight_tensor


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """4 servers, 3 layers, each layer with a 64-weight tensor: zero-centred,
    one-sided and constant, so auto picks both schemes."""
    root = tmp_path_factory.mktemp("fuzz")
    inst = generate_instance(11, 4, 3, (4, 8, 16), "heterogeneous", tokens=2)
    save_instance(inst, root / "cluster.json", root / "model.json")
    model = json.loads((root / "model.json").read_text())
    rng = np.random.default_rng(11)
    tensors = {"l0": rng.normal(0.0, 0.5, 64), "l1": rng.standard_exponential(64),
               "l2": np.full(64, 0.75)}
    (root / "w").mkdir()
    for layer, (name, values) in zip(model["layers"], tensors.items()):
        v = values.astype(np.float32)
        save_weight_tensor(WeightTensor(name, v, v.shape), root / "w")
        layer["weights"] = name
    (root / "model.json").write_text(json.dumps(model))
    return root


def run_cli(argv):
    """(exit code, stdout, stderr); argparse usage errors exit via SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def budget(text: str) -> float:
    return math.inf if text.lower() in ("inf", "infinity") else float(text)


BITS = st.lists(st.sampled_from([0, 1, 2, 3, 4, 8, 16, 32, 33]), min_size=1, max_size=4)
DELTAS = st.sampled_from(["nan", "NaN", "inf", "-inf", "-1", "0", "1e-300",
                          "0.01", "0.5", "1e300"])
SKEWS = st.sampled_from(["nan", "-inf", "-0.5", "0", "0.5", "2", "inf"])


@given(command=st.sampled_from(["plan", "export-lp", "quantize"]), bits=BITS,
       delta=DELTAS, tokens=st.integers(-1, 4), bins=st.sampled_from([-1, 0, 1, 8, 32]),
       scheme=st.sampled_from(["auto", "symmetric", "asymmetric"]),
       weights=st.booleans(), solver=st.sampled_from(["bnb", "brute", "relaxed"]),
       skew=SKEWS, precision=st.sampled_from([-8, 0, 1, 16, 32]))
@example(command="plan", bits=[4, 8], delta="nan", tokens=1, bins=32,
         scheme="auto", weights=False, solver="bnb", skew="0.5", precision=32)
@example(command="quantize", bits=[1, 4], delta="0.5", tokens=1, bins=32,
         scheme="auto", weights=True, solver="bnb", skew="0.5", precision=32)
@example(command="plan", bits=[4, 40], delta="inf", tokens=1, bins=32,
         scheme="auto", weights=False, solver="bnb", skew="0.5", precision=32)
@example(command="quantize", bits=[4, 8], delta="0.5", tokens=1, bins=0,
         scheme="auto", weights=True, solver="bnb", skew="0.5", precision=32)
@example(command="quantize", bits=[4, 8], delta="0.5", tokens=1, bins=32,
         scheme="auto", weights=True, solver="bnb", skew="nan", precision=32)
@example(command="quantize", bits=[4, 8], delta="0.5", tokens=1, bins=32,
         scheme="auto", weights=True, solver="bnb", skew="0.5", precision=-8)
@settings(max_examples=60, deadline=None)
def test_cli_exit_codes(fuzz_dir, command, bits, delta, tokens, bins, scheme,
                        weights, solver, skew, precision):
    menu = ",".join(map(str, bits))
    valid = all(2 <= b <= 32 for b in bits) and budget(delta) >= 0
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
        out = os.path.join(tmp, "out")
        if command == "quantize":
            argv = ["quantize", "--weights-dir", str(fuzz_dir / "w"), "--bins", str(bins),
                    "--skew-threshold", skew, "--original-precision", str(precision)]
            valid &= bins >= 1 and float(skew) >= 0 and precision >= 1
        else:
            argv = [command, "--cluster", str(fuzz_dir / "cluster.json"),
                    "--model", str(fuzz_dir / "model.json"), "--tokens", str(tokens)]
            argv += ["--weights-dir", str(fuzz_dir / "w")] if weights else []
            argv += ["--solver", solver] if command == "plan" else []
            valid &= tokens >= 0
        argv += ["--bits", menu, "--delta", delta, "--scheme", scheme, "--out", out]
        code, _, err = run_cli(argv)

        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        assert (code == 2) == (not valid), (argv, code, err)
        if code != 0:
            assert not os.path.exists(out)
            return
        with open(out) as f:
            text = f.read()
    if command == "plan":
        doc = json.loads(text)
        assert all(math.isfinite(v) for v in doc["objective"].values())
        recorded = doc["options"]["delta"]
        assert (math.inf if recorded == "inf" else recorded) == budget(delta)
        assert doc["options"]["bits"] == sorted(set(bits))
    elif command == "quantize":
        for r in json.loads(text)["records"]:
            assert r["feasible"] == (r["max_abs_error"] <= budget(delta))
            assert math.isfinite(r["max_abs_error"]) and math.isfinite(r["scale"])


@pytest.fixture(scope="module")
def plan_doc(fuzz_dir):
    """A bnb plan for the fuzz instance: layers 0..2 on servers 1, 2, 3 at 4 bits."""
    path = fuzz_dir / "plan.json"
    code, _, err = run_cli(["plan", "--cluster", str(fuzz_dir / "cluster.json"),
                            "--model", str(fuzz_dir / "model.json"), "--bits", "4,8,16",
                            "--tokens", "2", "--out", str(path)])
    assert code == 0, err
    doc = json.loads(path.read_text())
    assert [(a["server"], a["bits"]) for a in doc["assignments"]] == [(1, 4), (2, 4), (3, 4)]
    return doc


DELETE = object()


@dataclass(frozen=True)
class Signed:
    """A new value whose edit is followed by a recomputed digest, as a
    document written from other flags would carry."""
    value: object


# (path into the plan document, new value or DELETE or a function of the old
# value or a Signed value, stage). The stage is where simulate must stop: 0 a
# document without the plan keys, 1 the digest, 2 malformed options, a
# malformed assignment or objective, 3 a plan the replay refuses, 4 an
# objective the replay does not reproduce, 5 none (exit 0). Several mutations
# stop at the earliest stage among them; Signed edits are made first, so
# every other edit lands after the digest is recomputed.
PLAN_MUTATIONS = [
    ((), lambda doc: [doc], 0),
    (("digest",), DELETE, 0),
    (("options",), DELETE, 0),
    (("objective",), DELETE, 0),
    (("assignments",), DELETE, 0),
    (("relaxed",), True, 0),
    (("digest",), "0" * 64, 1),
    (("options", "tokens"), 3, 1),
    (("objective",), [], 2),
    (("objective", "total_s"), DELETE, 2),
    (("objective", "total_s"), "nan", 2),
    (("objective", "total_s"), None, 2),
    (("objective", "total_s"), True, 2),
    (("objective", "total_s"), math.nan, 2),
    (("objective", "total_s"), -math.inf, 2),
    (("objective", "total_s"), 10 ** 400, 2),
    (("assignments",), "x", 2),
    (("assignments",), lambda a: a[:-1], 2),
    (("assignments",), lambda a: a + [a[0]], 2),
    (("assignments", 0), 7, 2),
    (("assignments", 0, "layer"), 1, 2),
    (("assignments", 0, "layer"), -1, 2),
    (("assignments", 0, "layer"), "0", 2),
    (("assignments", 1, "layer"), 1.0, 2),
    (("assignments", 2, "layer"), DELETE, 2),
    (("assignments", 0, "server"), "x", 2),
    (("assignments", 0, "server"), 1.5, 2),
    (("assignments", 1, "server"), True, 2),
    (("assignments", 1, "server"), DELETE, 2),
    (("assignments", 0, "bits"), DELETE, 2),
    (("assignments", 1, "bits"), "8", 2),
    (("assignments", 2, "bits"), 8.0, 2),
    (("assignments", 2, "bits"), False, 2),
    (("assignments", 0, "server"), 4, 3),
    (("assignments", 2, "server"), -1, 3),
    (("assignments", 2, "bits"), 3, 3),
    (("assignments", 1, "bits"), 32, 3),
    (("objective", "total_s"), 2.0, 4),
    (("objective", "total_s"), 0, 4),
    (("assignments", 0, "server"), 0, 4),
    (("assignments", 1, "bits"), 8, 4),
    (("assignments",), lambda a: a[::-1], 5),
    (("objective", "total_s"), lambda t: t * (1 + 1e-12), 5),
    (("assignments", 0, "note"), "kept", 5),
    (("options", "tokens"), Signed("x"), 2),
    (("options", "tokens"), Signed(True), 2),
    (("options", "tokens"), Signed(2.5), 2),
    (("options", "bits"), Signed("8"), 2),
    (("options", "delta"), Signed("abc"), 2),
    (("options", "feasible_bits"), Signed(3), 2),
    (("options", "feasible_bits"), Signed([]), 2),
    (("options", "cp_scaling"), Signed(5), 2),
    (("options", "per_token_activation"), Signed("no"), 2),
    (("options", "storage"), Signed("bogus"), 2),
    (("options", "storage"), Signed(7), 2),
]
STAGE_EXIT = {0: 2, 1: 6, 2: 2, 3: 5, 4: 5, 5: 0}


def pick(path, value) -> int:
    return next(k for k, (p, v, _) in enumerate(PLAN_MUTATIONS) if (p, v) == (path, value))


def mutate(doc, path, value):
    if not path:
        return value(doc)
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value(node[key]) if callable(value) else value
    return doc


@given(picks=st.lists(st.sampled_from(range(len(PLAN_MUTATIONS))), max_size=3,
                      unique_by=lambda k: PLAN_MUTATIONS[k][0]))
@example(picks=[])
@example(picks=[pick(("objective", "total_s"), DELETE)])
@example(picks=[pick(("assignments", 0, "bits"), DELETE)])
@example(picks=[pick(("assignments", 0, "server"), "x")])
@example(picks=[pick(("assignments", 0, "server"), 1.5)])
@example(picks=[pick(("objective", "total_s"), "nan")])
@example(picks=[pick(("assignments", 0, "layer"), 1)])  # layers 0,1,2 -> 1,1,2
@settings(max_examples=80, deadline=None)
def test_simulate_plan_mutations(fuzz_dir, plan_doc, picks):
    replay_mutated(fuzz_dir, plan_doc, picks)


@pytest.mark.parametrize("k", range(len(PLAN_MUTATIONS)))
def test_each_plan_mutation_alone(fuzz_dir, plan_doc, k):
    replay_mutated(fuzz_dir, plan_doc, [k])


def replay_mutated(fuzz_dir, plan_doc, picks):
    """Simulate the plan with the picked mutations applied; the exit code
    must be the earliest stage's, with no traceback and no output unless 0."""
    mutations = [PLAN_MUTATIONS[k] for k in picks]
    doc = json.loads(json.dumps(plan_doc))
    signed = [m for m in mutations if isinstance(m[1], Signed)]
    for path, value, _ in signed:
        doc = mutate(doc, path, value.value)
    if signed:
        doc["digest"] = input_digest(fuzz_dir / "cluster.json", fuzz_dir / "model.json",
                                     doc["options"])
    # deeper edits first, so an edit to a whole object lands last
    for path, value, _ in sorted((m for m in mutations if m not in signed),
                                 key=lambda m: -len(m[0])):
        doc = mutate(doc, path, value)
    expected = STAGE_EXIT[min((stage for _, _, stage in mutations), default=5)]
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
        plan = os.path.join(tmp, "plan.json")
        with open(plan, "w") as f:
            json.dump(doc, f)
        timeline, summary = os.path.join(tmp, "t.csv"), os.path.join(tmp, "s.json")
        code, _, err = run_cli(["simulate", "--plan", plan,
                                "--cluster", str(fuzz_dir / "cluster.json"),
                                "--model", str(fuzz_dir / "model.json"),
                                "--out", timeline, "--summary", summary])
        assert "Traceback" not in err
        assert code == expected, (mutations, code, err)
        assert os.path.exists(timeline) == (code == 0)
        assert os.path.exists(summary) == (code == 0)
