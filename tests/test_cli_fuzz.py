"""Property tests over the gen, plan, export-lp, quantize and simulate
commands.

The first draws bit menus, error budgets, token counts, histogram bins
and schemes, valid and not, against one small generated instance with
weight tensors. The second mutates a plan document and replays it. The
third mutates the instance's cluster (its links in either layout), model
and weight files, metadata and data, and plans them. The fourth runs gen
over small server and layer counts, negative ones included.
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
import pathlib
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplan.cli import main
from edgeplan.core import save_instance
from edgeplan.gen import generate_instance
from edgeplan.quant import WeightTensor, save_weight_tensor

from conftest import file_digest, object_layout


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """4 servers, 3 layers, each layer with a 64-weight tensor: zero-centred,
    one-sided and constant, so auto picks both schemes. The cluster is
    written in both link layouts: columns.json as gen writes it, one array
    per field, and cluster.json with one object per link."""
    root = tmp_path_factory.mktemp("fuzz")
    inst = generate_instance(11, 4, 3, (4, 8, 16), "heterogeneous", tokens=2)
    save_instance(inst, root / "columns.json", root / "model.json")
    (root / "cluster.json").write_text(json.dumps(object_layout(
        json.loads((root / "columns.json").read_text()))))
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


BITS = st.lists(st.sampled_from([0, 1, 2, 3, 4, 8, 16, 32, 33]), min_size=1, max_size=4)
DELTAS = st.sampled_from(["nan", "NaN", "inf", "-inf", "-1", "0", "1e-300",
                          "0.01", "0.5", "1e300"])


@given(command=st.sampled_from(["plan", "export-lp", "quantize"]), bits=BITS,
       delta=DELTAS, tokens=st.integers(-1, 4), bins=st.sampled_from([-1, 0, 1, 8, 32]),
       scheme=st.sampled_from(["auto", "symmetric", "asymmetric"]),
       weights=st.booleans(), solver=st.sampled_from(["bnb", "brute", "relaxed"]))
@example(command="plan", bits=[4, 8], delta="nan", tokens=1, bins=32,
         scheme="auto", weights=False, solver="bnb")
@example(command="quantize", bits=[1, 4], delta="0.5", tokens=1, bins=32,
         scheme="auto", weights=True, solver="bnb")
@example(command="plan", bits=[4, 40], delta="inf", tokens=1, bins=32,
         scheme="auto", weights=False, solver="bnb")
@example(command="quantize", bits=[4, 8], delta="0.5", tokens=1, bins=0,
         scheme="auto", weights=True, solver="bnb")
@settings(max_examples=60, deadline=None)
def test_cli_exit_codes(fuzz_dir, command, bits, delta, tokens, bins, scheme,
                        weights, solver):
    menu = ",".join(map(str, bits))
    valid = all(2 <= b <= 32 for b in bits) and float(delta) >= 0
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
        out = os.path.join(tmp, "out")
        if command == "quantize":
            argv = ["quantize", "--weights-dir", str(fuzz_dir / "w"), "--bins", str(bins)]
            valid &= bins >= 1
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
        assert (math.inf if recorded == "inf" else recorded) == float(delta)
        assert doc["options"]["bits"] == sorted(set(bits))
    elif command == "quantize":
        for r in json.loads(text)["records"]:
            assert r["feasible"] == (r["max_abs_error"] <= float(delta))
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
# document without the plan keys or with one of the wrong JSON type, 1 the
# digest, 2 malformed options, a malformed assignment or objective, 3 a plan
# the replay refuses, 4 an objective the replay does not reproduce exactly,
# a non-finite replay included, 5 none (exit 0). Several mutations stop at
# the earliest stage among them; Signed edits are made first, so every other
# edit lands after the digest is recomputed.
PLAN_MUTATIONS = [
    ((), lambda doc: [doc], 0),
    (("digest",), DELETE, 0),
    (("options",), DELETE, 0),
    (("objective",), DELETE, 0),
    (("assignments",), DELETE, 0),
    (("relaxed",), True, 0),
    (("digest",), "0" * 64, 1),
    (("options", "tokens"), 3, 1),
    (("objective",), [], 0),
    (("objective", "total_s"), DELETE, 2),
    (("objective", "total_s"), "nan", 2),
    (("objective", "total_s"), None, 2),
    (("objective", "total_s"), True, 2),
    (("objective", "total_s"), math.nan, 2),
    (("objective", "total_s"), -math.inf, 2),
    (("objective", "total_s"), 10 ** 400, 2),
    (("objective", "total_s"), math.inf, 2),
    (("assignments",), "x", 0),
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
    (("objective", "total_s"), lambda t: t * (1 + 1e-12), 4),
    (("assignments", 0, "note"), "kept", 5),
    (("options", "tokens"), Signed("x"), 2),
    (("options", "tokens"), Signed(True), 2),
    (("options", "tokens"), Signed(2.5), 2),
    (("options", "bits"), Signed("8"), 2),
    (("options", "delta"), Signed("abc"), 2),
    (("options", "delta"), Signed(math.inf), 2),
    (("options", "bits"), Signed([True]), 2),
    (("options", "feasible_bits"),
     Signed(lambda fb: [[float(b) for b in row] for row in fb]), 2),
    (("options", "feasible_bits"), Signed(3), 2),
    (("options", "feasible_bits"), Signed([]), 2),
    (("options", "cp_scaling"), Signed(5), 2),
    (("options", "per_token_activation"), Signed("no"), 2),
    (("options", "storage"), Signed("bogus"), 2),
    (("options", "storage"), Signed(7), 2),
    (("options", "tokens"), Signed(10 ** 300), 4),
    # compute_cp overflows to inf at this count: a non-finite replay
    (("options", "tokens"), Signed(10 ** 308), 4),
    (("options", "tokens"), Signed(10 ** 400), 2),
    # a width outside the layer's set is refused before its footprint is priced
    (("assignments", 0, "bits"), 10 ** 400, 3),
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
# the plan check before the replay
@example(picks=[pick(("options", "tokens"), Signed(10 ** 300)),
                pick(("assignments", 0, "server"), 4)])
@settings(max_examples=80, deadline=None)
def test_simulate_plan_mutations(fuzz_dir, plan_doc, picks):
    replay_mutated(fuzz_dir, plan_doc, picks)


@pytest.mark.parametrize("k", range(len(PLAN_MUTATIONS)))
def test_each_plan_mutation_alone(fuzz_dir, plan_doc, k):
    replay_mutated(fuzz_dir, plan_doc, [k])


@pytest.mark.parametrize("field, value, message", [
    ("cp_scaling", 5, 'must be "with_pl" or "without_pl", got 5'),
    ("per_token_activation", "no", 'must be a boolean, got "no"'),
    ("storage", "bogus", 'must be "compact" or "literal", got "bogus"'),
    ("storage", 7, 'must be "compact" or "literal", got 7')])
def test_reading_refusal_names_file_and_field(fuzz_dir, plan_doc, field, value, message):
    """A DelayOptions field is refused in the form of every other plan
    document field: the file, the path down to the field, the values it
    allows."""
    plan, err = replay_mutated(fuzz_dir, plan_doc, [pick(("options", field), Signed(value))])
    assert err == f"error: {plan}.options.{field}: {message}\n"


def replay_mutated(fuzz_dir, plan_doc, picks):
    """Simulate the plan with the picked mutations applied; the exit code
    must be the earliest stage's, with no traceback and no output unless 0.
    Returns the plan's path and simulate's stderr."""
    mutations = [PLAN_MUTATIONS[k] for k in picks]
    doc = json.loads(json.dumps(plan_doc))
    signed = [m for m in mutations if isinstance(m[1], Signed)]
    for path, value, _ in signed:
        doc = mutate(doc, path, value.value)
    if signed:
        doc["digest"] = file_digest(fuzz_dir / "cluster.json", fuzz_dir / "model.json",
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
    return plan, err


# (file, path into its document, new value or DELETE or a function of the
# old value, valid). A field of the wrong JSON type is an input error (exit 2); an
# integer in a number field is a number, and the run stays valid (exit 0).
# The cluster.json rows edit the object link layout, the columns.json rows
# the column layout; a run plans columns.json when a row edits it.
# The weight files are read by `plan --weights-dir`; `quantize` reports
# a malformed one and skips its tensor. A .bin mutation is a function of
# the file's bytes.
INSTANCE_MUTATIONS = [
    ("cluster.json", (), lambda doc: None, False),
    ("cluster.json", (), lambda doc: [doc], False),
    ("cluster.json", ("servers",), 5, False),
    ("cluster.json", ("servers", 0), 7, False),
    ("cluster.json", ("servers", 0, "id"), "x", False),
    ("cluster.json", ("servers", 0, "id"), 0.0, False),
    ("cluster.json", ("servers", 1, "id"), 1.7, False),
    ("cluster.json", ("servers", 1, "id"), True, False),
    ("cluster.json", ("servers", 0, "ccs_flops"), None, False),
    ("cluster.json", ("servers", 0, "ccs_flops"), "abc", False),
    ("cluster.json", ("servers", 0, "ccs_flops"), True, False),
    ("cluster.json", ("servers", 0, "ccs_flops"), 10 ** 400, False),
    ("cluster.json", ("servers", 1, "storage_bytes"), [1e9], False),
    ("cluster.json", ("links",), {}, False),
    ("cluster.json", ("links", 0), "x", False),
    ("cluster.json", ("links", 0, "src"), None, False),
    ("cluster.json", ("links", 1, "dst"), float, False),
    ("cluster.json", ("links", 2, "capacity_bps"), "fast", False),
    ("cluster.json", ("links", 3, "prop_delay_s"), None, False),
    ("cluster.json", ("servers", 0, "ccs_flops"), int, True),
    ("cluster.json", ("servers", 1, "storage_bytes"), int, True),
    ("cluster.json", ("links", 2, "capacity_bps"), int, True),
    ("cluster.json", ("links", 3, "prop_delay_s"), 0, True),
    ("columns.json", ("links", "dst"), 5, False),
    ("columns.json", ("links", "src", 0), None, False),
    ("columns.json", ("links", "src", 1), 1.0, False),
    ("columns.json", ("links", "src", 2), True, False),
    ("columns.json", ("links", "capacity_bps", 3), "fast", False),
    ("columns.json", ("links", "capacity_bps", 4), 10 ** 400, False),
    ("columns.json", ("links", "dst"), lambda dst: dst[:-1], False),
    ("columns.json", ("links", "src"), DELETE, False),
    ("columns.json", ("links",), {}, False),
    ("columns.json", ("links", "capacity_bps", 5), int, True),
    ("columns.json", ("links", "prop_delay_s"), DELETE, True),
    ("columns.json", ("links", "note"), "kept", True),
    ("model.json", (), lambda doc: None, False),
    ("model.json", ("layers",), "abc", False),
    ("model.json", ("layers", 0), 3, False),
    ("model.json", ("layers", 0, "param_count"), "big", False),
    ("model.json", ("layers", 0, "param_count"), float, False),
    ("model.json", ("layers", 1, "flops"), [1], False),
    ("model.json", ("layers", 1, "output_size"), False, False),
    ("model.json", ("layers", 2, "original_precision"), 32.0, False),
    ("model.json", ("layers", 2, "weights"), 5, False),
    ("model.json", ("batch_size",), None, False),
    ("model.json", ("batch_size",), 1.0, False),
    ("model.json", ("embedding_size",), "512", False),
    ("model.json", ("layers", 1, "flops"), int, True),
    ("model.json", ("layers", 1, "output_size"), int, True),
    ("w/l0.json", (), lambda doc: None, False),
    ("w/l0.json", ("shape",), ["a"], False),
    ("w/l0.json", ("shape",), 6, False),
    ("w/l0.json", ("shape", 0), 64.0, False),
    ("w/l0.json", ("shape",), [-8, -8], False),
    ("w/l0.json", ("name",), 5, False),
    ("w/l0.json", ("dtype",), "f16", False),
    # each breaks one rule of core.validate_instance, named in test_core
    ("cluster.json", ("servers", 1, "id"), 0, False),
    ("cluster.json", ("servers", 3, "id"), 4, False),
    ("cluster.json", ("links", 0, "dst"), 0, False),
    ("cluster.json", ("links", 4, "src"), 9, False),
    ("cluster.json", ("links", 5, "prop_delay_s"), -1.0, False),
    ("cluster.json", ("servers", 2, "ccs_flops"), 0.0, False),
    ("model.json", ("layers", 0, "flops"), -1.0, False),
    ("model.json", ("layers", 0, "output_size"), -1.0, False),
    ("model.json", ("layers", 1, "param_count"), -1, False),
    ("model.json", ("batch_size",), 0, False),
    ("model.json", ("embedding_size",), 0, False),
    # a layer without a tensor keeps the full menu
    ("model.json", ("layers", 1, "weights"), DELETE, True),
    # the weight data: truncated, one value too many, a NaN, an inf, and
    # two bytes past the last whole value
    ("w/l0.bin", (), lambda raw: raw[:len(raw) // 2], False),
    ("w/l0.bin", (), lambda raw: raw + raw[:4], False),
    ("w/l0.bin", (), lambda raw: raw[:8] + np.float32(np.nan).tobytes() + raw[12:], False),
    ("w/l0.bin", (), lambda raw: raw[:8] + np.float32(-np.inf).tobytes() + raw[12:], False),
    ("w/l0.bin", (), lambda raw: raw + b"\x00\x01", False),
    # integers whose footprint or payload is beyond the float range
    ("model.json", ("layers", 0, "param_count"), 10 ** 400, False),
    ("model.json", ("embedding_size",), 10 ** 400, False),
]


def mutated_instance(fuzz_dir, tmp, picks):
    """Copies of the fuzz instance's files under tmp with the picked
    mutations applied, deeper edits first."""
    docs = {"w/l0.bin": (fuzz_dir / "w/l0.bin").read_bytes()}
    for name in ("cluster.json", "columns.json", "model.json", "w/l0.json"):
        docs[name] = json.loads((fuzz_dir / name).read_text())
    for k in sorted(picks, key=lambda k: -len(INSTANCE_MUTATIONS[k][1])):
        name, path, value, _ = INSTANCE_MUTATIONS[k]
        docs[name] = mutate(docs[name], path, value)
    shutil.copytree(fuzz_dir / "w", tmp / "w")
    for name, doc in docs.items():
        if isinstance(doc, bytes):
            (tmp / name).write_bytes(doc)
        else:
            (tmp / name).write_text(json.dumps(doc))


def plan_mutated(fuzz_dir, picks):
    """Plan the mutated instance with --weights-dir, from columns.json when
    a pick edits it, else from cluster.json: exit 2 with no traceback and
    no output when any mutation of the files planned is invalid, else
    exit 0."""
    rows = [INSTANCE_MUTATIONS[k] for k in picks]
    cluster = "columns.json" if any(row[0] == "columns.json" for row in rows) else "cluster.json"
    # a cluster.json row edits no file a run of columns.json reads
    valid = all(row[3] for row in rows if row[0] != "cluster.json" or cluster == "cluster.json")
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as name:
        tmp = pathlib.Path(name)
        mutated_instance(fuzz_dir, tmp, picks)
        out = tmp / "plan.json"
        code, stdout, err = run_cli(["plan", "--cluster", str(tmp / cluster),
                                     "--model", str(tmp / "model.json"),
                                     "--weights-dir", str(tmp / "w"),
                                     "--bits", "4,8,16", "--tokens", "2",
                                     "--out", str(out)])
        assert "Traceback" not in err
        assert code == (0 if valid else 2), (picks, code, err)
        if not valid:
            assert stdout == "" and not out.exists()
        return tmp


@pytest.mark.parametrize("k", range(len(INSTANCE_MUTATIONS)))
def test_each_instance_mutation_alone(fuzz_dir, k):
    plan_mutated(fuzz_dir, [k])
    name, _, _, valid = INSTANCE_MUTATIONS[k]
    if not name.startswith("w/"):
        return
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
        mutated_instance(fuzz_dir, pathlib.Path(tmp), [k])
        out = os.path.join(tmp, "report.json")
        code, _, err = run_cli(["quantize", "--weights-dir", os.path.join(tmp, "w"),
                                "--bits", "4,8", "--delta", "0.1", "--out", out])
        assert code == 0 and "Traceback" not in err
        with open(out) as f:
            layers = {r["layer"] for r in json.load(f)["records"]}
    assert layers == {"l1", "l2"}
    assert os.path.basename(name) in err


@given(picks=st.lists(st.sampled_from(range(len(INSTANCE_MUTATIONS))), max_size=3,
                      unique_by=lambda k: INSTANCE_MUTATIONS[k][:2]))
@settings(max_examples=40, deadline=None)
def test_instance_mutations(fuzz_dir, picks):
    plan_mutated(fuzz_dir, picks)


@given(seed=st.integers(0, 3), servers=st.integers(-2, 6), layers=st.integers(-2, 6),
       profile=st.sampled_from(["uniform", "heterogeneous"]))
@example(seed=1, servers=-1, layers=-2, profile="uniform")
@example(seed=1, servers=2, layers=-1, profile="uniform")
@settings(max_examples=60, deadline=None)
def test_gen_sizes(fuzz_dir, seed, servers, layers, profile):
    """1 <= layers <= servers writes both files; any other size is an
    input error that creates no --out-dir, a negative server or layer
    count a usage error that names the flag (-m's first: it comes first)."""
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
        out = os.path.join(tmp, "inst")
        code, _, err = run_cli(["gen", "--seed", str(seed), "-m", str(servers),
                                "-l", str(layers), "--profile", profile, "--out-dir", out])
        assert "Traceback" not in err
        assert code == (0 if 1 <= layers <= servers else 2), (servers, layers, code, err)
        if servers < 0:
            assert err.endswith(f"error: argument --servers/-m: must be >= 0, got {servers}\n")
        elif layers < 0:
            assert err.endswith(f"error: argument --layers/-l: must be >= 0, got {layers}\n")
        if min(servers, layers) < 0:
            assert "usage:" in err
        if code == 0:
            assert sorted(os.listdir(out)) == ["cluster.json", "model.json"]
        else:
            assert not os.path.exists(out)
