import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from edgeplan.cli import (_load_and_filter, _load_from_options, _write_json,
                          build_parser, input_digest, main)
from edgeplan.core import LayerProfile, LinkSpec, ServerSpec
from edgeplan.delay import DelayOptions, compute_cm, compute_cp
from edgeplan.quant import WeightTensor, save_weight_tensor

from conftest import data_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_weights(directory, tensors):
    os.makedirs(directory, exist_ok=True)
    for name, values in tensors.items():
        v = np.asarray(values, dtype=np.float32)
        save_weight_tensor(WeightTensor(name, v, v.shape), directory)


def write_non_finite_weights(directory, name, values):
    """A tensor file pair whose data WeightTensor itself would refuse."""
    write_weights(directory, {name: np.zeros(len(values))})
    (directory / f"{name}.bin").write_bytes(np.asarray(values, dtype="<f4").tobytes())


def test_write_json_leaves_no_partial_file(tmp_path):
    out = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        _write_json(out, {"a": 1.0, "b": math.nan})
    assert not out.exists()


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(["gen", "--seed", "7", "-m", "4", "-l", "3",
                              "--out-dir", str(out)], capsys)
            assert code == 0
        assert (a / "cluster.json").read_bytes() == (b / "cluster.json").read_bytes()
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()

    def test_heterogeneous_profile_spreads_throughput(self, tmp_path, capsys):
        code, _, _ = run(["gen", "--seed", "3", "-m", "5", "-l", "3",
                          "--profile", "heterogeneous",
                          "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "cluster.json").read_text())
        ccs = [s["ccs_flops"] for s in doc["servers"]]
        assert max(ccs) / min(ccs) >= 4.0

    def test_more_layers_than_servers_rejected(self, tmp_path, capsys):
        code, _, err = run(["gen", "--seed", "1", "-m", "2", "-l", "3",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "layers" in err


class TestQuantize:
    def test_golden_layer(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"layer0": [-2.0, 1.0, 2.0]})
        out = tmp_path / "report.json"
        code, stdout, _ = run(["quantize", "--weights-dir", str(wdir),
                               "--bits", "2,3,8", "--delta", "0.2",
                               "--scheme", "symmetric",
                               "--out", str(out),
                               "--stats-out", str(tmp_path / "stats.json")],
                              capsys)
        assert code == 0
        assert "layer0: feasible bits {8}" in stdout
        # single layer feasible only at 8 of 32 original bits
        assert "quantization ratio: 25.00%" in stdout
        records = json.loads(out.read_text())["records"]
        by_bits = {r["bits"]: r for r in records}
        assert by_bits[3]["max_abs_error"] == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert [b for b in by_bits if by_bits[b]["feasible"]] == [8]
        stats = json.loads((tmp_path / "stats.json").read_text())["layers"]
        assert stats[0]["count"] == 3

    def test_infinite_delta_admits_min_bits(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"a": [-1.0, 1.0], "b": [0.0, 5.0]})
        code, stdout, _ = run(["quantize", "--weights-dir", str(wdir),
                               "--bits", "2,8", "--delta", "inf",
                               "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0
        assert "quantization ratio: 6.25%" in stdout  # 2 of 32 bits everywhere

    def test_empty_dir_is_input_error(self, tmp_path, capsys):
        code, _, err = run(["quantize", "--weights-dir", str(tmp_path),
                            "--bits", "8", "--delta", "0.1",
                            "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert ".bin" in err and ".json" in err

    def test_malformed_tensor_reported_but_continues(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"good": [-1.0, 1.0]})
        (wdir / "bad.json").write_text("{}")
        out = tmp_path / "r.json"
        code, stdout, err = run(["quantize", "--weights-dir", str(wdir),
                                 "--bits", "8", "--delta", "inf",
                                 "--out", str(out)], capsys)
        assert code == 0
        assert "bad.json" in err
        assert json.loads(out.read_text())["records"]

    def test_unusable_weights_reported_but_continue(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"good": [-1.0, 1.0], "empty": []})
        write_non_finite_weights(wdir, "nan", [0.5, math.nan])
        write_non_finite_weights(wdir, "inf", [math.inf, 1.0])
        out, stats = tmp_path / "r.json", tmp_path / "s.json"
        code, _, err = run(["quantize", "--weights-dir", str(wdir),
                            "--bits", "8", "--delta", "inf", "--out", str(out),
                            "--stats-out", str(stats)], capsys)
        assert code == 0
        assert "nan.bin" in err and "inf.bin" in err and "empty.bin" in err
        assert {r["layer"] for r in json.loads(out.read_text())["records"]} == {"good"}
        assert [d["layer"] for d in json.loads(stats.read_text())["layers"]] == ["good"]


class TestPlan:
    def plan_args(self, out, solver="bnb"):
        return ["plan", "--cluster", data_path("cluster_2x2.json"),
                "--model", data_path("model_2x2.json"),
                "--bits", "8", "--tokens", "1",
                "--solver", solver, "--out", str(out)]

    def test_golden_objective(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, _ = run(self.plan_args(out), capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["objective"]["total_s"] == pytest.approx(3.0, rel=1e-12)
        assert [(a["server"], a["bits"]) for a in doc["assignments"]] == \
            [(0, 8), (1, 8)]

    @pytest.mark.parametrize("seed", range(10))
    def test_bnb_and_brute_agree(self, tmp_path, capsys, seed):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", str(seed), "-m", "4", "-l", "3",
             "--bits", "4,8", "--out-dir", str(gen_dir)], capsys)
        docs = {}
        for solver in ("brute", "bnb"):
            out = tmp_path / f"{solver}.json"
            code, _, _ = run(["plan", "--cluster", str(gen_dir / "cluster.json"),
                              "--model", str(gen_dir / "model.json"),
                              "--bits", "4,8", "--tokens", "4",
                              "--solver", solver, "--out", str(out)], capsys)
            assert code == 0
            doc = json.loads(out.read_text())
            doc.pop("meta")
            doc.pop("solver")
            docs[solver] = doc
        assert docs["brute"] == docs["bnb"]

    def test_relaxed_solver_reports_bound(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, _ = run(self.plan_args(out, solver="relaxed"), capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["relaxed"] is True
        assert doc["objective"]["lower_bound_s"] == pytest.approx(3.0)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["plan", "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_l3.json"),  # 3 layers, 2 servers
             "--bits", "8", "--out", str(tmp_path / "p.json")], capsys)
        assert code == 3
        assert json.loads(stdout.strip())["status"] == "infeasible"

    def test_budget_exit_code(self, tmp_path, capsys):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "5", "-m", "6", "-l", "4", "--bits", "4,8,16",
             "--out-dir", str(gen_dir)], capsys)
        code, stdout, _ = run(
            ["plan", "--cluster", str(gen_dir / "cluster.json"),
             "--model", str(gen_dir / "model.json"),
             "--bits", "4,8,16", "--solver", "bnb", "--budget", "1",
             "--out", str(tmp_path / "p.json")], capsys)
        assert code == 4

    @pytest.mark.parametrize("budget", [1, 8])
    def test_budget_status_line_says_how_far_it_got(self, tmp_path, capsys, budget):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "5", "-m", "6", "-l", "4", "--bits", "4,8,16",
             "--out-dir", str(gen_dir)], capsys)
        out = tmp_path / "p.json"
        code, stdout, _ = run(
            ["plan", "--cluster", str(gen_dir / "cluster.json"),
             "--model", str(gen_dir / "model.json"),
             "--bits", "4,8,16", "--budget", str(budget), "--out", str(out)], capsys)
        assert code == 4
        assert not out.exists()
        status = json.loads(stdout.strip())
        assert status["status"] == "budget_exceeded"
        assert status["budget"] == budget
        assert math.isfinite(status["lower_bound_s"])
        if budget == 1:  # one child examined: no plan yet
            assert status["incumbent_s"] is None
        else:  # the first dive reached a leaf
            assert status["incumbent_s"] >= status["lower_bound_s"]

    @pytest.mark.parametrize("flags, env", [
        ([], "abc"), ([], "-3"), (["--budget", "-5"], None), (["--budget", "0"], None)])
    def test_budget_not_a_positive_integer_is_input_error(self, tmp_path, capsys,
                                                          monkeypatch, flags, env):
        if env is None:
            monkeypatch.delenv("EDGEPLAN_BUDGET", raising=False)
        else:
            monkeypatch.setenv("EDGEPLAN_BUDGET", env)
        out = tmp_path / "plan.json"
        code, stdout, err = run(self.plan_args(out) + flags, capsys)
        assert code == 2
        assert ("--budget" if flags else "EDGEPLAN_BUDGET") in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("zeros, expect", [(307, 0), (308, 2), (310, 2)])
    def test_tokens_near_the_float_limit(self, tmp_path, capsys, zeros, expect):
        # --tokens 1e307: every delay is finite (objective 3e307 s); 1e308:
        # layer 1's compute delay on server 0 overflows; 1e310 is no float
        out = tmp_path / "plan.json"
        argv = self.plan_args(out)
        argv[argv.index("--tokens") + 1] = "1" + "0" * zeros
        code, _, err = run(argv, capsys)
        assert code == expect
        if expect:
            assert "DelayOverflow" in err and "Traceback" not in err
            assert not out.exists()
        else:
            doc = json.loads(out.read_text())
            assert doc["objective"]["total_s"] == pytest.approx(3e307, rel=1e-12)

    def test_meta_records_expansions_outside_digest(self, tmp_path, capsys):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "5", "-m", "6", "-l", "4", "--bits", "4,8,16",
             "--out-dir", str(gen_dir)], capsys)
        cluster, model = str(gen_dir / "cluster.json"), str(gen_dir / "model.json")
        out = tmp_path / "p.json"
        code, _, _ = run(["plan", "--cluster", cluster, "--model", model,
                          "--bits", "4,8,16", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        meta = doc["meta"]
        assert meta["expansions"] >= meta["nodes_explored"] >= 1
        assert meta["lower_bound_at_root"] <= doc["objective"]["total_s"]
        assert doc["digest"] == input_digest(cluster, model, doc["options"])


class TestPlanStorage:
    """Three linked servers; server 0 is the fastest but holds only 10 B,
    while each 1000-parameter layer needs 1000 B at 8 bits (4000 B under
    --storage literal, past the 2000 B of servers 1 and 2)."""

    def write_instance(self, tmp_path):
        cluster = {"servers": [{"id": 0, "ccs_flops": 1e6, "storage_bytes": 10},
                               {"id": 1, "ccs_flops": 1e3, "storage_bytes": 2000},
                               {"id": 2, "ccs_flops": 2e3, "storage_bytes": 2000}],
                   "links": [{"src": i, "dst": j, "capacity_bps": 1e6}
                             for i in range(3) for j in range(3) if i != j]}
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 1e3, "param_count": 1000, "output_size": 4.0,
             "original_precision": 32}] * 2}
        (tmp_path / "cluster.json").write_text(json.dumps(cluster))
        (tmp_path / "model.json").write_text(json.dumps(model))
        return ["--cluster", str(tmp_path / "cluster.json"),
                "--model", str(tmp_path / "model.json"), "--bits", "8"]

    @pytest.mark.parametrize("solver", ["bnb", "brute"])
    def test_solvers_avoid_full_server(self, tmp_path, capsys, solver):
        shared = self.write_instance(tmp_path)
        out = tmp_path / "plan.json"
        code, _, err = run(["plan", *shared, "--solver", solver,
                            "--out", str(out)], capsys)
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert {a["server"] for a in doc["assignments"]} == {1, 2}
        code, _, err = run(["simulate", "--plan", str(out),
                            "--cluster", str(tmp_path / "cluster.json"),
                            "--model", str(tmp_path / "model.json"),
                            "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 0, err

    @pytest.mark.parametrize("solver", ["bnb", "brute"])
    def test_servers_listed_out_of_order(self, tmp_path, capsys, solver):
        """A server is priced by its id, not by its place in the file."""
        shared = self.write_instance(tmp_path)
        cluster = json.loads((tmp_path / "cluster.json").read_text())
        cluster["servers"].reverse()
        (tmp_path / "cluster.json").write_text(json.dumps(cluster))
        out = tmp_path / "plan.json"
        code, _, err = run(["plan", *shared, "--solver", solver,
                            "--out", str(out)], capsys)
        assert code == 0, err
        doc = json.loads(out.read_text())
        placed = [(a["server"], a["bits"]) for a in doc["assignments"]]
        assert {i for i, _ in placed} == {1, 2}
        by_id = {s["id"]: ServerSpec(s["id"], s["ccs_flops"], s["storage_bytes"])
                 for s in cluster["servers"]}
        layer = LayerProfile(0, 1e3, 1000, 4.0, 32)
        n = doc["options"]["tokens"]
        (i, b), (j, _) = placed
        compute = compute_cp(layer, by_id[i], b, n) + compute_cp(layer, by_id[j], b, n)
        comm = compute_cm(layer, LinkSpec(i, j, 1e6), b, n, 1, 4)
        assert doc["objective"]["compute_s"] == compute
        assert doc["objective"]["comm_s"] == comm
        code, _, err = run(["simulate", "--plan", str(out),
                            "--cluster", str(tmp_path / "cluster.json"),
                            "--model", str(tmp_path / "model.json"),
                            "--out", str(tmp_path / "t.csv"),
                            "--summary", str(tmp_path / "s.json")], capsys)
        assert code == 0, err
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["completion_time_s"] == pytest.approx(compute + comm, rel=1e-12)

    def test_relaxed_bound_respects_storage(self, tmp_path, capsys):
        shared = self.write_instance(tmp_path)
        out = tmp_path / "relaxed.json"
        code, _, _ = run(["plan", *shared, "--solver", "relaxed",
                          "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(a["server"] != 0 for a in doc["assignments"])

    @pytest.mark.parametrize("solver", ["bnb", "brute"])
    def test_literal_storage_mode_is_infeasible(self, tmp_path, capsys, solver):
        shared = self.write_instance(tmp_path)
        code, stdout, _ = run(["plan", *shared, "--storage", "literal",
                               "--solver", solver,
                               "--out", str(tmp_path / "p.json")], capsys)
        assert code == 3
        assert json.loads(stdout)["status"] == "infeasible"


class TestInputValidation:
    @pytest.mark.parametrize("command", ["plan", "export-lp"])
    def test_nan_throughput_is_input_error(self, tmp_path, capsys, command):
        doc = json.loads(Path(data_path("cluster_2x2.json")).read_text())
        doc["servers"][0]["ccs_flops"] = math.nan
        cpath = tmp_path / "cluster.json"
        cpath.write_text(json.dumps(doc))  # writes a bare NaN token
        out = tmp_path / "out"
        code, stdout, err = run(
            [command, "--cluster", str(cpath),
             "--model", data_path("model_2x2.json"), "--bits", "8",
             "--out", str(out)], capsys)
        assert code == 2
        assert "NonFiniteValue" in err
        assert not out.exists()

    @staticmethod
    def weighted_model(tmp_path):
        write_weights(tmp_path / "w", {"l0": [-2.0, 1.0, 2.0], "l1": [0.0, 0.5, 3.0]})
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": ref} for ref in ("l0", "l1")]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        return str(mpath)

    def command(self, tmp_path, command, bits, delta, weights=True):
        model = self.weighted_model(tmp_path)
        out = tmp_path / "out"
        if command == "quantize":
            argv = ["quantize", "--weights-dir", str(tmp_path / "w")]
        else:
            argv = [command, "--cluster", data_path("cluster_2x2.json"), "--model", model]
            if weights:
                argv += ["--weights-dir", str(tmp_path / "w")]
        return argv + ["--bits", bits, "--delta", delta, "--out", str(out)], out

    @pytest.mark.parametrize("command", ["plan", "export-lp", "quantize"])
    def test_nan_delta_is_input_error(self, tmp_path, capsys, command):
        argv, out = self.command(tmp_path, command, "8", "nan")
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "--delta" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, bits, weights", [
        ("quantize", "1,4", True), ("plan", "4,40", True), ("plan", "4,40", False),
        ("export-lp", "0,8", False), ("plan", "33", False)])
    def test_bits_outside_range_are_input_error(self, tmp_path, capsys, command,
                                                bits, weights):
        argv, out = self.command(tmp_path, command, bits, "inf", weights)
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "[2, 32]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_is_usage_error(self, tmp_path, capsys, bins):
        argv, out = self.command(tmp_path, "quantize", "8", "inf")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bins", bins])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--bins" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--skew-threshold", "nan"), ("--skew-threshold", "-0.5"),
        ("--original-precision", "0"), ("--original-precision", "-8")])
    def test_quantize_flag_out_of_range_is_usage_error(self, tmp_path, capsys,
                                                       flag, value):
        argv, out = self.command(tmp_path, "quantize", "8", "inf")
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "export-lp"])
    @pytest.mark.parametrize("weights_dir", ["missing", "", "a_file"])
    def test_weights_dir_that_is_no_directory_is_input_error(
            self, tmp_path, capsys, command, weights_dir):
        """Even when no layer references a tensor, so the directory is unread."""
        (tmp_path / "a_file").write_text("")
        out = tmp_path / "out"
        code, _, err = run(
            [command, "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"), "--bits", "8",
             "--weights-dir", weights_dir and str(tmp_path / weights_dir),
             "--out", str(out)], capsys)
        assert code == 2
        assert "--weights-dir" in err and "not a directory" in err
        assert not out.exists()

    def test_duplicate_link_is_input_error(self, tmp_path, capsys):
        doc = json.loads(Path(data_path("cluster_2x2.json")).read_text())
        doc["links"].append(dict(doc["links"][0], capacity_bps=1.0))
        cpath = tmp_path / "cluster.json"
        cpath.write_text(json.dumps(doc))
        code, _, err = run(
            ["plan", "--cluster", str(cpath),
             "--model", data_path("model_2x2.json"), "--bits", "8",
             "--out", str(tmp_path / "p.json")], capsys)
        assert code == 2
        assert "DuplicateLink" in err


class TestSimulateCommand:
    def make_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, _, _ = run(["plan", "--cluster", data_path("cluster_2x2.json"),
                          "--model", data_path("model_2x2.json"),
                          "--bits", "8", "--tokens", "1",
                          "--solver", "brute", "--out", str(out)], capsys)
        assert code == 0
        return out

    def test_replay_matches_plan(self, tmp_path, capsys):
        plan = self.make_plan(tmp_path, capsys)
        code, stdout, _ = run(
            ["simulate", "--plan", str(plan),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(tmp_path / "timeline.csv"),
             "--summary", str(tmp_path / "summary.json")], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["completion_time_s"] == pytest.approx(3.0, rel=1e-12)
        rows = (tmp_path / "timeline.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 3

    def test_tampered_objective_is_mismatch(self, tmp_path, capsys):
        plan = self.make_plan(tmp_path, capsys)
        doc = json.loads(plan.read_text())
        doc["objective"]["total_s"] = 2.0
        plan.write_text(json.dumps(doc))
        code, _, err = run(
            ["simulate", "--plan", str(plan),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 5
        assert "mismatch" in err

    def test_unreplayable_plan_is_mismatch(self, tmp_path, capsys):
        plan = self.make_plan(tmp_path, capsys)
        doc = json.loads(plan.read_text())
        doc["assignments"][0]["bits"] = 4  # outside the feasible set {8}
        plan.write_text(json.dumps(doc))
        code, _, err = run(
            ["simulate", "--plan", str(plan),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 5
        assert "mismatch" in err

    def test_literal_storage_plan_replays(self, tmp_path, capsys):
        """Each 10-parameter layer needs 40 B at 8 bits under --storage
        literal, far below the 1e9 B servers."""
        out = tmp_path / "plan.json"
        code, _, err = run(["plan", "--cluster", data_path("cluster_2x2.json"),
                            "--model", data_path("model_2x2.json"), "--bits", "8",
                            "--storage", "literal", "--out", str(out)], capsys)
        assert code == 0, err
        assert json.loads(out.read_text())["options"]["storage"] == "literal"
        code, _, err = run(
            ["simulate", "--plan", str(out),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 0, err

    @pytest.mark.parametrize("flags, options", [
        (["--bits", "8"], DelayOptions()),
        (["--bits", "3,8", "--delta", "0.2", "--scheme", "symmetric", "--tokens", "3",
          "--storage", "literal", "--cp-scaling", "without_pl",
          "--activation-payload", "output_size"],
         DelayOptions("without_pl", False, "literal"))])
    def test_options_block_round_trips(self, tmp_path, capsys, flags, options):
        """Decoding a plan's options gives back the instance (bit menu,
        delta, tokens, feasible bits) and the DelayOptions its flags built."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"l0": [-2.0, 1.0, 2.0], "l1": [-2.0, 1.0, 2.0]})
        model = json.loads(Path(data_path("model_2x2.json")).read_text())
        for layer, ref in zip(model["layers"], ("l0", "l1")):
            layer["weights"] = ref
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        out = tmp_path / "plan.json"
        argv = ["plan", "--cluster", data_path("cluster_2x2.json"), "--model", str(mpath),
                "--weights-dir", str(wdir), *flags, "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 0, err
        instance, built, _ = _load_and_filter(build_parser().parse_args(argv))
        assert built == options and instance.feasible_bits == ((8,), (8,))
        decoded = _load_from_options(data_path("cluster_2x2.json"), mpath,
                                     json.loads(out.read_text())["options"], out)
        assert decoded == (instance, options)

    def test_stale_inputs_are_digest_mismatch(self, tmp_path, capsys):
        plan = self.make_plan(tmp_path, capsys)
        stale = tmp_path / "cluster.json"
        doc = json.loads(Path(data_path("cluster_2x2.json")).read_text())
        doc["servers"][0]["ccs_flops"] = 123.0
        stale.write_text(json.dumps(doc))
        code, _, err = run(
            ["simulate", "--plan", str(plan), "--cluster", str(stale),
             "--model", data_path("model_2x2.json"),
             "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 6
        assert "digest" in err


class TestExportLp:
    def args(self, out, model="model_2x2.json"):
        return ["export-lp", "--cluster", data_path("cluster_2x2.json"),
                "--model", data_path(model), "--bits", "8",
                "--tokens", "1", "--out", str(out)]

    def test_matches_frozen_golden(self, tmp_path, capsys):
        out = tmp_path / "out.lp"
        code, _, _ = run(self.args(out), capsys)
        assert code == 0
        assert out.read_bytes() == Path(data_path("golden_2x2.lp")).read_bytes()

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        run(self.args(a), capsys)
        run(self.args(b), capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_parse(self, tmp_path, capsys):
        from edgeplan.ilp import parse_lp, model_as_parsed, build_ilp
        from edgeplan.delay import build_delay_table
        from conftest import make_2x2_instance
        out = tmp_path / "out.lp"
        run(self.args(out), capsys)
        inst = make_2x2_instance()
        model = build_ilp(inst, build_delay_table(inst))
        assert parse_lp(out.read_text()) == model_as_parsed(model)

    def test_oversized_layer_is_infeasible(self, tmp_path, capsys):
        cluster = {"servers": [{"id": 0, "ccs_flops": 1.0, "storage_bytes": 1.0},
                               {"id": 1, "ccs_flops": 1.0, "storage_bytes": 1.0}],
                   "links": [{"src": 0, "dst": 1, "capacity_bps": 1.0}]}
        cpath = tmp_path / "cluster.json"
        cpath.write_text(json.dumps(cluster))
        code, stdout, _ = run(
            ["export-lp", "--cluster", str(cpath),
             "--model", data_path("model_2x2.json"), "--bits", "8",
             "--out", str(tmp_path / "o.lp")], capsys)
        assert code == 3
        assert json.loads(stdout.strip())["layer"] == 0


class TestPlanWithWeights:
    def test_weight_filter_narrows_bits(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"l0": [-2.0, 1.0, 2.0], "l1": [-2.0, 1.0, 2.0]})
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "l0"},
            {"flops": 200.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "l1"},
        ]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        out = tmp_path / "plan.json"
        code, _, _ = run(
            ["plan", "--cluster", data_path("cluster_2x2.json"),
             "--model", str(mpath), "--bits", "3,8", "--delta", "0.2",
             "--scheme", "symmetric", "--weights-dir", str(wdir),
             "--tokens", "1", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["options"]["feasible_bits"] == [[8], [8]]
        assert all(a["bits"] == 8 for a in doc["assignments"])

    def test_non_finite_weights_are_input_error(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"l1": [-2.0, 1.0, 2.0]})
        write_non_finite_weights(wdir, "l0", [-2.0, math.nan, 2.0])
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": ref} for ref in ("l0", "l1")]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        out = tmp_path / "plan.json"
        code, _, err = run(
            ["plan", "--cluster", data_path("cluster_2x2.json"),
             "--model", str(mpath), "--bits", "8", "--delta", "0.2",
             "--weights-dir", str(wdir), "--out", str(out)], capsys)
        assert code == 2
        assert "l0.bin" in err and "non-finite" in err
        assert not out.exists()
