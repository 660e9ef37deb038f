import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgeplan import cli, core, quant
from edgeplan import solver as solver_module
from edgeplan.cli import _load_and_filter, _load_from_options, build_parser, main
from edgeplan.core import (LayerProfile, LinkSpec, ServerSpec, json_text, load_instance,
                           write_outputs)
from edgeplan.delay import DelayOptions, compute_cm, compute_cp
from edgeplan.quant import WeightTensor, save_weight_tensor

from conftest import data_path, file_digest, object_layout, tensor_with_skewness


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_weights(directory, tensors):
    os.makedirs(directory, exist_ok=True)
    for name, values in tensors.items():
        v = np.asarray(values, dtype=np.float32)
        save_weight_tensor(WeightTensor(name, v, v.shape), directory)


def write_refused_weights(directory, name, values):
    """A tensor file pair whose data WeightTensor itself refuses."""
    os.makedirs(directory, exist_ok=True)
    (directory / f"{name}.json").write_text(json.dumps(
        {"name": name, "shape": [len(values)], "dtype": "f32", "order": "row-major"}))
    (directory / f"{name}.bin").write_bytes(np.asarray(values, dtype="<f4").tobytes())


def test_write_json_leaves_no_partial_file(tmp_path):
    out = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        write_outputs((out, json_text({"a": 1.0, "b": math.nan})))
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

    @pytest.mark.parametrize("flag, value", [("--bits", "4,8"), ("--tokens", "5")])
    def test_no_menu_or_token_flags(self, tmp_path, capsys, flag, value):
        """gen writes the cluster and the model only; the bit menu and the
        token count are flags of the commands that read them."""
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "-m", "3", "-l", "2", flag, value,
                  "--out-dir", str(tmp_path / "inst")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "inst").exists()

    def test_unknown_profile_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "-m", "3", "-l", "2", "--profile", "bogus",
                  "--out-dir", str(tmp_path / "inst")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "inst").exists()


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

    def test_moments_only_for_the_stats_document(self, tmp_path, capsys, monkeypatch):
        """Without --stats-out, only a two-sided tensor whose float32
        skewness estimate cannot tell pays for moments (here one below the
        estimate's range gate), and for no histogram; the report is the
        same either way."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"one_sided": [0.5, 1.0, 2.0],
                             "two_sided": [-1.0, 0.5, 2.0],
                             "two_sided_tiny": [-1e-7, 0.5e-7, 2e-7]})
        calls = []
        stats = quant.distribution_stats

        def spy(w, bins=32):
            calls.append((w.layer_name, bins))
            return stats(w, bins)

        monkeypatch.setattr(quant, "distribution_stats", spy)
        argv = ["quantize", "--weights-dir", str(wdir), "--bits", "4,8",
                "--delta", "0.1", "--out"]
        code, _, _ = run(argv + [str(tmp_path / "a.json")], capsys)
        assert code == 0
        assert calls == [("two_sided_tiny", None)]
        calls.clear()
        code, _, _ = run(argv + [str(tmp_path / "b.json"), "--stats-out",
                                 str(tmp_path / "s.json")], capsys)
        assert code == 0
        assert calls == [("one_sided", 32), ("two_sided", 32), ("two_sided_tiny", 32)]
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_own_outputs_in_the_weights_dir_are_no_tensors(self, tmp_path, capsys):
        """A report and stats written into --weights-dir are left out of
        its tensors on the next run: same stdout, no error, same bytes."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"layer0": [-1.0, 0.5, 2.0]})
        out, stats = wdir / "report.json", wdir / "stats.json"
        argv = ["quantize", "--weights-dir", str(wdir), "--bits", "8", "--delta", "0.1",
                "--out", str(out), "--stats-out", str(stats)]
        first = run(argv, capsys)
        written = out.read_bytes(), stats.read_bytes()
        assert first == (0, "layer0: feasible bits {8}\nquantization ratio: 25.00%\n", "")
        assert run(argv, capsys) == first
        assert (out.read_bytes(), stats.read_bytes()) == written

    def test_weights_dir_name_is_no_glob_pattern(self, tmp_path, capsys):
        write_weights(tmp_path / "w[1]", {"layer0": [-1.0, 0.5, 2.0]})
        assert run(["quantize", "--weights-dir", str(tmp_path / "w[1]"), "--bits", "8",
                    "--delta", "0.1", "--out", str(tmp_path / "r.json")], capsys) == (
            0, "layer0: feasible bits {8}\nquantization ratio: 25.00%\n", "")

    def test_unusable_weights_reported_but_continue(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"good": [-1.0, 1.0]})
        write_refused_weights(wdir, "empty", [])
        write_refused_weights(wdir, "nan", [0.5, math.nan])
        write_refused_weights(wdir, "inf", [math.inf, 1.0])
        out, stats = tmp_path / "r.json", tmp_path / "s.json"
        code, _, err = run(["quantize", "--weights-dir", str(wdir),
                            "--bits", "8", "--delta", "inf", "--out", str(out),
                            "--stats-out", str(stats)], capsys)
        assert code == 0
        assert "nan.bin" in err and "inf.bin" in err and "empty.bin" in err
        assert {r["layer"] for r in json.loads(out.read_text())["records"]} == {"good"}
        assert [d["layer"] for d in json.loads(stats.read_text())["layers"]] == ["good"]

    def test_every_tensor_refused_is_input_error(self, tmp_path, capsys):
        """A directory whose every tensor is refused is refused as an empty
        one is: exit 2 after the tensor's own error, and neither the report
        nor the stats is written."""
        wdir = tmp_path / "w"
        write_refused_weights(wdir, "nan", [0.5, math.nan])
        out, stats = tmp_path / "r.json", tmp_path / "s.json"
        code, stdout, err = run(["quantize", "--weights-dir", str(wdir),
                                 "--bits", "8", "--delta", "inf", "--out", str(out),
                                 "--stats-out", str(stats)], capsys)
        assert (code, stdout) == (2, "")
        first, last = err.splitlines()
        assert first.startswith(f"error: {wdir / 'nan.bin'}: ")
        assert last == f"error: no usable weight tensors in {wdir}"
        assert not out.exists() and not stats.exists()

    def test_name_other_than_the_file_stem_is_refused(self, tmp_path, capsys):
        """b.json naming its tensor "a" is reported and skipped, so the
        report lists each tensor once, under its own file's name."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"a": [-1.0, 1.0]})
        (wdir / "b.json").write_bytes((wdir / "a.json").read_bytes())
        (wdir / "b.bin").write_bytes((wdir / "a.bin").read_bytes())
        out = tmp_path / "r.json"
        code, stdout, err = run(["quantize", "--weights-dir", str(wdir), "--bits", "4,8",
                                 "--delta", "inf", "--out", str(out)], capsys)
        assert (code, err) == (0, f"error: {wdir / 'b.json'}: name 'a' is not the file's stem\n")
        assert stdout == "a: feasible bits {4,8}\nquantization ratio: 12.50%\n"
        assert [r["layer"] for r in json.loads(out.read_text())["records"]] == ["a", "a"]


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
             "--out-dir", str(gen_dir)], capsys)
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

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """Flags, --version and a usage error leave nothing behind in the
        parser main keeps: a later plain plan takes every default again and
        writes the bytes a newly built parser writes, but for its wall time."""
        def without_wall_time(path):
            return re.sub(rb'"wall_time_s": [^,\n]*', b"", path.read_bytes())

        def plain(out):
            return ["plan", "--cluster", data_path("cluster_2x2.json"),
                    "--model", data_path("model_2x2.json"), "--bits", "8",
                    "--out", str(out)]

        fresh = tmp_path / "fresh.json"
        args = build_parser().parse_args(plain(fresh))
        assert args.func(args) == 0
        code, _, _ = run(plain(tmp_path / "literal.json")
                         + ["--storage", "literal", "--tokens", "3"], capsys)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--model", data_path("model_2x2.json"), "--bits", "8",
                  "--out", str(tmp_path / "unused.json")])
        assert exc.value.code == 2
        out = tmp_path / "plain.json"
        code, _, _ = run(plain(out), capsys)
        assert code == 0
        options = json.loads(out.read_text())["options"]
        assert (options["storage"], options["tokens"]) == ("compact", 1)
        assert without_wall_time(out) == without_wall_time(fresh)

    def test_relaxed_solver_reports_bound(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, _ = run(self.plan_args(out, solver="relaxed"), capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["relaxed"] is True
        assert doc["objective"]["lower_bound_s"] == pytest.approx(3.0)

    def test_relaxed_without_a_layered_path_is_infeasible(self, tmp_path, capsys):
        """Both servers hold 1 B, so no layer fits on either: the record
        names layer 0, as export-lp's does."""
        cluster = {"servers": [{"id": 0, "ccs_flops": 1.0, "storage_bytes": 1.0},
                               {"id": 1, "ccs_flops": 1.0, "storage_bytes": 1.0}],
                   "links": [{"src": 0, "dst": 1, "capacity_bps": 1.0}]}
        cpath = tmp_path / "cluster.json"
        cpath.write_text(json.dumps(cluster))
        out = tmp_path / "plan.json"
        code, stdout, err = run(["plan", "--cluster", str(cpath),
                                 "--model", data_path("model_2x2.json"), "--bits", "8",
                                 "--solver", "relaxed", "--out", str(out)], capsys)
        assert (code, err) == (3, "")
        assert json.loads(stdout) == {
            "status": "infeasible", "layer": 0,
            "reason": "layer 0 has no feasible (server, bits) placement"}
        assert not out.exists()

    def test_relaxed_without_a_link_is_infeasible(self, tmp_path, capsys):
        """Every layer has a host but no link joins them: no layered path,
        an infeasible record on stdout like every other solver's, exit 3."""
        cluster = {"servers": [{"id": 0, "ccs_flops": 1.0, "storage_bytes": 1e9},
                               {"id": 1, "ccs_flops": 1.0, "storage_bytes": 1e9}],
                   "links": []}
        cpath = tmp_path / "cluster.json"
        cpath.write_text(json.dumps(cluster))
        out = tmp_path / "plan.json"
        code, stdout, err = run(["plan", "--cluster", str(cpath),
                                 "--model", data_path("model_2x2.json"), "--bits", "8",
                                 "--solver", "relaxed", "--out", str(out)], capsys)
        assert (code, err) == (3, "")
        assert json.loads(stdout) == {
            "status": "infeasible",
            "reason": "no layered path: no chain of links joins a host of each layer, "
                      "server reuse allowed"}
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["plan", "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_l3.json"),  # 3 layers, 2 servers
             "--bits", "8", "--out", str(tmp_path / "p.json")], capsys)
        assert code == 3
        assert json.loads(stdout.strip())["status"] == "infeasible"

    def test_brute_past_its_size_guard_is_input_error(self, tmp_path, capsys):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "1", "-m", "10", "-l", "4",
             "--out-dir", str(gen_dir)], capsys)
        out = tmp_path / "p.json"
        code, stdout, err = run(
            ["plan", "--cluster", str(gen_dir / "cluster.json"),
             "--model", str(gen_dir / "model.json"), "--bits", "4,8,16",
             "--solver", "brute", "--out", str(out)], capsys)
        assert code == 2
        assert "brute-force guard" in err
        assert stdout == "" and not out.exists()

    def test_budget_exit_code(self, tmp_path, capsys):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "5", "-m", "6", "-l", "4",
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
        run(["gen", "--seed", "5", "-m", "6", "-l", "4",
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

    @pytest.mark.parametrize("budget", ["-5", "0", "abc"])
    def test_budget_not_a_positive_integer_is_input_error(self, tmp_path, capsys,
                                                          budget):
        out = tmp_path / "plan.json"
        with pytest.raises(SystemExit) as exc:
            main(self.plan_args(out) + ["--budget", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--budget" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
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

    @pytest.mark.parametrize("command, solver", [
        ("plan", "bnb"), ("plan", "brute"), ("plan", "relaxed"), ("export-lp", None)])
    def test_plan_total_beyond_the_float_range(self, tmp_path, capsys, command, solver):
        # --tokens 7e307: every delay is finite (7e307 to 1.4e308), every
        # plan total is not
        out = tmp_path / "out"
        argv = [command, "--cluster", data_path("cluster_2x2.json"),
                "--model", data_path("model_2x2.json"), "--bits", "8",
                "--tokens", "7" + "0" * 307, "--out", str(out)]
        code, stdout, err = run(argv + (["--solver", solver] if solver else []), capsys)
        assert code == 2
        assert "DelayOverflow" in err and "Traceback" not in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command, solver", [
        ("plan", "bnb"), ("plan", "brute"), ("plan", "relaxed"), ("export-lp", None)])
    def test_payload_beyond_the_float_range(self, tmp_path, capsys, command, solver):
        # layer 0's payload, output_size 1e308 times 4 to 16 bits, is beyond
        # the float range: refused, not read as a missing link, and no
        # inf / inf on an unlinked pair warns on the way
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "1", "-m", "4", "-l", "3", "--out-dir", str(gen_dir)], capsys)
        doc = json.loads((gen_dir / "model.json").read_text())
        doc["layers"][0]["output_size"] = 1e308
        (gen_dir / "model.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [command, "--cluster", str(gen_dir / "cluster.json"),
                "--model", str(gen_dir / "model.json"), "--bits", "4,8,16",
                "--activation-payload", "output_size", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(argv + (["--solver", solver] if solver else []), capsys)
        assert code == 2
        assert "DelayOverflow" in err and "Traceback" not in err
        assert stdout == "" and not out.exists()
        assert caught == []

    def test_lagrangian_pass_near_the_float_limit(self, tmp_path, capsys,
                                                  monkeypatch):
        """The largest total the table admits, with the root Lagrangian
        ascent started before any plain-bound expansion: its penalised
        sums stay in range."""
        monkeypatch.setattr(solver_module, "_FIRST_PROBE", 0)
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 1e12 * (l + 1), "param_count": 10, "output_size": 4.0,
             "original_precision": 32} for l in range(3)]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        argv = ["plan", "--cluster", data_path("cluster_m4.json"),
                "--model", str(mpath), "--bits", "4,8", "--out",
                str(tmp_path / "plan.json"), "--tokens"]
        # bisect for the largest token count the overflow check admits:
        # geometric steps first, then arithmetic ones to 1e-12 relative
        admitted, rejected = 1, 10 ** 309
        while rejected - admitted > admitted // 10 ** 12:
            mid = (math.isqrt(admitted * rejected) if rejected > 2 * admitted
                   else (admitted + rejected) // 2)
            code, _, err = run(argv + [str(mid)], capsys)
            assert code in (0, 2), err
            if code == 0:
                admitted = mid
            else:
                assert "DelayOverflow" in err
                rejected = mid
        assert admitted > 10 ** 290
        assert run(argv + [str(admitted)], capsys)[0] == 0
        doc = json.loads((tmp_path / "plan.json").read_text())
        assert math.isfinite(doc["meta"]["lower_bound_at_root"])
        assert doc["meta"]["expansions"] > 0

    def test_meta_records_expansions_outside_digest(self, tmp_path, capsys):
        gen_dir = tmp_path / "inst"
        run(["gen", "--seed", "5", "-m", "6", "-l", "4",
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
        assert doc["digest"] == file_digest(cluster, model, doc["options"])

    def test_link_view_is_built_once_per_command(self, tmp_path, capsys, monkeypatch):
        """plan's delay table and plan checker, and simulate's checker and
        replay, all read one cluster's link view, built once per command."""
        view = core.ClusterSpec.__dict__["link_view"]
        built, reads = [], []
        monkeypatch.setattr(view, "func", lambda cluster, build=view.func:
                            built.append(cluster) or build(cluster))
        for module, name in ((cli, "build_delay_table"), (cli, "check_plan_feasible")):
            monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), name=name:
                                reads.append(name) or f(*a))
        argv = ["--cluster", data_path("cluster_m4.json"), "--model", data_path("model_l3.json")]
        code, _, err = run(["plan", *argv, "--bits", "8", "--out", str(tmp_path / "p.json")],
                           capsys)
        assert code == 0, err
        assert len(built) == 1 and reads == ["build_delay_table", "check_plan_feasible"]
        code, _, err = run(["simulate", "--plan", str(tmp_path / "p.json"), *argv,
                            "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 0, err
        assert len(built) == 2 and built[0] is not built[1]
        assert reads[2:] == ["check_plan_feasible"]


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
        layer = LayerProfile(1e3, 1000, 4.0, 32)
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

    def test_link_ids_beyond_intp(self, tmp_path, capsys):
        """Ids that fit no intp column are unknown servers, named as given,
        as any other: exit 2, no output."""
        doc = json.loads(Path(data_path("cluster_2x2.json")).read_text())
        doc["links"] += [{"src": 2 ** 63, "dst": 2 ** 70, "capacity_bps": 1.0},
                         {"src": 0, "dst": 2 ** 63, "capacity_bps": 1.0}]
        cpath, out = tmp_path / "cluster.json", tmp_path / "plan.json"
        cpath.write_text(json.dumps(doc))
        assert run(["plan", "--cluster", str(cpath), "--model", data_path("model_2x2.json"),
                    "--bits", "8", "--out", str(out)], capsys) == (2, "", (
            "error: UnknownServerInLink: link 9223372036854775808->"
            "1180591620717411303424 references unknown server; UnknownServerInLink: "
            "link 0->9223372036854775808 references unknown server\n"))
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
        # a negative delta too: the parser is the one owner of the rule
        for delta in ("nan", "-1"):
            argv, out = self.command(tmp_path, command, "8", delta)
            code, _, err = run(argv, capsys)
            assert code == 2
            assert "--delta" in err and "Traceback" not in err
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

    @pytest.mark.parametrize("flag, value, named", [
        # the violation's text, not its code alone; the id is the code's
        pytest.param("--tokens", "-1", "error: NegativeTokens: tokens -1",
                     id="--tokens--1-NegativeTokens"),
        ("--bits", "4,x", "--bits"),
        ("--bits", ",", "--bits"), ("--delta", "abc", "--delta")])
    def test_malformed_flag_is_input_error(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "plan.json"
        code, stdout, err = run(["plan", "--cluster", data_path("cluster_2x2.json"),
                                 "--model", data_path("model_2x2.json"), "--bits", "8",
                                 "--out", str(out), flag, value], capsys)
        assert (code, stdout) == (2, "")
        assert named in err and "Traceback" not in err
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

    def test_objective_one_ulp_off_is_mismatch(self, tmp_path, capsys):
        """The replay must equal the objective exactly: a total one ulp
        above it is a mismatch, and no timeline or summary is written."""
        plan = self.make_plan(tmp_path, capsys)
        doc = json.loads(plan.read_text())
        total = doc["objective"]["total_s"]
        claimed = doc["objective"]["total_s"] = math.nextafter(total, math.inf)
        plan.write_text(json.dumps(doc))
        timeline, summary = tmp_path / "t.csv", tmp_path / "s.json"
        code, _, err = run(
            ["simulate", "--plan", str(plan),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(timeline), "--summary", str(summary)], capsys)
        assert (code, err) == (5, f"mismatch: simulated {total!r} s vs "
                                  f"plan objective {claimed!r} s\n")
        assert not timeline.exists() and not summary.exists()

    def test_tampered_objective_is_mismatch(self, tmp_path, capsys, monkeypatch):
        """The digest does not cover the objective, so the edit reaches the
        verdict, which simulate gives before it renders any row."""
        plan = self.make_plan(tmp_path, capsys)
        doc = json.loads(plan.read_text())
        doc["objective"]["total_s"] = 2.0
        plan.write_text(json.dumps(doc))
        rendered = []
        monkeypatch.setattr(cli, "trace_to_timeline", rendered.append)
        timeline = tmp_path / "t.csv"
        code, _, err = run(
            ["simulate", "--plan", str(plan),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(timeline)], capsys)
        assert code == 5
        assert err.startswith("mismatch: simulated ")
        assert rendered == [] and not timeline.exists()

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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["assignments"][1].update(server=True),
         "assignments[1].server: must be an integer, got true"),
        (lambda doc: doc["assignments"][0].pop("bits"),
         "assignments[0]: missing key 'bits'"),
        (lambda doc: doc["objective"].update(total_s=math.inf),
         "objective.total_s: must be a finite number, got Infinity"),
        (lambda doc: doc["options"].update(delta=math.nan),
         "options.delta: must be a finite number, got NaN"),
        (lambda doc: doc["options"]["feasible_bits"][1].append(8.0),
         "options.feasible_bits[1][1]: must be an integer, got 8.0"),
        (lambda doc: doc.update(digest=5), "digest: must be a string, got 5"),
        (lambda doc: doc.update(relaxed="no"), 'relaxed: must be a boolean, got "no"'),
        (lambda doc: doc.update(relaxed=0), "relaxed: must be a boolean, got 0")],
        ids=["boolean-server", "missing-bits", "infinite-total", "nan-delta",
             "float-width", "number-digest", "string-relaxed", "zero-relaxed"])
    def test_malformed_plan_names_file_and_field(self, tmp_path, capsys, edit, message):
        """The plan's fields are read like the instance files' fields: the
        error names the file and the path down to the field. An edit that
        leaves the digest alone gets the digest of its edited options."""
        plan = self.make_plan(tmp_path, capsys)
        doc = json.loads(plan.read_text())
        del doc["digest"]
        edit(doc)
        doc.setdefault("digest", file_digest(data_path("cluster_2x2.json"),
                                             data_path("model_2x2.json"), doc["options"]))
        plan.write_text(json.dumps(doc))
        code, stdout, err = run(
            ["simulate", "--plan", str(plan),
             "--cluster", data_path("cluster_2x2.json"),
             "--model", data_path("model_2x2.json"),
             "--out", str(tmp_path / "t.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {plan}.{message}\n"

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

    def test_a_10_to_300_token_plan_replays(self, tmp_path, capsys):
        """plan admits 10**300 tokens, and simulate replays them: one
        round's timeline and a summary that counts every round."""
        run(["gen", "--seed", "1", "-m", "4", "-l", "2", "--out-dir", str(tmp_path)],
            capsys)
        files = ["--cluster", str(tmp_path / "cluster.json"),
                 "--model", str(tmp_path / "model.json")]
        plan = tmp_path / "plan.json"
        code, _, err = run(["plan", *files, "--bits", "4,8", "--tokens", "1" + "0" * 300,
                            "--out", str(plan)], capsys)
        assert code == 0, err
        timeline, summary = tmp_path / "t.csv", tmp_path / "s.json"
        code, stdout, err = run(["simulate", "--plan", str(plan), *files,
                                 "--out", str(timeline), "--summary", str(summary)], capsys)
        assert (code, err) == (0, "")
        assert stdout.endswith(f" s, {3 * 10 ** 300} events\n")
        assert len(timeline.read_text().splitlines()) == 1 + 3
        doc = json.loads(summary.read_text())
        assert (doc["events"], doc["rounds"]) == (3 * 10 ** 300, 10 ** 300)

    def test_infeasible_plan_too_long_to_replay_is_a_mismatch(self, tmp_path, capsys):
        """The plan check comes before the replay: a plan of 10**300 rounds
        at a width outside the menu is a mismatch."""
        run(["gen", "--seed", "1", "-m", "4", "-l", "2", "--out-dir", str(tmp_path)],
            capsys)
        files = ["--cluster", str(tmp_path / "cluster.json"),
                 "--model", str(tmp_path / "model.json")]
        plan = tmp_path / "plan.json"
        code, _, err = run(["plan", *files, "--bits", "4,8", "--tokens", "1" + "0" * 300,
                            "--out", str(plan)], capsys)
        assert code == 0, err
        doc = json.loads(plan.read_text())
        doc["assignments"][0]["bits"] = 16
        plan.write_text(json.dumps(doc))
        timeline = tmp_path / "t.csv"
        code, stdout, err = run(["simulate", "--plan", str(plan), *files,
                                 "--out", str(timeline)], capsys)
        assert (code, stdout) == (5, "")
        assert err == ("mismatch: plan cannot be replayed: InfeasibleBits: "
                       "layer 0 at 16 bits (allowed (4, 8))\n")
        assert not timeline.exists()

    @pytest.mark.parametrize("tokens", [1000], ids=["timeline"])
    def test_replay_beyond_memory_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                 tokens):
        """A timeline that does not fit in memory is the generic input
        error, and simulate writes nothing. Here trace_to_timeline raises
        MemoryError without allocating anything large."""
        run(["gen", "--seed", "7", "-m", "5", "-l", "4", "--out-dir", str(tmp_path)],
            capsys)
        files = ["--cluster", str(tmp_path / "cluster.json"),
                 "--model", str(tmp_path / "model.json")]
        plan = tmp_path / "plan.json"
        code, _, err = run(["plan", *files, "--bits", "8", "--tokens", str(tokens),
                            "--out", str(plan)], capsys)
        assert code == 0, err

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "trace_to_timeline", out_of_memory)
        timeline, summary = tmp_path / "t.csv", tmp_path / "s.json"
        code, stdout, err = run(["simulate", "--plan", str(plan), *files,
                                 "--out", str(timeline), "--summary", str(summary)], capsys)
        assert (code, stdout, err) == (2, "", "error: out of memory\n")
        assert not timeline.exists() and not summary.exists()

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

    def test_unparsable_inputs_are_digest_mismatch(self, tmp_path, capsys):
        """The digest is compared before the inputs are parsed: a cluster
        or model file that is no longer JSON is a digest mismatch."""
        plan = self.make_plan(tmp_path, capsys)
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        for flags in (["--cluster", str(broken), "--model", data_path("model_2x2.json")],
                      ["--cluster", data_path("cluster_2x2.json"), "--model", str(broken)]):
            code, _, err = run(["simulate", "--plan", str(plan), *flags,
                                "--out", str(tmp_path / "t.csv")], capsys)
            assert (code, err) == (6, "digest mismatch: plan was produced from "
                                      "different inputs or flags\n")

    def test_each_input_is_opened_once(self, tmp_path, capsys, monkeypatch):
        """The digest hashes the bytes the loader read: plan opens its two
        inputs and its output, simulate its plan, its two inputs and its
        two outputs, each once."""
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)
        monkeypatch.setattr(core, "open", counting_open, raising=False)
        inputs = ["--cluster", data_path("cluster_2x2.json"),
                  "--model", data_path("model_2x2.json")]
        plan = tmp_path / "plan.json"
        assert run(["plan", *inputs, "--bits", "8", "--out", str(plan)], capsys)[0] == 0
        assert opened == ["cluster_2x2.json", "model_2x2.json", "plan.json"]
        opened.clear()
        assert run(["simulate", "--plan", str(plan), *inputs, "--out", str(tmp_path / "t.csv"),
                    "--summary", str(tmp_path / "s.json")], capsys)[0] == 0
        assert opened == ["plan.json", "cluster_2x2.json", "model_2x2.json", "t.csv", "s.json"]


class TestLinkLayouts:
    """gen writes a cluster's links as four arrays; the same cluster with
    one object per link is the same input to every command, under another
    digest."""

    @pytest.fixture
    def clusters(self, tmp_path, capsys):
        """(gen's directory, the column file, its object-layout rewrite)."""
        assert run(["gen", "--seed", "5", "-m", "7", "-l", "4", "--profile", "heterogeneous",
                    "--out-dir", str(tmp_path)], capsys)[0] == 0
        columns, objects = tmp_path / "cluster.json", tmp_path / "objects.json"
        doc = json.loads(columns.read_text())
        assert sorted(doc["links"]) == ["capacity_bps", "dst", "prop_delay_s", "src"]
        objects.write_text(json_text(object_layout(doc)))
        return tmp_path, columns, objects

    def test_both_layouts_give_the_same_outputs(self, clusters, capsys):
        root, *paths = clusters
        shared = ["--model", str(root / "model.json"), "--bits", "4,8,16", "--tokens", "8"]
        outputs, digests = [], []
        for k, cluster in enumerate(paths):
            plan, lp = root / f"plan{k}.json", root / f"problem{k}.lp"
            timeline, summary = root / f"timeline{k}.csv", root / f"summary{k}.json"
            assert run(["plan", "--cluster", str(cluster), *shared, "--out", str(plan)],
                       capsys)[0] == 0
            assert run(["simulate", "--plan", str(plan), "--cluster", str(cluster),
                        "--model", str(root / "model.json"), "--out", str(timeline),
                        "--summary", str(summary)], capsys)[0] == 0
            assert run(["export-lp", "--cluster", str(cluster), *shared, "--out", str(lp)],
                       capsys)[0] == 0
            doc = json.loads(plan.read_text())
            digests.append(doc.pop("digest"))
            del doc["meta"]["wall_time_s"]
            outputs.append((doc, timeline.read_bytes(), summary.read_bytes(), lp.read_bytes()))
        assert outputs[0] == outputs[1]
        assert digests[0] != digests[1]

    def test_plan_from_one_layout_is_stale_for_the_other(self, clusters, capsys):
        root, *paths = clusters
        model = ["--model", str(root / "model.json")]
        for made, replayed in (paths, paths[::-1]):
            plan = root / "plan.json"
            assert run(["plan", "--cluster", str(made), *model, "--bits", "8", "--tokens", "2",
                        "--out", str(plan)], capsys)[0] == 0
            assert run(["simulate", "--plan", str(plan), "--cluster", str(replayed), *model,
                        "--out", str(root / "t.csv")], capsys) == (
                6, "", "digest mismatch: plan was produced from different inputs or flags\n")
            assert not (root / "t.csv").exists()


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

    def test_matches_frozen_golden_m4_l3(self, tmp_path, capsys):
        """Three layers on four servers: the file pins the z column order."""
        out = tmp_path / "out.lp"
        code, stdout, _ = run(["export-lp", "--cluster", data_path("cluster_m4.json"),
                               "--model", data_path("model_l3.json"), "--bits", "4,8",
                               "--tokens", "2", "--out", str(out)], capsys)
        assert (code, stdout) == (0, f"wrote {out}: 36 binaries, 23 constraints\n")
        assert out.read_bytes() == Path(data_path("golden_m4_l3.lp")).read_bytes()

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        run(self.args(a), capsys)
        run(self.args(b), capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_parse(self, tmp_path, capsys):
        from edgeplan.ilp import parse_lp, build_ilp
        from edgeplan.delay import build_delay_table
        from conftest import make_2x2_instance
        out = tmp_path / "out.lp"
        run(self.args(out), capsys)
        inst = make_2x2_instance()
        model = build_ilp(inst, build_delay_table(inst))
        assert parse_lp(out.read_text()) == model

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

    @pytest.mark.parametrize("command", ["plan", "export-lp"])
    def test_tensor_name_other_than_the_file_stem_is_input_error(
            self, tmp_path, capsys, command):
        """The model's "weights": "b" names b.json and b.bin; a b.json
        whose name is "a" is refused, so the filter never narrows a layer
        by a tensor that the quantize report lists under another name."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"a": [-2.0, 1.0, 2.0]})
        (wdir / "b.json").write_bytes((wdir / "a.json").read_bytes())
        (wdir / "b.bin").write_bytes((wdir / "a.bin").read_bytes())
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "b"}]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        out = tmp_path / "out"
        code, stdout, err = run(
            [command, "--cluster", data_path("cluster_2x2.json"), "--model", str(mpath),
             "--bits", "3,8", "--weights-dir", str(wdir), "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {wdir / 'b.json'}: name 'a' is not the file's stem\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["plan", "--solver", "relaxed"],
                                         ["plan", "--solver", "bnb"],
                                         ["plan", "--solver", "brute"], ["export-lp"]],
                             ids=["relaxed", "bnb", "brute", "export-lp"])
    def test_delta_below_a_layers_errors_names_the_layer(self, tmp_path, capsys, command):
        """A --delta below every error of layer 1 leaves it no width: every
        solver and export-lp print the same line, which names it, exit 3
        and write no file."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"l0": [-2.0, 0.0, 2.0], "l1": [-2.0, 1.0, 2.0]})
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "l0"},
            {"flops": 200.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "l1"},
        ]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        before = sorted(tmp_path.rglob("*"))
        assert run([*command, "--cluster", data_path("cluster_2x2.json"),
                    "--model", str(mpath), "--bits", "3,8", "--delta", "1e-9",
                    "--scheme", "symmetric", "--weights-dir", str(wdir),
                    "--out", str(tmp_path / "out")], capsys) == (
            3, '{"status": "infeasible", "layer": 1, "reason": '
               '"layer 1 has no feasible (server, bits) placement"}\n', "")
        assert sorted(tmp_path.rglob("*")) == before

    def test_layer_without_weights_keeps_the_full_menu(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"l0": [-2.0, 1.0, 2.0]})
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "l0"},
            {"flops": 200.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32}]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        out = tmp_path / "plan.json"
        code, _, err = run(
            ["plan", "--cluster", data_path("cluster_2x2.json"),
             "--model", str(mpath), "--bits", "3,8", "--delta", "0.2",
             "--scheme", "symmetric", "--weights-dir", str(wdir), "--out", str(out)],
            capsys)
        assert code == 0, err
        assert json.loads(out.read_text())["options"]["feasible_bits"] == [[8], [3, 8]]

    @pytest.mark.parametrize("command", ["plan", "export-lp"])
    def test_instance_is_validated_once(self, tmp_path, capsys, monkeypatch, command):
        """The weight filter narrows feasible_bits to a sorted subset of the
        validated menu, so the instance is not validated again."""
        wdir = tmp_path / "w"
        write_weights(wdir, {"l0": [-2.0, 1.0, 2.0]})
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": "l0"},
            {"flops": 200.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32}]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        calls = []
        validate = core.validate_instance
        monkeypatch.setattr(core, "validate_instance",
                            lambda instance: calls.append(instance) or validate(instance))
        code, _, err = run(
            [command, "--cluster", data_path("cluster_2x2.json"),
             "--model", str(mpath), "--bits", "3,8", "--delta", "0.2",
             "--weights-dir", str(wdir), "--out", str(tmp_path / "out")], capsys)
        assert code == 0, err
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme", ["auto", "symmetric", "asymmetric"])
    def test_quantize_report_and_plan_filter_agree(self, tmp_path, capsys, scheme):
        """One scheme rule: the widths the quantize report finds feasible are
        the ones plan --weights-dir records, for a one-sided, a symmetric
        two-sided and a skewed two-sided tensor (skewness about 0.79), and
        one of more than a block with skewness just below the threshold."""
        rng = np.random.default_rng(0)
        tensors = {"one_sided": rng.gamma(2.0, 1.0, 10_000),
                   "two_sided": rng.normal(0.0, 1.0, 10_000),
                   "skewed": np.concatenate([rng.normal(0.0, 1.0, 9_000),
                                             rng.gamma(2.0, 1.0, 1_000)]),
                   "near_threshold": tensor_with_skewness(0.4995, quant._BLOCK + 1000, 3)}
        wdir = tmp_path / "w"
        write_weights(wdir, tensors)
        model = {"batch_size": 1, "embedding_size": 4, "layers": [
            {"flops": 100.0, "param_count": 10, "output_size": 4.0,
             "original_precision": 32, "weights": ref} for ref in tensors]}
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        flags = ["--bits", "4,5,6,8", "--delta", "0.3", "--scheme", scheme]
        report, plan = tmp_path / "report.json", tmp_path / "plan.json"
        code, _, _ = run(["quantize", "--weights-dir", str(wdir), *flags,
                          "--out", str(report)], capsys)
        assert code == 0
        code, _, _ = run(["plan", "--cluster", data_path("cluster_m4.json"),
                          "--model", str(mpath), "--weights-dir", str(wdir),
                          *flags, "--out", str(plan)], capsys)
        assert code == 0
        feasible, used = {ref: [] for ref in tensors}, {}
        for r in json.loads(report.read_text())["records"]:
            used[r["layer"]] = r["scheme"]
            if r["feasible"]:
                feasible[r["layer"]].append(r["bits"])
        recorded = json.loads(plan.read_text())["options"]["feasible_bits"]
        assert recorded == [feasible[ref] for ref in tensors]
        if scheme == "auto":
            assert used == {"one_sided": "asymmetric", "two_sided": "symmetric_signed",
                            "skewed": "asymmetric", "near_threshold": "symmetric_signed"}

    def test_non_finite_weights_are_input_error(self, tmp_path, capsys):
        wdir = tmp_path / "w"
        write_weights(wdir, {"l1": [-2.0, 1.0, 2.0]})
        write_refused_weights(wdir, "l0", [-2.0, math.nan, 2.0])
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


class TestBadPaths:
    """A file that cannot be read or written is an input error: exit 2, no
    traceback, and no output file left behind, also by gen, simulate and
    quantize when a second output fails after the first was written."""

    CLUSTER, MODEL = data_path("cluster_2x2.json"), data_path("model_2x2.json")
    FLAGS = {
        "gen": {"--seed": "7", "-m": "5", "-l": "4", "--out-dir": "gen"},
        "plan": {"--cluster": CLUSTER, "--model": MODEL, "--bits": "8",
                 "--out": "plan.json"},
        "export-lp": {"--cluster": CLUSTER, "--model": MODEL, "--bits": "8",
                      "--out": "model.lp"},
        "simulate": {"--plan": "inputs/plan.json", "--cluster": CLUSTER,
                     "--model": MODEL, "--out": "timeline.csv",
                     "--summary": "summary.json"},
        "quantize": {"--weights-dir": "inputs/w", "--bits": "8", "--delta": "inf",
                     "--out": "report.json", "--stats-out": "stats.json"},
    }

    @pytest.mark.parametrize("command, flag, path", [
        ("gen", "--out-dir", "taken"),
        ("plan", "--out", "nodir/plan.json"),
        ("export-lp", "--out", "nodir/model.lp"),
        ("simulate", "--out", "nodir/timeline.csv"),
        ("simulate", "--cluster", "missing.json"),
        ("simulate", "--cluster", "inputs"),
        ("simulate", "--summary", "nodir/summary.json"),
        ("quantize", "--stats-out", "nodir/stats.json"),
        ("plan", "--cluster", "missing.json"),
        ("export-lp", "--model", "inputs"),
        ("simulate", "--plan", "missing.json")],
        ids=["gen-model-is-directory", "plan-out", "export-lp-out", "simulate-out",
             "simulate-missing-cluster", "simulate-cluster-is-directory",
             "simulate-summary", "quantize-stats-out", "plan-missing-cluster",
             "export-lp-model-is-directory", "simulate-missing-plan"])
    def test_is_input_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                               command, flag, path):
        def argv(command, **changed):
            flags = {**self.FLAGS[command], **changed}
            return [command] + [token for pair in flags.items() for token in pair]

        monkeypatch.chdir(tmp_path)
        write_weights(tmp_path / "inputs" / "w", {"layer0": [-1.0, 0.5, 1.0]})
        (tmp_path / "taken" / "model.json").mkdir(parents=True)
        code, _, err = run(argv("plan", **{"--out": "inputs/plan.json"}), capsys)
        assert code == 0, err
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run(argv(command, **{flag: path}), capsys)
        assert code == 2
        assert err.startswith("error: ") and path in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before


class TestOutputCollisions:
    """An output path that is the same file as another output of the same
    command, or as one of its --plan, --cluster or --model inputs, symlinks
    and hard links followed, is an input error naming both flags, before
    anything is read or written."""

    @pytest.mark.parametrize("argv, flags", [
        (["simulate", "--plan", "plan.json", "--cluster", "cluster.json",
          "--model", "model.json", "--out", "x", "--summary", "x"], ("--summary", "--out")),
        (["quantize", "--weights-dir", "w", "--bits", "8", "--delta", "inf",
          "--out", "x", "--stats-out", "./x"], ("--stats-out", "--out")),
        (["plan", "--cluster", "cluster.json", "--model", "model.json", "--bits", "8",
          "--out", "model.json"], ("--out", "--model")),
        (["export-lp", "--cluster", "cluster.json", "--model", "model.json", "--bits", "8",
          "--out", "cluster.json"], ("--out", "--cluster")),
        (["simulate", "--plan", "plan.json", "--cluster", "cluster.json",
          "--model", "model.json", "--out", "link-to-plan"], ("--out", "--plan")),
        (["simulate", "--plan", "plan.json", "--cluster", "cluster.json",
          "--model", "model.json", "--out", "t.csv", "--summary", "hard-link-to-model"],
         ("--summary", "--model")),
        (["simulate", "--plan", "plan.json", "--cluster", "cluster.json",
          "--model", "model.json", "--out", "new/../new.csv", "--summary", "new.csv"],
         ("--summary", "--out"))],
        ids=["simulate-summary-is-out", "quantize-stats-out-is-out", "plan-out-is-model",
             "export-lp-out-is-cluster", "simulate-out-links-to-plan",
             "simulate-summary-is-hard-link-to-model", "simulate-new-outputs-resolve-alike"])
    def test_is_input_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                               argv, flags):
        monkeypatch.chdir(tmp_path)
        for name in ("cluster", "model"):
            (tmp_path / f"{name}.json").write_text(
                Path(data_path(f"{name}_2x2.json")).read_text())
        write_weights(tmp_path / "w", {"layer0": [-1.0, 0.5, 1.0]})
        code, _, err = run(["plan", "--cluster", "cluster.json", "--model", "model.json",
                            "--bits", "8", "--out", "plan.json"], capsys)
        assert code == 0, err
        (tmp_path / "link-to-plan").symlink_to(tmp_path / "plan.json")
        (tmp_path / "hard-link-to-model").hardlink_to(tmp_path / "model.json")
        (tmp_path / "new").mkdir()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert re.fullmatch(f"error: {flags[0]} \\S+: the same file as {flags[1]}\n", err)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestTensorFilesAreNoOutputs:
    """An output path that is either file of a tensor pair in --weights-dir
    (a <name>.json with a <name>.bin beside it), symlinks followed, is an
    input error naming the flag, before anything is read or written. The
    directory's name is no glob pattern."""

    @pytest.mark.parametrize("out", ["w[1]/layer0.json", "w[1]/layer1.bin", "link-to-bin"])
    @pytest.mark.parametrize("command", [
        ["quantize", "--bits", "4,8", "--delta", "0.01"],
        ["plan", "--cluster", "cluster.json", "--model", "model.json", "--bits", "4,8"],
        ["export-lp", "--cluster", "cluster.json", "--model", "model.json", "--bits", "4,8"]],
        ids=["quantize", "plan", "export-lp"])
    def test_is_input_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                               command, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cluster.json").write_text(
            Path(data_path("cluster_2x2.json")).read_text())
        model = json.loads(Path(data_path("model_2x2.json")).read_text())
        for l, layer in enumerate(model["layers"]):
            layer["weights"] = f"layer{l}"
        (tmp_path / "model.json").write_text(json_text(model))
        write_weights(tmp_path / "w[1]", {"layer0": [-1.0, 0.5, 1.0], "layer1": [0.25, 2.0]})
        (tmp_path / "link-to-bin").symlink_to(tmp_path / "w[1]" / "layer1.bin")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        code, stdout, err = run([*command, "--weights-dir", "w[1]", "--out", out], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: --out {out}: a weight tensor file in --weights-dir\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestNotUtf8:
    """A JSON input is read as UTF-8 whatever the locale: a byte that is not
    UTF-8 is an input error naming the file and the byte's offset, exit 2
    with no traceback and no output file."""

    @pytest.mark.parametrize("command, bad", [
        ("plan", "cluster.json"), ("plan", "model.json"),
        ("simulate", "plan.json"), ("plan", "w/layer0.json")],
        ids=["cluster", "model", "plan", "weights"])
    def test_is_input_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                               command, bad):
        monkeypatch.chdir(tmp_path)
        run(["gen", "--seed", "7", "-m", "5", "-l", "4", "--out-dir", "."], capsys)
        model = json.loads((tmp_path / "model.json").read_text())
        model["layers"][0]["weights"] = "layer0"
        (tmp_path / "model.json").write_text(json_text(model))
        write_weights(tmp_path / "w", {"layer0": [-1.0, 0.5, 1.0]})
        inputs = ["--cluster", "cluster.json", "--model", "model.json"]
        plan = ["plan", *inputs, "--bits", "8", "--weights-dir", "w", "--out"]
        code, _, err = run(plan + ["plan.json"], capsys)
        assert code == 0, err
        argv = plan + ["out.json"] if command == "plan" else [
            "simulate", "--plan", "plan.json", *inputs, "--out", "out.csv",
            "--summary", "summary.json"]
        size = (tmp_path / bad).stat().st_size
        with open(tmp_path / bad, "ab") as f:
            f.write(b"\xff")
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8: byte {size}: ")
        assert "Traceback" not in err and out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_byte_order_mark_is_refused(self, tmp_path, capsys):
        cluster = tmp_path / "cluster.json"
        cluster.write_bytes(b"\xef\xbb\xbf" + Path(data_path("cluster_2x2.json")).read_bytes())
        code, _, err = run(["plan", "--cluster", str(cluster), "--model",
                            data_path("model_2x2.json"),
                            "--bits", "8", "--out", str(tmp_path / "plan.json")], capsys)
        assert code == 2
        assert err == f"error: {cluster}: invalid JSON at line 1: Unexpected UTF-8 BOM " \
                      "(decode using utf-8-sig)\n"
        assert not (tmp_path / "plan.json").exists()


class TestNestedTooDeeply:
    """A document nested deeper than the JSON decoder recurses is an input
    error naming the file, exit 2 with no traceback and no output file;
    quantize reports such a tensor and goes on."""

    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run(["gen", "--seed", "7", "-m", "5", "-l", "4", "--out-dir", "."], capsys)
        model = json.loads((tmp_path / "model.json").read_text())
        model["layers"][0]["weights"] = "layer0"
        (tmp_path / "model.json").write_text(json_text(model))
        write_weights(tmp_path / "w", {"layer0": [-1.0, 0.5, 1.0],
                                       "layer1": [-2.0, 0.5, 2.0]})
        code, _, err = run(["plan", "--cluster", "cluster.json", "--model", "model.json",
                            "--bits", "8", "--weights-dir", "w", "--out", "plan.json"],
                           capsys)
        assert code == 0, err
        return tmp_path

    @pytest.mark.parametrize("command, bad", [
        ("plan", "cluster.json"), ("plan", "model.json"), ("plan", "w/layer0.json"),
        ("export-lp", "cluster.json"), ("export-lp", "model.json"),
        ("export-lp", "w/layer0.json"), ("simulate", "plan.json")])
    def test_is_input_error_and_writes_nothing(self, inputs, capsys, command, bad):
        files = ["--cluster", "cluster.json", "--model", "model.json"]
        argv = ([command, *files, "--bits", "8", "--weights-dir", "w", "--out", "out"]
                if command != "simulate" else
                ["simulate", "--plan", "plan.json", *files, "--out", "out.csv",
                 "--summary", "summary.json"])
        (inputs / bad).write_text(self.DEEP)
        before = sorted(inputs.rglob("*"))
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {bad}: nested too deeply\n")
        assert sorted(inputs.rglob("*")) == before

    def test_quantize_reports_the_tensor_and_goes_on(self, inputs, capsys):
        (inputs / "w" / "layer0.json").write_text(self.DEEP)
        code, out, err = run(["quantize", "--weights-dir", "w", "--bits", "8",
                              "--delta", "inf", "--out", "report.json"], capsys)
        assert code == 0
        assert err == "error: w/layer0.json: nested too deeply\n"
        assert out.startswith("layer1: feasible bits {8}\n")
        assert [r["layer"] for r in json.loads((inputs / "report.json").read_text())
                ["records"]] == ["layer1"]


class TestOutOfMemory:
    """A run that does not fit in memory is an input error in every command:
    exit 2 with the allocator's message, or "out of memory" when it has
    none, no traceback and no output file. The MemoryError is raised by a
    stub; nothing large is allocated."""

    @staticmethod
    def out_of_memory(message):
        def raise_(*args, **kwargs):
            raise MemoryError(*message)
        return raise_

    @pytest.mark.parametrize("message, shown", [
        ((), "out of memory"), (("Unable to allocate 8.00 TiB",), "Unable to allocate 8.00 TiB")],
        ids=["bare", "with-text"])
    def test_quantize(self, tmp_path, capsys, monkeypatch, message, shown):
        write_weights(tmp_path / "w", {"layer0": [-1.0, 0.5, 1.0]})
        monkeypatch.setattr(quant, "distribution_stats", self.out_of_memory(message))
        report, stats = tmp_path / "r.json", tmp_path / "s.json"
        code, _, err = run(["quantize", "--weights-dir", str(tmp_path / "w"),
                            "--bits", "8", "--delta", "inf", "--out", str(report),
                            "--stats-out", str(stats)], capsys)
        assert (code, err) == (2, f"error: {shown}\n")
        assert not report.exists() and not stats.exists()

    @pytest.mark.parametrize("command", ["plan", "export-lp"])
    def test_plan_and_export_lp(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "build_delay_table", self.out_of_memory(()))
        out = tmp_path / "out"
        code, stdout, err = run([command, "--cluster", data_path("cluster_2x2.json"),
                                 "--model", data_path("model_2x2.json"), "--bits", "8",
                                 "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", "error: out of memory\n")
        assert not out.exists()


class TestHandEditedPlans:
    """`gen --seed 7 -m 5 -l 4` planned at --tokens 16: the optimum,
    855.5727 s, runs on servers [0, 3, 1, 2] at 4 bits. Each edit below
    breaks one plan rule and claims the total that a replay charging no
    self-hop would compute, so only the plan rules can refuse it."""

    def setup(self, tmp_path, capsys, tiny_server=None):
        run(["gen", "--seed", "7", "-m", "5", "-l", "4",
             "--out-dir", str(tmp_path)], capsys)
        cluster, model = tmp_path / "cluster.json", tmp_path / "model.json"
        if tiny_server is not None:
            doc = json.loads(cluster.read_text())
            doc["servers"][tiny_server]["storage_bytes"] = 1.0
            cluster.write_text(json.dumps(doc))
        plan = tmp_path / "plan.json"
        code, _, err = run(["plan", "--cluster", str(cluster), "--model", str(model),
                            "--bits", "4,8,16", "--tokens", "16", "--out", str(plan)],
                           capsys)
        assert code == 0, err
        doc = json.loads(plan.read_text())
        assert [a["server"] for a in doc["assignments"]] == [0, 3, 1, 2]
        assert doc["objective"]["total_s"] == pytest.approx(855.5727, abs=1e-4)
        return cluster, model, plan, doc

    @staticmethod
    def free_self_hop_total(servers, cluster, model):
        inst = load_instance(cluster, model, bit_menu=(4, 8, 16), delta=math.inf,
                             tokens=16)
        layers, n = inst.model.layers, inst.tokens
        total = sum(compute_cp(layers[l], inst.cluster.servers[i], 4, n)
                    for l, i in enumerate(servers))
        for l, (i, j) in enumerate(zip(servers, servers[1:])):
            if i != j:
                total += compute_cm(layers[l], inst.cluster.link(i, j), 4, n,
                                    inst.model.batch_size, inst.model.embedding_size)
        return total

    @pytest.mark.parametrize("server", [-1, 5])
    def test_server_outside_the_cluster_is_unknown(self, tmp_path, capsys, server):
        """-1 is no alias of server M - 1 = 4, which 0 links to and 1 from:
        both hops through the unknown server are missing."""
        cluster, model, plan, doc = self.setup(tmp_path, capsys)
        doc["assignments"][1]["server"] = server
        plan.write_text(json.dumps(doc))
        code, stdout, err = run(["simulate", "--plan", str(plan), "--cluster", str(cluster),
                                 "--model", str(model), "--out", str(tmp_path / "t.csv")],
                                capsys)
        assert code == 5 and stdout == ""
        assert err == ("mismatch: plan cannot be replayed: "
                       f"UnknownServer: layer 1 on server {server}; "
                       f"MissingLink: layers 0->1 need link 0->{server}; "
                       f"MissingLink: layers 1->2 need link {server}->1\n")

    @pytest.mark.parametrize("servers, tiny_server, violation, total", [
        ([0, 0, 1, 2], None, "DuplicateServer", 847.9874),
        ([0, 3, 0, 2], None, "DuplicateServer", 907.6768),
        ([0, 3, 1, 4], 4, "StorageOverflow", None)],
        ids=["consecutive_repeat", "repeat", "storage"])
    def test_simulate_refuses(self, tmp_path, capsys, servers, tiny_server,
                              violation, total):
        cluster, model, plan, doc = self.setup(tmp_path, capsys, tiny_server)
        for a, i in zip(doc["assignments"], servers):
            a["server"] = i
        claimed = self.free_self_hop_total(servers, cluster, model)
        if total is not None:
            assert claimed == pytest.approx(total, abs=1e-4)
        doc["objective"]["total_s"] = claimed
        plan.write_text(json.dumps(doc))
        timeline, summary = tmp_path / "timeline.csv", tmp_path / "summary.json"
        code, stdout, err = run(["simulate", "--plan", str(plan), "--cluster", str(cluster),
                                 "--model", str(model), "--out", str(timeline),
                                 "--summary", str(summary)], capsys)
        assert code == 5
        assert violation in err and "Traceback" not in err and stdout == ""
        assert not timeline.exists() and not summary.exists()


class TestNoLayers:
    """A model with no layers is an input error, with no output written."""

    def write_model(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"batch_size": 1, "embedding_size": 4,
                                     "layers": []}))
        return model

    @pytest.mark.parametrize("argv", [
        ["plan", "--solver", "bnb"], ["plan", "--solver", "brute"],
        ["plan", "--solver", "relaxed"], ["export-lp"]],
        ids=["bnb", "brute", "relaxed", "export-lp"])
    def test_plan_and_export_lp(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--cluster", data_path("cluster_2x2.json"),
                                        "--model", str(self.write_model(tmp_path)),
                                        "--bits", "8", "--out", str(out)], capsys)
        assert code == 2
        assert "NoLayers" in err and "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_simulate(self, tmp_path, capsys):
        cluster, model = data_path("cluster_2x2.json"), self.write_model(tmp_path)
        options = {"bits": [8], "delta": "inf", "tokens": 1, "feasible_bits": [],
                   **DelayOptions().to_doc()}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "digest": file_digest(cluster, model, options), "assignments": [],
            "objective": {"total_s": 0.0}, "options": options}))
        timeline = tmp_path / "timeline.csv"
        code, _, err = run(["simulate", "--plan", str(plan), "--cluster", cluster,
                            "--model", str(model), "--out", str(timeline)], capsys)
        assert code == 2
        assert "NoLayers" in err and "Traceback" not in err
        assert not timeline.exists()

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code, _, err = run(["gen", "--seed", "1", "-m", "3", "-l", "0",
                            "--out-dir", str(out)], capsys)
        assert code == 2
        assert "NoLayers" in err and "Traceback" not in err
        assert not out.exists()
