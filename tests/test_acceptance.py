"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines as they execute."""

import json
import random
import time

import numpy as np
import pytest

from edgeplan.cli import main as cli_main
from edgeplan.delay import build_delay_table, path_delay
from edgeplan.gen import random_test_instance
from edgeplan.ilp import build_ilp, parse_lp, substitute, write_lp
from edgeplan.quant import WeightTensor, save_weight_tensor
from edgeplan.sim import simulate
from edgeplan.solver import (solve_branch_and_bound, solve_brute_force,
                             solve_relaxed_dp)

from conftest import data_path, make_2x2_instance
from oracles import (check_linearized, max_abs_error, quantize_asymmetric,
                     quantize_symmetric)
from test_solver import dominant_server_instance

N_SUITE = 200


def _report(criterion, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok


@pytest.fixture(scope="module")
def suite():
    """The shared seeded instance suite: L in [1,4], M in [L,6], up to 3
    bit-widths, random feasible-bit subsets."""
    out = []
    for seed in range(N_SUITE):
        rng = random.Random(900_000 + seed)
        inst = random_test_instance(rng, max_layers=4, max_servers=6)
        out.append((inst, build_delay_table(inst)))
    return out


def test_criterion_1_oracle_equivalence(suite):
    t0 = time.perf_counter()
    ok = True
    for inst, table in suite:
        exact = solve_brute_force(inst, table)
        got = solve_branch_and_bound(table)
        if exact.plan is None:
            ok &= got.plan is None
            continue
        ok &= got.objective == exact.objective
        ok &= got.plan.assignments == exact.plan.assignments
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(f"criterion 1: branch-and-bound == brute force on {N_SUITE} "
            f"instances (equal objectives, identical plans) in {elapsed:.2f}s",
            ok)


def test_criterion_2_relaxation_admissibility(suite):
    ok = True
    for inst, table in suite:
        exact = solve_brute_force(inst, table)
        if exact.plan is None:
            continue
        bound, _ = solve_relaxed_dp(table)
        ok &= bound <= exact.objective + 1e-12
    fixture = dominant_server_instance()
    table = build_delay_table(fixture)
    bound, _ = solve_relaxed_dp(table)
    optimum = solve_brute_force(fixture, table).objective
    strict = bound < optimum - 1e-12
    _report("criterion 2: DP lower bound admissible on the suite and "
            "strictly below the optimum on the server-dominance fixture",
            ok and strict)


def test_criterion_3_simulator_identity(suite):
    ok = True
    for inst, table in suite:
        result = solve_brute_force(inst, table)
        if result.plan is None:
            continue
        trace = simulate(result.plan.assignments, inst)
        servers = [i for i, _ in result.plan.assignments]
        total, _, _ = path_delay(table.cp, table.cm, servers)
        ok &= trace.completion_time == total
        L = inst.model.num_layers
        ok &= len(trace.events) == min(inst.tokens, 1) * (2 * L - 1)
    _report("criterion 3: replay completion time == closed-form total "
            "(bit for bit) and one round of 2L-1 events for every feasible plan",
            ok)


def test_criterion_4_linearization_equivalence():
    rng = np.random.default_rng(41)
    discrepancies = 0
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        a = rng.uniform(-10, 10, n)
        b = a + rng.uniform(-1, 1, n) * rng.choice([0.0, 0.1, 1.0])
        delta = float(rng.uniform(0, 1.5))
        if check_linearized(a, b, delta) != (max_abs_error(a, b) <= delta):
            discrepancies += 1
    _report("criterion 4: two-inequality form == max-abs-error form on 1000 "
            f"random tensor pairs ({discrepancies} discrepancies)",
            discrepancies == 0)


def test_criterion_5_quantizer_bounds():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 128))
        values = (rng.uniform(-50, 50, n) * rng.choice([1e-3, 1.0, 1e3])
                  ).astype(np.float32)
        w = WeightTensor("t", values, values.shape)
        bits = int(rng.integers(2, 9))
        sym = quantize_symmetric(w, bits)
        asym = quantize_asymmetric(w, bits)
        ok &= max_abs_error(w.values, sym.dequantized) <= sym.scale / 2 + 1e-12
        ok &= max_abs_error(w.values, asym.dequantized) <= asym.scale / 2 + 1e-12
    for values in ([0.0, 0.0, 0.0], [2.5, 2.5], [-3.0, -3.0]):
        v = np.asarray(values, dtype=np.float32)
        w = WeightTensor("c", v, v.shape)
        for bits in (2, 5, 8):
            ok &= max_abs_error(v, quantize_symmetric(w, bits).dequantized) == 0.0
            ok &= max_abs_error(v, quantize_asymmetric(w, bits).dequantized) == 0.0
    _report("criterion 5: quantization error <= scale/2 + 1e-12 for both "
            "schemes on 1000 random tensors; constant/zero tensors exact",
            ok)


def test_criterion_6_hand_computed_fixtures(tmp_path, capsys):
    ok = True
    # 2x2 optimum through the CLI
    plan_path = tmp_path / "plan.json"
    code = cli_main(["plan", "--cluster", data_path("cluster_2x2.json"),
                     "--model", data_path("model_2x2.json"),
                     "--bits", "8", "--tokens", "1",
                     "--solver", "bnb", "--out", str(plan_path)])
    ok &= code == 0
    doc = json.loads(plan_path.read_text())
    ok &= doc["objective"]["total_s"] == pytest.approx(3.0, rel=1e-12)
    ok &= [(a["server"], a["bits"]) for a in doc["assignments"]] == [(0, 8), (1, 8)]

    # symmetric b=3 on [-2, 1, 2] and feasible-bit filtering through the CLI
    wdir = tmp_path / "w"
    wdir.mkdir()
    v = np.array([-2.0, 1.0, 2.0], dtype=np.float32)
    save_weight_tensor(WeightTensor("layer0", v, v.shape), wdir)
    report_path = tmp_path / "report.json"
    code = cli_main(["quantize", "--weights-dir", str(wdir),
                     "--bits", "2,3,8", "--delta", "0.2",
                     "--scheme", "symmetric", "--out", str(report_path)])
    ok &= code == 0
    records = json.loads(report_path.read_text())["records"]
    by_bits = {r["bits"]: r for r in records}
    ok &= by_bits[3]["max_abs_error"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    ok &= sorted(b for b, r in by_bits.items() if r["feasible"]) == [8]
    capsys.readouterr()
    with capsys.disabled():
        _report("criterion 6: CLI reproduces the hand-computed fixtures "
                "(2x2 optimum 3.0 s; b=3 error 1/3; feasible bits {8} at "
                "delta 0.2)", ok)


def test_criterion_7_lp_export(tmp_path, capsys):
    inst = make_2x2_instance()
    table = build_delay_table(inst)
    model = build_ilp(inst, table)
    with open(data_path("golden_2x2.lp")) as f:
        golden = f.read()
    ok = write_lp(model) == golden

    out = tmp_path / "cli.lp"
    code = cli_main(["export-lp", "--cluster", data_path("cluster_2x2.json"),
                     "--model", data_path("model_2x2.json"),
                     "--bits", "8", "--tokens", "1", "--out", str(out)])
    ok &= code == 0 and out.read_text() == golden
    ok &= parse_lp(golden) == model

    # brute-force optimum satisfies every exported row, on the golden
    # fixture and across random instances (including multi-bit z models)
    for seed in range(40):
        rng = random.Random(700_000 + seed)
        rinst = random_test_instance(rng, link_density=1.0)
        rtable = build_delay_table(rinst)
        exact = solve_brute_force(rinst, rtable)
        if exact.plan is None:
            continue
        rmodel = build_ilp(rinst, rtable)
        reparsed = parse_lp(write_lp(rmodel))
        ok &= reparsed.binaries == rmodel.binaries
        ok &= len(reparsed.constraints) == len(rmodel.constraints)
        _, obj, violated = substitute(rmodel, exact.plan.assignments)
        ok &= violated == []
        ok &= obj == pytest.approx(exact.objective, rel=1e-9)
    capsys.readouterr()
    with capsys.disabled():
        _report("criterion 7: LP export byte-identical to the frozen golden "
                "file, reparse reproduces the model, optimum satisfies every "
                "exported row", ok)


def test_criterion_8_structural_monotonicity():
    from test_solver import _with_extra_server, _with_full_bits
    ok = True
    for seed in range(25):
        rng = random.Random(800_000 + seed)
        inst = random_test_instance(rng, max_servers=5)
        base = solve_branch_and_bound(build_delay_table(inst))
        grown = _with_extra_server(inst)
        more = solve_branch_and_bound(build_delay_table(grown))
        if base.plan is not None:
            ok &= more.plan is not None and more.objective <= base.objective + 1e-12
    for seed in range(25):
        rng = random.Random(850_000 + seed)
        inst = random_test_instance(rng)
        base = solve_branch_and_bound(build_delay_table(inst))
        wide = _with_full_bits(inst)
        more = solve_branch_and_bound(build_delay_table(wide))
        if base.plan is not None:
            ok &= more.plan is not None and more.objective <= base.objective + 1e-12
    _report("criterion 8: adding a server or widening feasible-bit sets "
            "never increases the optimum (50 instance pairs)", ok)
