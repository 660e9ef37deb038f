"""Smoke tests: the shipped scripts run end to end against the package."""

import importlib
import os
import re
import shlex
import subprocess
import sys

import pytest

from edgeplan.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def run_script(name, *args):
    """Run a shipped script; a numpy overflow or invalid operation fails it,
    as the suite's warning filter fails an in-process test."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_solver_suite():
    proc = run_script("run_solver_suite.py", "--instances", "20")
    assert proc.returncode == 0, proc.stderr
    assert "feasible /" in proc.stdout
    assert "root bound gap:" in proc.stdout


def test_run_solver_suite_lagrangian_route():
    """--lagrangian starts every ascent at once: each feasible instance's
    search takes at least one step of the Lagrangian ascent, and the suite
    says so."""
    proc = run_script("run_solver_suite.py", "--instances", "12", "--lagrangian")
    assert proc.returncode == 0, proc.stderr
    feasible = int(re.search(r"^(\d+) feasible /", proc.stdout, re.M).group(1))
    assert feasible > 0
    steps = re.search(rf"^escalated to the Lagrangian bound: {feasible} of "
                      rf"{feasible} searches, (\d+) ascent steps$", proc.stdout, re.M)
    assert steps and int(steps.group(1)) >= feasible, proc.stdout


@pytest.mark.parametrize("args, message", [
    (("--max-layers", "0"), "need 1 <= --max-layers <= --max-servers"),
    (("--max-layers", "7", "--max-servers", "5"), "need 1 <= --max-layers <= --max-servers"),
    (("--max-layers", "7", "--max-servers", "9"), "--max-layers above brute force's limit of 6"),
    (("--max-layers", "4", "--max-servers", "10"), "--max-servers above brute force's limit of 9"),
])
def test_run_solver_suite_refuses_sizes_it_cannot_run(args, message):
    proc = run_script("run_solver_suite.py", "--instances", "1", *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_demo_pipeline(tmp_path):
    proc = run_script("demo_pipeline.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("plan.json", "timeline.csv", "summary.json", "problem.lp",
                 "quant_report.json"):
        assert (tmp_path / name).is_file(), name


def readme_cli_commands():
    """argv of each command in the README's CLI block, continuations joined."""
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    return [argv for line in block.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch):
    commands = readme_cli_commands()
    assert [argv[1] for argv in commands if argv[0] == "edgeplan"] == \
        ["gen", "quantize", "plan", "simulate", "export-lp"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "edgeplan":
            assert main(argv[1:]) == 0, argv
        else:
            assert argv[0] == "python3" and argv[1].startswith("scripts/"), argv
            proc = run_script(argv[1].removeprefix("scripts/"), *argv[2:])
            assert proc.returncode == 0, (argv, proc.stderr)
    assert (tmp_path / "run" / "timeline.csv").is_file()


@pytest.fixture
def perfbench():
    """perfbench's session, inputs, checks and tracing modules, imported as
    its scripts import them; sys.path and sys.modules are restored after."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, PERFBENCH)
    try:
        yield {name: importlib.import_module(name)
               for name in ("session", "inputs", "checks", "tracing")}
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(PERFBENCH):
                del sys.modules[name]


@pytest.mark.parametrize("workload", ["wide", "deep", "artifacts"])
def test_benchmark_chain_runs_and_checks(perfbench, workload, tmp_path, capsys):
    """The benchmark's first case of each workload runs its command chain
    under the tracer, and every check it applies finds no problem: the
    names and signatures the benchmark uses still hold."""
    session, checks = perfbench["session"], perfbench["checks"]
    case = perfbench["inputs"].write_pool(workload, 1, 1, str(tmp_path))[0]
    tracer = perfbench["tracing"].Tracer()
    try:
        tracer.install()
        for argv in session.chain_commands(case):
            assert main(argv) == 0, (argv, capsys.readouterr().err)
    finally:
        tracer.uninstall()
    assert tracer.spans and tracer.counters["sim.events"] > 0
    plan = case.out("plan.json")
    problems = (checks.check_plan(case, plan)
                + checks.check_simulation(case, plan, case.out("summary.json")))
    if case.weights_dir:
        problems += (checks.check_quant_paths(case, case.out("quant.json"), plan)
                     + checks.check_lp(case, case.out("model.lp"), plan))
    assert problems == []
