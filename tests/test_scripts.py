"""Smoke tests: the shipped scripts run end to end against the package."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_solver_suite():
    proc = run_script("run_solver_suite.py", "--instances", "20")
    assert proc.returncode == 0, proc.stderr
    assert "feasible /" in proc.stdout
    assert "root bound gap:" in proc.stdout


def test_demo_pipeline(tmp_path):
    proc = run_script("demo_pipeline.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("plan.json", "timeline.csv", "summary.json", "problem.lp",
                 "quant_report.json"):
        assert (tmp_path / name).is_file(), name
