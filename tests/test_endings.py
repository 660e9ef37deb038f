"""Every command ends one of three ways, argparse's usage errors aside:
its own stdout line and exit 0; ``_no_plan``'s JSON record on stdout and
exit 3 or 4; or one ``error:`` line on stderr, printed by ``main``, and
exit 2, 5 or 6. No non-zero exit leaves an output file.

The table below drives ``cli.main`` to each refusal. The scan after it
parses ``src/edgeplan/cli.py`` with ``ast``, as tests/test_definitions.py
parses the package, and keeps that one way out: only ``main`` and
``cmd_quantize`` (its per-tensor skip notices) print to stderr, and a
``cmd_*`` function returns ``EXIT_OK`` or a ``_no_plan(...)`` call, so
every other ending is an exception that ``main`` prints.
"""

import ast
import json
import os
import shutil
from pathlib import Path

import pytest

from edgeplan.cli import main

from conftest import data_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = os.path.join(ROOT, "src", "edgeplan", "cli.py")


def inputs(tmp):
    """Copies of the 2x2 fixture's cluster and model files."""
    return [str(shutil.copy(data_path(name), tmp / name))
            for name in ("cluster_2x2.json", "model_2x2.json")]


def oversized(tmp):
    """The 2x2 fixture with a first layer no server can store at any width."""
    cluster, model = inputs(tmp)
    doc = json.loads(Path(model).read_text())
    doc["layers"][0]["param_count"] = 10 ** 12
    Path(model).write_text(json.dumps(doc))
    return ["--cluster", cluster, "--model", model, "--bits", "8"]


def simulate(tmp, edit=lambda doc, model: None, solver="bnb"):
    """simulate's argv and outputs for a 2x2 plan, once ``edit`` has
    changed the plan document or the model file."""
    cluster, model = inputs(tmp)
    plan = tmp / "plan.json"
    assert main(["plan", "--cluster", cluster, "--model", model, "--bits", "8",
                 "--solver", solver, "--out", str(plan)]) == 0
    doc = json.loads(plan.read_text())
    edit(doc, model)
    plan.write_text(json.dumps(doc))
    return (["simulate", "--plan", str(plan), "--cluster", cluster, "--model", model,
             "--out", str(tmp / "t.csv"), "--summary", str(tmp / "s.json")],
            ["t.csv", "s.json"])


def edit_model(doc, model):
    text = Path(model).read_text()
    Path(model).write_text(text.replace('"flops": 100.0', '"flops": 150.0'))


def tamper_objective(doc, model):
    doc["objective"]["total_s"] = 2.0


def reuse_server(doc, model):
    for a in doc["assignments"]:
        a["server"] = 0


def plan_2x2(tmp, *flags):
    cluster, model = inputs(tmp)
    return (["plan", "--cluster", cluster, "--model", model, "--bits", "8", *flags,
             "--out", str(tmp / "plan.json")], ["plan.json"])


# id -> (argv and output names, made in a directory; exit code; the start
# of the one line the command prints)
ENDINGS = {
    "simulate-edited-model": (lambda tmp: simulate(tmp, edit_model), 6,
                              "error: digest mismatch: "),
    "simulate-tampered-objective": (lambda tmp: simulate(tmp, tamper_objective), 5,
                                    "error: mismatch: simulated "),
    "simulate-reused-server": (lambda tmp: simulate(tmp, reuse_server), 5,
                               "error: mismatch: plan cannot be replayed: DuplicateServer"),
    "simulate-relaxed": (lambda tmp: simulate(tmp, solver="relaxed"), 2,
                         "error: relaxed documents carry a bound"),
    "plan-missing-cluster": (lambda tmp: (
        ["plan", "--cluster", str(tmp / "missing.json"), "--model", inputs(tmp)[1],
         "--bits", "8", "--out", str(tmp / "plan.json")], ["plan.json"]), 2, "error: "),
    "plan-oversized-layer": (lambda tmp: (
        ["plan", *oversized(tmp), "--out", str(tmp / "plan.json")], ["plan.json"]), 3,
        '{"status": "infeasible", "layer": 0'),
    "plan-budget-1": (lambda tmp: plan_2x2(tmp, "--budget", "1"), 4,
                      '{"status": "budget_exceeded"'),
    "export-lp-oversized-layer": (lambda tmp: (
        ["export-lp", *oversized(tmp), "--out", str(tmp / "o.lp")], ["o.lp"]), 3,
        '{"status": "infeasible", "layer": 0'),
    "quantize-empty-directory": (lambda tmp: (
        ["quantize", "--weights-dir", str(tmp), "--bits", "8", "--delta", "0.1",
         "--out", str(tmp / "r.json"), "--stats-out", str(tmp / "st.json")],
        ["r.json", "st.json"]), 2, "error: no weight tensors in "),
    "gen-more-layers-than-servers": (lambda tmp: (
        ["gen", "--seed", "1", "-m", "2", "-l", "3", "--out-dir", str(tmp / "g")],
        ["g/cluster.json", "g/model.json"]), 2, "error: --layers 3 > --servers 2"),
}


@pytest.mark.parametrize("setup, code, start", ENDINGS.values(), ids=ENDINGS)
def test_a_refusal_is_one_line_and_no_file(tmp_path, capsys, setup, code, start):
    argv, outputs = setup(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code in (3, 4):
        assert err == "" and out.startswith(start) and out.count("\n") == 1
        assert json.loads(out)["status"] == ("infeasible" if code == 3 else "budget_exceeded")
    else:
        assert out == "" and err.startswith(start) and err.count("\n") == 1
        assert err.endswith("\n")
    assert [name for name in outputs if (tmp_path / name).exists()] == []


def own_returns(node: ast.AST):
    """The return statements of a function's own body, not those of the
    functions nested in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Return):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from own_returns(child)


def prints_to_stderr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                    for kw in node.keywords))


def exits_cleanly(value: ast.expr | None) -> bool:
    """``EXIT_OK`` or a ``_no_plan(...)`` call."""
    return (isinstance(value, ast.Name) and value.id == "EXIT_OK"
            or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "_no_plan")


def stray_endings(tree: ast.Module, printers=("main", "cmd_quantize")) -> list[str]:
    """function:line: statement, for each ``print(..., file=sys.stderr)``
    in a top-level definition not named in ``printers``, nested functions
    included, and each ``return`` of a ``cmd_*`` function, nested
    functions aside, that returns neither ``EXIT_OK`` nor a
    ``_no_plan(...)`` call."""
    found = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if name not in printers:
            found += [(name, node) for node in ast.walk(top) if prints_to_stderr(node)]
        if name.startswith("cmd_"):
            found += [(name, node) for node in own_returns(top)
                      if not exits_cleanly(node.value)]
    return [f"{name}:{node.lineno}: {ast.unparse(node)}"
            for name, node in sorted(found, key=lambda pair: (pair[0], pair[1].lineno))]


def test_stray_endings_are_found():
    module = ("import sys\n"
              "print('x', file=sys.stderr)\n"
              "def main():\n    print('error', file=sys.stderr)\n    return 2\n"
              "def cmd_a(args):\n"
              "    if args.x:\n        return _no_plan(layer=0)\n"
              "    def inner():\n        return 7\n"
              "    print('done')\n    return EXIT_OK\n"
              "def cmd_b(args):\n"
              "    if args.x:\n        print('no', file=sys.stderr)\n        return EXIT_DIGEST\n"
              "    def warn():\n        print('w', file=sys.stderr)\n"
              "    print('done', file=sys.stdout)\n    return\n"
              "def helper():\n    return 5\n")
    assert stray_endings(ast.parse(module)) == [
        "<module>:2: print('x', file=sys.stderr)",
        "cmd_b:15: print('no', file=sys.stderr)",
        "cmd_b:16: return EXIT_DIGEST",
        "cmd_b:18: print('w', file=sys.stderr)",
        "cmd_b:20: return"]


with open(CLI) as f:
    CLI_TREE = ast.parse(f.read())


def test_cli_has_one_way_out():
    assert stray_endings(CLI_TREE) == []


def test_the_allowed_printers_still_print():
    assert {line.split(":")[0] for line in stray_endings(CLI_TREE, printers=())} == {
        "main", "cmd_quantize"}
