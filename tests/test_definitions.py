"""Every top-level definition of the package is read by the code that ships.

The scan parses the package, the scripts and the benchmark with ``ast``,
as tests/test_imports.py does. A top-level function, class or constant of
``src/edgeplan/*.py`` counts as read when some name, attribute or import
in those files names it outside its own definition. Code that only the
tests read belongs with the tests (tests/oracles.py), not in the package.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "edgeplan", "*.py")))
READERS = sorted(path for pattern in ("src/edgeplan/*.py", "scripts/*.py", "perfbench/*.py")
                 for path in glob.glob(os.path.join(ROOT, pattern)))


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions, classes and assigned names, each
    with the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def names_read(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """The names the code under ``node`` reads, by a name, an attribute or
    an import, leaving out the subtree ``skip``."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in n.names)
        stack.extend(ast.iter_child_nodes(n))
    return out


def parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read())


TREES = {path: parse(path) for path in READERS}


def unread(path: str, trees: dict[str, ast.Module]) -> list[str]:
    """The definitions of the module at ``path`` that no tree in ``trees``
    reads outside the definition itself."""
    elsewhere = set().union(*(names_read(tree) for p, tree in trees.items() if p != path))
    tree = trees[path]
    return sorted(name for name, node in definitions(tree).items()
                  if name not in elsewhere and name not in names_read(tree, skip=node)
                  and not (name.startswith("__") and name.endswith("__")))


def test_scan_sees_the_readers():
    assert {"src/edgeplan/cli.py", "scripts/run_solver_suite.py",
            "perfbench/checks.py"} <= {os.path.relpath(p, ROOT) for p in READERS}


def test_unread_definitions_are_found():
    module = ("A = 1\nB: int = 2\nC, D = 3, 4\n"
              "def f():\n    return f()\n"
              "class K:\n    pass\n"
              "def g():\n    return A + C\n"
              "__version__ = '1'\n")
    trees = {"m.py": ast.parse(module),
             "other.py": ast.parse("from m import B\nimport x\nx.g(K)\n")}
    assert unread("m.py", trees) == ["D", "f"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_definition_is_read(path):
    names = unread(path, TREES)
    assert names == [], f"{os.path.relpath(path, ROOT)}: nothing outside tests/ reads {names}"
