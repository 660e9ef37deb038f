"""Every imported name is used by the module that imports it.

The scan parses the package, the tests and the scripts with ``ast``: a
name bound by an import counts as used when the module reads it anywhere
(``np.zeros`` reads ``np``). Re-exports that other code imports from a
module on purpose are listed in ``REEXPORTS``.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(path for pattern in ("src/edgeplan/*.py", "tests/*.py", "scripts/*.py")
                 for path in glob.glob(os.path.join(ROOT, pattern)))
# (module file, name): importable from the module that re-exports it
REEXPORTS = {("src/edgeplan/ilp.py", "storage_bytes"),
             ("src/edgeplan/ilp.py", "check_plan_feasible")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (not ``from __future__``) that
    it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_scan_sees_the_sources():
    assert {"src/edgeplan/cli.py", "tests/test_imports.py",
            "scripts/demo_pipeline.py"} <= {os.path.relpath(p, ROOT) for p in SOURCES}


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c as d\nnp.zeros(d)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    rel = os.path.relpath(path, ROOT)
    with open(path) as f:
        unused = [name for name in unused_imports(f.read())
                  if (rel, name) not in REEXPORTS]
    assert unused == [], f"{rel} imports {unused} and never uses them"
