"""Every file the package opens is opened binary and unbuffered:
``open(path, mode, buffering=0)`` with a "b" in the literal mode. A
text-mode file would translate line ends and encode by the locale, and a
buffered one copies each byte once more through its buffer; the package
encodes and decodes UTF-8 itself (core.load_json, core.write_outputs).

The scan parses the package with ``ast``, as tests/test_definitions.py
does. It checks every call of ``open``, ``io.open`` or a path object's
``open``; ``os.open`` returns a descriptor, which has no buffer.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "edgeplan", "*.py")))


def parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read())


TREES = {path: parse(path) for path in PACKAGE}


def _arg(call: ast.Call, index: int, name: str):
    """The argument passed at ``index`` or by keyword ``name``, or None."""
    if len(call.args) > index:
        return call.args[index]
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def buffered_or_text_opens(tree: ast.Module) -> list[int]:
    """Line numbers of the open calls that are not binary with buffering=0."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            first = 1  # open(file, mode, buffering)
        elif isinstance(f, ast.Attribute) and f.attr == "open":
            owner = f.value.id if isinstance(f.value, ast.Name) else None
            if owner == "os":
                continue
            # io.open as open; a path object's open(mode, buffering)
            first = 1 if owner in ("io", "builtins") else 0
        else:
            continue
        mode, buffering = _arg(node, first, "mode"), _arg(node, first + 1, "buffering")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value
                and isinstance(buffering, ast.Constant) and buffering.value == 0):
            out.append(node.lineno)
    return out


def test_text_and_buffered_opens_are_found():
    module = ('open(p, "rb", buffering=0)\n'
              'open(p, "wb", 0)\n'
              'os.open(p, os.O_RDONLY)\n'
              'open(p)\n'
              'open(p, "w", buffering=0)\n'
              'open(p, "rb")\n'
              'io.open(p, mode, buffering=0)\n'
              'path.open("rb", buffering=1)\n'
              'Path(p).open("wb", 0)\n'
              'io.BytesIO(b"")\n')
    assert buffered_or_text_opens(ast.parse(module)) == [4, 5, 6, 7, 8]


def test_scan_sees_the_package_opens():
    found = sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open"
                for tree in TREES.values() for n in ast.walk(tree))
    assert found >= 3  # core.read_bytes, core.write_outputs, quant.load_weight_tensor


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_open_is_binary_and_unbuffered(path):
    lines = buffered_or_text_opens(TREES[path])
    assert lines == [], f"{os.path.relpath(path, ROOT)}: open at lines {lines}"
