"""Every refusal code the package reports is named by some test.

The scan parses the package with ``ast`` and collects each string literal
passed as the first argument of a ``Violation(...)`` call: the codes of
core.validate_instance, of the plan checker and of the delay table's
limits. Each code must appear, as a whole word, in another test
file, so a rule that no test names is found when it is written.
"""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "edgeplan", "*.py")))
TESTS = sorted(path for path in glob.glob(os.path.join(ROOT, "tests", "**", "*.py"),
                                          recursive=True)
               if os.path.abspath(path) != os.path.abspath(__file__))


def violation_codes(source: str) -> set[str]:
    """The string literals passed first to ``Violation(...)`` in the source."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Violation" and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)}


def read(path: str) -> str:
    with open(path) as f:
        return f.read()


CODES = sorted(set().union(*(violation_codes(read(path)) for path in SOURCES)))
TEST_TEXTS = [read(path) for path in TESTS]


def test_codes_are_found():
    source = ('Violation("A", "x")\nViolation(code, "y")\nv = [Violation(\n'
              '    "B", f"{m}")]\nother("C")\nViolation.code\n')
    assert violation_codes(source) == {"A", "B"}


def test_scan_sees_the_codes():
    assert {"NoLayers", "UnknownServer", "DelayOverflow", "ParamCountOverflow",
            "PayloadOverflow"} <= set(CODES)
    # every link rule of validate_instance
    assert {"NonFiniteValue", "DuplicateLink", "LinkCapacityNonPositive", "SelfLink",
            "UnknownServerInLink", "NegativePropagationDelay"} <= set(CODES)
    assert os.path.join(ROOT, "tests", "test_core.py") in TESTS


@pytest.mark.parametrize("code", CODES)
def test_code_is_named_by_a_test(code):
    word = re.compile(rf"\b{code}\b")
    assert any(word.search(text) for text in TEST_TEXTS), f"no test names {code}"
