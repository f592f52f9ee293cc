"""Source rule: the verifier's numbers never come from numpy's SIMD
transcendentals, which round differently from libm on a few percent of
inputs and would make verify's bytes depend on the machine.

``bounds.py`` and ``verify.py`` may name np.log, np.log1p, np.exp,
np.power and np.float_power only inside the functions ALLOWED_IN lists:
``bounds._d_screen``, whose values the verifier re-checks with libm before
reporting any of them, and the two conjecture checks, which build
polynomial instances, not verify's report.  Everything else goes through
``bounds._libm``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sendov_lab"
FORBIDDEN = {"log", "log1p", "exp", "power", "float_power"}
ALLOWED_IN = {
    ("bounds.py", "_d_screen"): (
        "np.log of the bases per a and np.exp per sample screen D; "
        "verify._screened_min confirms its minimum with libm"
    ),
    ("verify.py", "fuzz_sendov"): "complex exp of random angles draws the trial zeros",
    ("verify.py", "check_extremal"): "complex exp places the extremal families' zeros",
}


def numpy_transcendentals(source: str, filename: str) -> list[str]:
    """'line: name (in function)' for every forbidden numpy name in source,
    outside the functions ALLOWED_IN lists for filename."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = None
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            hit = f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [alias.name for alias in node.names if alias.name in FORBIDDEN]
            hit = ", ".join(f"numpy.{n}" for n in names) or None
        if hit and (filename, function) not in ALLOWED_IN:
            found.append(f"{node.lineno}: {hit} (in {function})")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename), None)
    return found


@pytest.mark.parametrize("filename", ["bounds.py", "verify.py"])
def test_no_numpy_transcendentals(filename):
    source = (SRC / filename).read_text(encoding="utf-8")
    assert numpy_transcendentals(source, filename) == []


def test_guard_finds_each_form():
    source = (
        "import numpy as np\n"
        "from numpy import log1p\n"
        "def f(x):\n"
        "    return np.log(x) + np.power(x, 3)\n"
        "g = map(numpy.exp, [1.0])\n"
        "def _d_screen(x):\n"
        "    return np.float_power(x, 0.5)\n"
    )
    assert numpy_transcendentals(source, "verify.py") == [
        "2: numpy.log1p (in None)",
        "4: np.log (in f)",
        "4: np.power (in f)",
        "5: numpy.exp (in None)",
        "7: np.float_power (in _d_screen)",
    ]
    assert numpy_transcendentals(source, "bounds.py")[-1] == "5: numpy.exp (in None)"
