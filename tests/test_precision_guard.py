"""Source rule: the package's arithmetic is binary64 and error-free
transformations of it, the same on every platform.

No module in ``src/sendov_lab`` names numpy's extended-precision types,
whose width depends on the platform (binary64 on some), or mpmath, which
is a test-only dependency.  ``from_roots`` gets twice binary64 precision
from the double-double transformations in ``bounds`` instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sendov_lab"
# numpy's extended types under every name it has given them, and mpmath.
FORBIDDEN = {
    "longdouble", "clongdouble", "longfloat", "clongfloat", "longcomplex",
    "float96", "float128", "complex192", "complex256", "mpmath",
}


def forbidden_names(source: str, filename: str) -> list[str]:
    """'line: name' for every forbidden name, attribute or import in source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name in FORBIDDEN]
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_extended_precision_or_mpmath(path):
    assert forbidden_names(path.read_text(encoding="utf-8"), path.name) == []


def test_guard_finds_each_form():
    source = (
        "import numpy as np\n"
        "import mpmath as mp\n"
        "from mpmath import mpf\n"
        "from numpy import clongdouble\n"
        "x = np.longdouble(1)\n"
        "y = longcomplex\n"
        "def f():\n"
        "    import mpmath.libmp\n"
    )
    assert forbidden_names(source, "x.py") == [
        "2: mpmath", "3: mpmath", "4: clongdouble", "5: longdouble", "6: longcomplex",
        "8: mpmath",
    ]
