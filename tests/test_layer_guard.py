"""Layer rule: the critical-point kernel and its callers stand without the
coefficient root finder.

``cli``, ``verify`` and ``polynomial`` import nothing from ``roots``, whose
finder serves only the round-trip criterion and its tests, and
``polynomial`` does not take the double-double transformations that only
``roots`` needs.  ``roots`` itself imports the sweep loop from
``polynomial``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sendov_lab"
KERNEL_SIDE = ("cli.py", "verify.py", "polynomial.py")
# Names that only the finder's double-double arithmetic uses.
FINDER_ONLY = {"_two_product", "_two_sum"}


def finder_imports(source: str, filename: str) -> list[str]:
    """'line: name' for every import of the ``roots`` module, or from it,
    and of a finder-only helper from anywhere, in source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if "roots" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if "roots" in module:
                found.append(f"{node.lineno}: {node.module}")
            found += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if alias.name == "roots" or alias.name in FINDER_ONLY]
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


@pytest.mark.parametrize("name", KERNEL_SIDE)
def test_kernel_side_imports_no_finder(name):
    path = SRC / name
    assert finder_imports(path.read_text(encoding="utf-8"), name) == []


def test_guard_finds_each_form():
    source = (
        "from .roots import find_roots\n"
        "from . import bounds, roots\n"
        "import sendov_lab.roots\n"
        "from sendov_lab.roots import Polynomial\n"
        "from .bounds import DomainError, _two_product, _two_sum\n"
        "from .polynomial import _sweeps\n"
        "def f():\n"
        "    from . import roots as finder\n"
    )
    assert finder_imports(source, "x.py") == [
        "1: roots", "2: roots", "3: sendov_lab.roots", "4: sendov_lab.roots",
        "5: _two_product", "5: _two_sum", "8: roots",
    ]

