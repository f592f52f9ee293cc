"""Layer rule: the critical-point kernel and its callers stand without the
coefficient root finder.

``cli``, ``verify`` and ``polynomial`` import nothing from ``roots``, whose
finder serves only the round-trip criterion and its tests, and
``polynomial`` does not take the double-double transformations that only
``roots`` needs.  ``roots`` itself imports the sweep loop from
``polynomial``.  No module imports scipy at module level: the finder's
functions import it when called, so importing the package, or running a
command, loads no scipy.  No module imports ``logging`` or
``concurrent.futures`` anywhere, so the kernel's helper thread is a plain
``threading.Thread``.

One form per job in ``verify``: a single function builds every
``VerificationOutcome``, and no exact quadratic is written there, since
mu2's lives in ``bounds`` alone (``verify`` takes no ``as_integer_ratio``).
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


def module_level_scipy_imports(source: str, filename: str) -> list[str]:
    """'line: module' for every import of scipy, or from it, outside a
    function body in source (class bodies and ``if`` blocks run at import)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            found.extend(f"{node.lineno}: {alias.name}" for alias in node.names
                         if alias.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "scipy":
                found.append(f"{node.lineno}: {node.module}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source, filename))
    return found


@pytest.mark.parametrize("name", sorted(path.name for path in SRC.glob("*.py")))
def test_no_module_level_scipy_import(name):
    path = SRC / name
    assert module_level_scipy_imports(path.read_text(encoding="utf-8"), name) == []


def test_scipy_guard_finds_each_form():
    source = (
        "import scipy\n"
        "import numpy, scipy.optimize as opt\n"
        "from scipy.sparse import csgraph\n"
        "from .scipy import helper\n"
        "import scipyx\n"
        "class C:\n"
        "    from scipy import linalg\n"
        "def f():\n"
        "    from scipy.optimize import linear_sum_assignment\n"
        "    import scipy\n"
        "if True:\n"
        "    import scipy.special\n"
    )
    assert module_level_scipy_imports(source, "x.py") == [
        "1: scipy", "2: scipy.optimize", "3: scipy.sparse", "7: scipy", "12: scipy.special",
    ]


# Modules no src module imports, nor any module under them:
# concurrent.futures imports logging, which costs 2.8 ms of import and adds
# 0.64-0.93 MB of peak RSS to a run, more than the 0.2-0.35 MB that
# fuzz-matrix peak_rss_mb spreads over runs of one commit.
HEAVY = ("logging", "concurrent.futures")


def heavy_imports(source: str, filename: str) -> list[str]:
    """'line: module' for every import of a HEAVY module, or of anything
    from it or under it, at any depth of source."""

    def heavy(name):
        return any(name == top or name.startswith(top + ".") for top in HEAVY)

    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names if heavy(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.lineno}: {node.module}.{alias.name}" for alias in node.names
                      if heavy(f"{node.module}.{alias.name}")]
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


@pytest.mark.parametrize("name", sorted(path.name for path in SRC.glob("*.py")))
def test_no_logging_or_concurrent_futures_import(name):
    path = SRC / name
    assert heavy_imports(path.read_text(encoding="utf-8"), name) == []


def test_heavy_import_guard_finds_each_form():
    source = (
        "import logging\n"
        "import numpy, concurrent.futures as cf\n"
        "from logging import getLogger, INFO\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import logging.handlers\n"
        "from .logging import helper\n"
        "import concurrent\n"
        "import loggingx\n"
        "def f():\n"
        "    import logging\n"
    )
    assert heavy_imports(source, "x.py") == [
        "1: logging", "2: concurrent.futures", "3: logging.getLogger", "3: logging.INFO",
        "4: concurrent.futures", "5: concurrent.futures.ThreadPoolExecutor",
        "6: logging.handlers", "11: logging",
    ]


def outcome_builders(source: str, filename: str) -> list[str]:
    """The innermost enclosing function ('<module>' at top level) of every
    call of ``VerificationOutcome``, by name or as an attribute, in source."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "VerificationOutcome":
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), "<module>")
    return found


def integer_ratio_lines(source: str, filename: str) -> list[int]:
    """The line of every use of an ``as_integer_ratio`` attribute in source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
    )


def test_verify_builds_outcomes_in_one_function():
    source = (SRC / "verify.py").read_text(encoding="utf-8")
    assert len(set(outcome_builders(source, "verify.py"))) == 1


def test_verify_writes_no_exact_quadratic():
    source = (SRC / "verify.py").read_text(encoding="utf-8")
    assert integer_ratio_lines(source, "verify.py") == []


def test_outcome_guards_find_each_form():
    source = (
        "from . import verify\n"
        "def one():\n"
        "    return VerificationOutcome('a', True, 1.0, 0.5, 1, '')\n"
        "def two():\n"
        "    def inner():\n"
        "        return verify.VerificationOutcome(*args)\n"
        "    return [VerificationOutcome(*x) for x in y]\n"
        "def three(a):\n"
        "    na, da = a.as_integer_ratio()\n"
        "    return float.as_integer_ratio\n"
        "OUT = VerificationOutcome(*z)\n"
    )
    assert outcome_builders(source, "x.py") == ["one", "inner", "two", "<module>"]
    assert integer_ratio_lines(source, "x.py") == [9, 10]
