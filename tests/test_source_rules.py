"""Source rules for ``src/sendov_lab``, the tests and the tools: each is a
filter over one walk of a module (``facts``), and a new rule adds a filter,
a RULES row, its forms to SELF_TEST and a CAUGHT row.

*layer*: the critical-point kernel and its callers stand without the
coefficient root finder.  ``cli``, ``verify`` and ``polynomial`` import
nothing from ``roots``, whose finder serves only the round-trip criterion
and its tests, nor the double-double transformations only ``roots`` needs.
``roots`` itself imports the sweep loop from ``polynomial``.

*scipy*: no module imports scipy at module level.  ``match_roots``, its
one user, imports it when called, so importing the package, running a
command or finding roots loads no scipy.

*heavy*: no module imports ``logging`` or ``concurrent.futures``, nor any
module under them, anywhere.  concurrent.futures imports logging, which
costs 2.8 ms of import and adds 0.64-0.93 MB of peak RSS to a run, more
than the 0.2-0.35 MB that fuzz-matrix peak_rss_mb spreads over runs of one
commit.

*libm*: the verifier's numbers never come from numpy's SIMD
transcendentals, which round differently from libm on a few percent of
inputs and would make verify's bytes depend on the machine.  ``bounds.py``
and ``verify.py`` name np.log, np.log1p, np.exp, np.power and
np.float_power only in the functions ALLOWED_IN lists (a lambda is a
function of its own): ``bounds._simd``, the map of both transcendental
screens, whose minima the verifier confirms with libm.  Everything else
goes through ``bounds._libm``.

*precision*: the package's arithmetic is binary64 and error-free
transformations of it, the same on every platform.  No module names
numpy's extended-precision types, whose width depends on the platform
(binary64 on some), or mpmath, a test-only dependency.  ``from_roots``
gets twice binary64 precision from ``_eft``'s double-double instead.

*builder* and *ratio*: one form per job in ``verify``.  A single function
builds every ``VerificationOutcome``, and no exact quadratic is written
there, as mu2's lives in ``bounds`` alone (no ``as_integer_ratio``).

*contract*: ``reference_pass`` in ``tests/test_verify.py`` rebuilds
verify's outcomes from ``bounds``' public functions, so it and its
``_reference`` helpers name no private name of ``bounds`` or ``verify``
(``bounds._simd``, ``verify._grid``): none of verify's screens or
shortcuts reaches the truth they are held to.  Nor does the module import
a private name of either, which would reach the helpers as a bare name.

*reference*: the tests and tools take their exact truths from
``tests/exact.py`` alone.  No other test module and no tool calls
``mpmath.polyroots``, or sets mpmath's precision through ``mp.dps`` or
``mp.prec``, which would hold for every test run after it;
``mpmath.workdps`` sets it for one block.

*families*: ``tools/families.py`` imports numpy and ``__future__`` alone:
no ``sendov_lab``, no other tool and no relative import.  The seeded rows
stay independent of the code they test, and any script, the benchmark's
too, can load the module by path.

*startup*: ``check`` and ``fuzz`` start without ``bounds``, whose closed
forms they never run.  ``polynomial`` imports nothing from ``bounds``,
anywhere; ``cli`` imports it only inside the commands that evaluate the
bound; and ``_arguments``, the argument rule and its error class that
every module shares, imports nothing from the package.

*audit*: ``verify`` audits the derivation of the bound on ``bounds``
alone and imports nothing else from the package, at module level or in a
function: above all not ``polynomial``, whose kernel checks the conjecture
on concrete polynomials, fuzzing included.  So ``verify`` starts without
loading the kernel.

*standalone*: ``tests/exact.py`` imports nothing from ``sendov_lab``, at
module level or in a function, so a fault in the package cannot reach the
references the tests hold it to.

*leaf*: ``_eft``, the error-free transformations that ``bounds`` and
``roots`` share, imports numpy alone: nothing from the package, no
``__future__`` and no other library.  So the root finder loads its
double-double arithmetic without the paper's closed forms.

*sums*: the kernel's sums F = sum k/(w - zeta), S = sum 1/(w - zeta) and
T = sum k/(w - zeta)^2 are written once, so the starts, the Aberth step
and the certificate round them alike.  ``polynomial.py`` names
np.reciprocal only in the functions RECIPROCAL_IN lists: ``_sums``, and
``_aberth_corrections`` for its sum over a row's other points.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sendov_lab"
MODULES = tuple(sorted(path.name for path in SRC.glob("*.py")))
TEST_MODULES = tuple(sorted(path.name for path in TESTS.glob("*.py") if path.name != "exact.py"))
TOOLS = TESTS.parent / "tools"
TOOL_MODULES = tuple(sorted(path.name for path in TOOLS.glob("*.py")))


def facts(source: str) -> list[tuple]:
    """(line, function, kind, text, level) for every import, attribute, name
    and call in source.  function is the innermost enclosing def or
    "<lambda>", None at module level (class bodies and ``if`` blocks too).
    An import gives one fact per name it binds, "x.y" for ``import x.y`` and
    "m.n" for ``from m import n``, level counting the leading dots.  An
    attribute gives "base.attr", a name its id, a call what it calls."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        if isinstance(node, ast.Import):
            found.extend((node.lineno, function, "import", alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, function, "import",
                          ".".join(filter(None, (node.module, alias.name))), node.level)
                         for alias in node.names)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            found.append((node.lineno, function, type(node).__name__.lower(), ast.unparse(node), 0))
        elif isinstance(node, ast.Call):
            found.append((node.lineno, function, "call", ast.unparse(node.func), 0))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def layer(found, filename):
    return [(line, text) for line, _, kind, text, _ in found if kind == "import"
            and ("roots" in text.split(".") or text.endswith(("_two_product", "_two_sum")))]


def scipy(found, filename):
    return [(line, text) for line, function, kind, text, level in found if kind == "import"
            and function is None and level == 0 and text.split(".")[0] == "scipy"]


def heavy(found, filename):
    return [(line, text) for line, _, kind, text, level in found if kind == "import"
            and level == 0 and (text + ".").startswith(("logging.", "concurrent.futures."))]


NUMPY_TRANSCENDENTALS = {f"{base}.{name}" for base in ("np", "numpy")
                         for name in ("log", "log1p", "exp", "power", "float_power")}
ALLOWED_IN = {
    ("bounds.py", "_simd"): "numpy's log, log1p and power screen the D contraction and the "
                            "estimate chain's interior links; verify._screened confirms each "
                            "minimum with libm",
}


def libm(found, filename):
    return [(line, text) for line, function, _, text, _ in found
            if text in NUMPY_TRANSCENDENTALS and (filename, function) not in ALLOWED_IN]


RECIPROCALS = {"np.reciprocal", "numpy.reciprocal"}
RECIPROCAL_IN = {
    ("polynomial.py", "_sums"): "F, S and T of the starts, the Aberth step and the certificate",
    ("polynomial.py", "_aberth_corrections"): "the sum over a row's other points",
}


def sums(found, filename):
    return [(line, text) for line, function, _, text, _ in found
            if text in RECIPROCALS and (filename, function) not in RECIPROCAL_IN]


# numpy's extended types under every name it has given them, and mpmath.
EXTENDED = {"longdouble", "clongdouble", "longfloat", "clongfloat", "longcomplex",
            "float96", "float128", "complex192", "complex256", "mpmath"}


def precision(found, filename):
    return [(line, text) for line, _, _, text, _ in found if EXTENDED & set(text.split("."))]


def builder(found, filename):
    """Unless one function makes them all, each VerificationOutcome call (0 if none)."""
    builds = [(line, f"built in {function}") for line, function, kind, text, _ in found
              if kind == "call" and text.split(".")[-1] == "VerificationOutcome"]
    return [] if len({text for _, text in builds}) == 1 else builds or [(0, "no builder")]


def ratio(found, filename):
    return [(line, text) for line, _, _, text, _ in found if "as_integer_ratio" in text.split(".")]


def reference(found, filename):
    return [(line, text) for line, _, _, text, _ in found if "polyroots" in text.split(".")
            or text.split(".")[-2:] in (["mp", "dps"], ["mp", "prec"])]


def contract(found, filename):
    def private(text):
        parts = text.split(".")
        return any(base in ("bounds", "verify") and name.startswith("_")
                   for base, name in zip(parts, parts[1:]))

    return [(line, text) for line, function, kind, text, _ in found if private(text)
            and (kind == "import" or (function or "").lstrip("_").startswith("reference"))]


def families(found, filename):
    return [(line, text) for line, _, kind, text, level in found if kind == "import"
            and (level or text.split(".")[0] not in ("numpy", "__future__"))]


def audit(found, filename):
    return [(line, text) for line, _, kind, text, level in found if kind == "import"
            and (level or text.split(".")[0] == "sendov_lab")
            and text.removeprefix("sendov_lab.").split(".")[0] != "bounds"]


def standalone(found, filename):
    return [(line, text) for line, _, kind, text, level in found if kind == "import"
            and (level or text.split(".")[0] == "sendov_lab")]


def leaf(found, filename):
    return [(line, text) for line, _, kind, text, level in found if kind == "import"
            and (level or text.split(".")[0] != "numpy")]


def startup(found, filename):
    if filename == "_arguments.py":
        return standalone(found, filename)
    return [(line, text) for line, function, kind, text, level in found if kind == "import"
            and (level or text.split(".")[0] == "sendov_lab")
            and text.removeprefix("sendov_lab.").split(".")[0] == "bounds"
            and (filename == "polynomial.py" or function is None)]


RULES = {
    "layer": (("cli.py", "polynomial.py", "verify.py"), layer),
    "scipy": (MODULES, scipy),
    "heavy": (MODULES, heavy),
    "libm": (("bounds.py", "verify.py"), libm),
    "precision": (MODULES, precision),
    "builder": (("verify.py",), builder),
    "ratio": (("verify.py",), ratio),
    "reference": (TEST_MODULES + TOOL_MODULES, reference),
    "contract": (("test_verify.py",), contract),
    "families": (("families.py",), families),
    "audit": (("verify.py",), audit),
    "startup": (("_arguments.py", "cli.py", "polynomial.py"), startup),
    "standalone": (("exact.py",), standalone),
    "leaf": (("_eft.py",), leaf),
    "sums": (("polynomial.py",), sums),
}


def caught(rule: str, source: str, filename: str) -> list[tuple[int, str]]:
    """(line, text) of each distinct breach of rule in source, by line."""
    return sorted(set(RULES[rule][1](facts(source), filename)))


@pytest.mark.parametrize("rule, filename",
                         [(rule, name) for rule, (names, _) in RULES.items() for name in names])
def test_module_keeps_rule(rule, filename):
    path = (SRC if filename in MODULES else TOOLS if filename in TOOL_MODULES else TESTS) / filename
    assert caught(rule, path.read_text(encoding="utf-8"), filename) == []


SELF_TEST = """\
from .roots import find_roots
from . import bounds, roots
import sendov_lab.roots
from sendov_lab.roots import Polynomial
from .bounds import DomainError, _two_product, _two_sum
from .polynomial import _sweeps
from . import verify
import scipy
import numpy, scipy.optimize as opt
from scipy.sparse import csgraph
from .scipy import helper
import scipyx
import logging
import numpy, concurrent.futures as cf
from logging import getLogger, INFO
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
import logging.handlers
from .logging import helper
import concurrent
import loggingx
import numpy as np
import mpmath as mp
from mpmath import mpf
from numpy import clongdouble
from numpy import log1p
x = np.longdouble(1)
y = longcomplex
g = map(numpy.exp, [1.0])
OUT = VerificationOutcome(*z)
class C:
    from scipy import linalg
if True:
    import scipy.special
def f(x):
    from . import roots as finder
    from scipy.optimize import linear_sum_assignment
    import scipy
    import logging
    import mpmath.libmp
    return np.log(x) + np.power(x, 3)
def _d_screen(x):
    return np.float_power(x, 0.5)
def fuzz_sendov(t):
    draw = lambda: np.exp(t)
    return np.exp(t)
def one():
    return VerificationOutcome('a', True, 1.0, 0.5, 1, '')
def two():
    def inner():
        return verify.VerificationOutcome(*args)
    return [VerificationOutcome(*x) for x in y]
def three(a):
    na, da = a.as_integer_ratio()
    return float.as_integer_ratio
mpmath.mp.dps = 60
mp.mp.prec = 200
from mpmath import mp, polyroots
mp.dps = 50
roots = mpmath.polyroots([1, 0, -1])
with mpmath.workdps(60):
    x = polyroots(c)
def _simd(fn, x):
    return {pow: np.power}[fn](x)
def reference_pass(step):
    return bounds._simd(pow, step) + verify._grid(step)
def _reference_chain(step):
    return sendov_lab.bounds._d(step) + bounds.mu2(step) + verify.verify_pass(step)
def _check(step):
    return verify._grid(step) + bounds._libm(step)
from sendov_lab.verify import _grid, verify_pass
from __future__ import annotations
import numpy.random
from numpy.random import default_rng
import kernel_agreement
from .families import disk
from sendov_lab import polynomial
from sendov_lab import bounds, cli
import sendov_lab, sendov_lab.bounds
from sendov_lab.bounds import DEFAULT_SEED
from ._arguments import DomainError, _real_in
import bounds
def cmd_bound(args):
    from . import bounds
    from .bounds import breakdown
    return bounds.breakdown(args.a)
if TYPE_CHECKING:
    from .bounds import AuxParams
import sendov_lab.bounds as b
import cmath, sendov_lab.cli
def breakdown(a):
    from sendov_lab.bounds import breakdown as reference
    return reference(a)
from ._eft import _split, _two_sum
import math
def _sums(d, kk):
    return np.reciprocal(d, out=d)
def _aberth_corrections(w):
    return np.reciprocal(w)
def _starts(zeta):
    return numpy.reciprocal(zeta) + np.reciprocal(zeta)
def _inclusion_radii(d):
    inverse = np.reciprocal
    return (lambda: np.reciprocal(d))()
"""
# The lines of SELF_TEST that each rule catches, once per distinct name.
CAUGHT = {
    ("layer", "verify.py"): [1, 2, 3, 4, 5, 5, 36, 94],
    ("scipy", "verify.py"): [8, 9, 10, 32, 34],
    ("heavy", "verify.py"): [13, 14, 15, 15, 16, 17, 18, 39],
    ("libm", "verify.py"): [26, 29, 41, 41, 43, 45, 46, 64],
    ("libm", "bounds.py"): [26, 29, 41, 41, 43, 45, 46],
    ("precision", "verify.py"): [23, 24, 25, 27, 28, 40, 56, 56, 56, 58, 58, 60, 60, 61, 61],
    ("builder", "verify.py"): [30, 48, 51, 52],
    ("ratio", "verify.py"): [54, 55],
    ("reference", "test_polynomial.py"): [56, 57, 58, 59, 60, 62],
    ("contract", "test_verify.py"): [5, 5, 66, 66, 68, 71],
    ("families", "families.py"): [1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15,
                                  16, 17, 18, 19, 20, 21, 23, 24, 32, 34, 36, 37, 38, 39, 40, 58,
                                  58, 71, 71, 75, 76, 77, 78, 78, 79, 79, 80, 81, 81, 82, 84, 85,
                                  88, 89, 90, 90, 92, 94, 94, 95],
    ("audit", "verify.py"): [1, 2, 3, 4, 6, 7, 11, 19, 36, 71, 71, 76, 77, 78, 79, 81, 81, 90,
                             94, 94],
    ("startup", "polynomial.py"): [2, 5, 5, 5, 78, 79, 80, 84, 85, 88, 89, 92],
    ("startup", "cli.py"): [2, 5, 5, 5, 78, 79, 80, 88, 89],
    ("startup", "_arguments.py"): [1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 11, 19, 36, 71, 71, 76, 77, 78,
                                   78, 79, 79, 80, 81, 81, 84, 85, 88, 89, 90, 92, 94, 94],
    ("standalone", "exact.py"): [1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 11, 19, 36, 71, 71, 76, 77, 78, 78,
                                 79, 79, 80, 81, 81, 84, 85, 88, 89, 90, 92, 94, 94],
    # The families forms and __future__ (72).
    ("leaf", "_eft.py"): [1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15, 16, 17,
                          18, 19, 20, 21, 23, 24, 32, 34, 36, 37, 38, 39, 40, 58, 58, 71, 71, 72,
                          75, 76, 77, 78, 78, 79, 79, 80, 81, 81, 82, 84, 85, 88, 89, 90, 90, 92,
                          94, 94, 95],
    ("sums", "polynomial.py"): [101, 101, 103, 104],
}


@pytest.mark.parametrize("rule, filename", CAUGHT)
def test_rule_catches_each_form(rule, filename):
    assert [line for line, _ in caught(rule, SELF_TEST, filename)] == CAUGHT[rule, filename]


def test_facts_name_the_innermost_function():
    assert [function for _, function, kind, text, _ in facts(SELF_TEST) if kind == "call"
            and text.split(".")[-1] == "VerificationOutcome"] == [None, "one", "inner", "two"]
    assert [function for line, function, kind, *_ in facts(SELF_TEST)
            if line == 45 and kind == "call"] == ["<lambda>"]
