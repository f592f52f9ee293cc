"""Shared fixtures, the tools loader, the disk draws of the finder and
kernel tests, plus the acceptance-criteria summary block.

Acceptance tests report through ``record_criterion`` so that one PASS/FAIL
line per criterion is printed in the terminal summary even under default
output capturing.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _CRITERION_LINES[number] = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"


@functools.cache
def load_tool(name: str):
    """``tools/<name>.py`` as a module, loaded once per session."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def disk_roots(rng, degree, separation=1e-3):
    """degree points drawn uniformly from the unit disk, each at least
    separation from those drawn before it."""
    roots = []
    while len(roots) < degree:
        z = complex(np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        if all(abs(z - w) >= separation for w in roots):
            roots.append(z)
    return tuple(roots)


complex_in_disk = st.builds(
    complex,
    st.floats(min_value=-0.7, max_value=0.7),
    st.floats(min_value=-0.7, max_value=0.7),
)


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # Keep every test hermetic with respect to the seed override.
    monkeypatch.delenv("SENDOV_LAB_SEED", raising=False)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
