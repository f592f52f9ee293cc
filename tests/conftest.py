"""Shared fixtures, the tools loader and ``families``, the seeded rows of
``tools/families.py`` that the tests draw, plus the acceptance-criteria
summary block.

Acceptance tests report through ``record_criterion`` so that one PASS/FAIL
line per criterion is printed in the terminal summary even under default
output capturing.
"""

import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _CRITERION_LINES[number] = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"


def load_tool(name: str):
    """``tools/<name>.py`` as a module, imported once per session with tools/
    on the import path, as it is when a tool runs as a script."""
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))
    return importlib.import_module(name)


families = load_tool("families")

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
