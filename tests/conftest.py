"""Shared fixtures, the tools loader, plus the acceptance-criteria summary
block.

Acceptance tests report through ``record_criterion`` so that one PASS/FAIL
line per criterion is printed in the terminal summary even under default
output capturing.
"""

import functools
import importlib.util
from pathlib import Path

import pytest

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
