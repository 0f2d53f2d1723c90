"""Shared test plumbing.

Acceptance tests record one line per criterion; the terminal summary
prints them all so a plain `pytest -v` run shows the scoreboard.
mpmath's working precision is global to the process, so every test
gets back the precisions it started with.
"""

import pytest
from mpmath import iv, mp

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def restore_mpmath_precision():
    mp_prec, iv_prec = mp.prec, iv.prec
    yield
    mp.prec, iv.prec = mp_prec, iv_prec


@pytest.fixture
def acceptance():
    def record(number: int, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d}: {status}  {detail}".rstrip()
        ACCEPTANCE_LINES.append(line)
        assert passed, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
