"""Shared fixtures for the test suite.

Provides the two calibrated markets most tests solve against, built from
the config blocks in `markets.py`, plus the acceptance-report plumbing:
acceptance tests record one verdict line per criterion and a
terminal-summary hook replays every line after the run, so the pass/fail
map is visible even for criteria whose checks all passed.
"""
import pytest

from capfolio.market import market_from_config

import markets

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def example1():
    """Single risky asset, constant coefficients: r=0.06, mu=0.12, sigma=0.15, T=1."""
    return market_from_config(markets.EXAMPLE1)


@pytest.fixture(scope="session")
def example2():
    """Three risky assets, T=1, r=0.016 backed out of the quoted market price of risk."""
    return market_from_config(markets.EXAMPLE2)


@pytest.fixture
def criterion():
    """Recorder for acceptance verdicts. Appends the line, prints it, asserts it."""

    def record(num: int, name: str, ok: bool, details: str = ""):
        tail = f"  [{details}]" if details else ""
        line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def acceptance_note():
    """Recorder for non-verdict context lines shown next to the verdicts."""

    def record(text: str):
        ACCEPTANCE_LINES.append(f"    {text}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance verdicts")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
