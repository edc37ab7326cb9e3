"""Shared fixtures: seeded RNG and the acceptance-criteria summary lines."""

import os

import numpy as np
import pytest

# Environment variable read for the RNG seed of the randomized tests.
SEED_ENV_VAR = "NILFLOW_SEED"
_DEFAULT_SEED = 20260818


def _seed():
    raw = os.environ.get(SEED_ENV_VAR, "")
    try:
        return int(raw)
    except ValueError:
        return _DEFAULT_SEED


@pytest.fixture
def rng():
    return np.random.default_rng(_seed())


_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASSED" if report.passed else "FAILED"
    elif report.failed:  # setup/teardown crash
        _ACCEPTANCE[name] = "FAILED"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"ACCEPTANCE {name}: {_ACCEPTANCE[name]}")
