"""Shared fixtures: class representatives, the expensive scaled-count runs, and a
per-test time limit."""

import signal
import threading
from fractions import Fraction as F

import pytest

from orthantwalks.gb import GBParams
from orthantwalks.validate import validate_totals

# one representative per universality sub-case, as used throughout the suite
CLASS_REPS = [
    ("balanced", 1, 1),
    ("free", 2, 3),
    ("reluctant", F(1, 2), F(1, 2)),
    ("directed1", 1, 4),
    ("directed2", 3, 2),
    ("axial1", 2, 2),
    ("axial2", 2, 4),
    ("transitional1", 1, F(1, 2)),
    ("transitional2", F(1, 2), 1),
]


@pytest.fixture(scope="session")
def totals_reports():
    """ValidationReports at n_max=800 for all nine representatives (shared: ~20 s)."""
    return {label: validate_totals(GBParams(a, b), 800, 0.05)
            for label, a, b in CLASS_REPS}


TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TIME_LIMIT_S, so that a hang is a failure.

    It arms SIGALRM, so it acts only on the main thread of a platform that has it.
    """
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"the test ran longer than {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
