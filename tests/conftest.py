"""A wall-clock limit per test, from the standard library alone; and the
shipped threshold search, run once per session for the tests that read it.

A test whose setup, call and teardown together run past TEST_TIME_LIMIT
seconds fails with TimeLimitExceeded instead of hanging the suite: a real
ITIMER_REAL timer delivers SIGALRM, and the handler raises in the main
thread, where the test runs.  The limit lies above the largest acceptance
budget (120 s), so it only catches a run that will not end.

TimeLimitExceeded is a BaseException, as KeyboardInterrupt is, so that
hypothesis reports it at once instead of replaying the hanging example to
shrink it, and no `except Exception` in the code under test swallows it.
Past the deadline the timer fires again every second until the phase ends.
"""

import pathlib
import signal
import time
from typing import NamedTuple

import pytest

TEST_TIME_LIMIT = 300.0

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

_DEADLINE = pytest.StashKey[float]()


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT:g} s wall-clock limit")


def _limited(item):
    """Run one phase of a test under the timer, with the time it has left."""
    previous = signal.signal(signal.SIGALRM, _expire)
    left = item.stash[_DEADLINE] - time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3), 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    item.stash[_DEADLINE] = time.monotonic() + TEST_TIME_LIMIT
    yield from _limited(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _limited(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _limited(item)


class ShippedSearch(NamedTuple):
    report: object  # the cli.ExperimentReport of the run
    args: tuple  # the arguments cli passed to radial.threshold_search
    search: object  # the radial.ThresholdSearch it returned


@pytest.fixture(scope="session")
def shipped_search(tmp_path_factory):
    """configs/blowup-threshold-search.cfg run once through cli.run_experiment,
    with the library result captured on the way; the tests that pin the
    search share this one run."""
    from qflow import cli, radial

    search = radial.threshold_search
    calls = []

    def capture(*args):
        calls.append((args, search(*args)))
        return calls[-1][1]

    radial.threshold_search = capture
    try:
        cfg = cli.parse_config((CONFIGS / "blowup-threshold-search.cfg").read_text())
        report = cli.run_experiment(cfg, str(tmp_path_factory.mktemp("search")), emit_svg=False)
    finally:
        radial.threshold_search = search
    (args, result), = calls
    return ShippedSearch(report, args, result)
