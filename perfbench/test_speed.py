"""Tests of the speed probe: normalized-time arithmetic and the timer.

  python3 -m pytest perfbench
"""

import signal
import time

import pytest

import speed

REF = 2e-4


def test_normalized_time_scales_work_by_the_mean_kernel_time():
    start = [0.5, 1.5, 2.5, 3.5]
    took = [2 * REF, 2 * REF, 4 * REF, 1.0]
    # [0, 3] holds the first three runs: 3 - 8 REF of work, kernel at
    # 8/3 REF on average, so the work reads 3/8 as long at REF
    expected = (3.0 - 8 * REF) * 3 / 8
    assert speed.normalized(start, took, 0.0, 3.0, REF) == pytest.approx(expected)
    # a run that starts at t1 belongs to the next interval
    assert speed.normalized(start, took, 0.0, 2.5, REF) == pytest.approx(
        (2.5 - 4 * REF) / 2)


def test_normalized_time_of_the_same_work_ignores_a_uniform_slowdown():
    work = 1.0
    fast = speed.normalized([0.1], [REF], 0.0, work + REF, REF)
    slow = speed.normalized([0.1], [3 * REF], 0.0, 3 * (work + REF), REF)
    assert fast == pytest.approx(work)
    assert slow == pytest.approx(work)


def test_normalized_time_needs_a_kernel_run_in_the_interval():
    assert speed.normalized([0.5], [REF], 1.0, 2.0, REF) is None


@pytest.mark.parametrize("kernel", sorted(speed.REF_S))
def test_probe_runs_on_the_timer_and_restores_the_handler(kernel):
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(kernel) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * speed.PERIOD_S:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.took) >= 5
    assert list(probe.start) == sorted(probe.start)
    assert 0.0 < probe.normalized(t0, t1)
