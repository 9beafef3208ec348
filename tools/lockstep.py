"""Time per lock-step of the radial stepper, by the number of rows it carries.

  python3 tools/lockstep.py

Marches ``qflow.radial._march`` on the grid of the shipped threshold search
(``configs/blowup-threshold-search.cfg``: ``nr = 100``, ``dt = 1e-4``) over
1, 2, 4, 8, 15 and 31 sine bumps at once.  Their amplitudes are spread over
-3.60 .. -3.70, around the search's threshold, and they march to
``T = 0.02`` with no smallness stop, so every row takes every step; the tool
checks that it does.  For each row count it prints the lock-step steps of
one march and the best time per lock-step over ``REPEATS`` marches, in
microseconds.  Everything runs in this process, after one untimed march per
row count.

Standard library plus qflow, imported from this checkout's ``src/``.  The
BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = (1, 2, 4, 8, 15, 31)
REPEATS = 5
T_END = 0.02


def measure(rows):
    """Yield (rows, lock-step steps, best microseconds per lock-step) for
    each row count in rows."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from qflow import cli, radial

    cfg = cli.parse_config((ROOT / "configs" / "blowup-threshold-search.cfg").read_text())
    R0, R1, nr, dt = cfg.R0, cfg.R1, cfg.nr, cfg.dt
    params = cfg.params()
    for m in rows:
        amps = [-3.60 - 0.10 * k / max(m - 1, 1) for k in range(m)]
        profiles = [radial.RadialProfile.sine_bump(R0, R1, nr, amp) for amp in amps]
        march = radial._march(profiles, params, T_END, dt, radial.BLOWUP_Y_THRESHOLD)
        if march.row_steps != m * march.iterations:
            raise RuntimeError(f"{m} rows took {march.row_steps} row steps in "
                               f"{march.iterations} lock-steps: a row stopped early")
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            radial._march(profiles, params, T_END, dt, radial.BLOWUP_Y_THRESHOLD)
            best = min(best, time.perf_counter() - t0)
        yield m, march.iterations, best / march.iterations * 1e6


def main() -> int:
    print(f"{'rows':>5}{'steps':>8}{'us/step':>10}")
    for m, steps, us in measure(ROWS):
        print(f"{m:>5}{steps:>8}{us:>10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
