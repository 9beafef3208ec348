"""Time per step of the rectangle solver at 64^2 and 128^2, for both schemes,
and of one lock step of continuous-dependence.

  python3 tools/rectstep.py

Runs ``qflow.pde2d.run`` for ``STEPS`` steps, recording every step as the
shipped configs do, with the data of ``configs/smallness.cfg`` (the IMEX
scheme, ``L4 = 1``) and of ``configs/energy-decay.cfg`` (explicit Euler,
``L4 = 0``), each on its config's unit square with 64^2 and 128^2 interior
nodes.  smallness keeps its ``dt``; energy-decay takes half the explicit
stability bound of each grid, as its config does.  The last case steps
``configs/continuous-dependence.cfg``'s three fields (the base and its two
perturbations) on its 32^2 grid as one stack, ``STEPS`` calls of
``qflow.pde2d.step`` at its ``dt``, as the experiment steps them.  For each
case it prints the best time per step over ``REPEATS`` runs, in
microseconds.  Everything runs in this process, after one untimed run per
case.

Standard library plus qflow, imported from this checkout's ``src/``.  The
BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ("smallness", "energy-decay")
SIZES = (64, 128)
STEPS = 20
REPEATS = 5


def _best_per_step(steps) -> float:
    """Best microseconds per step of steps(), which takes STEPS steps, over
    REPEATS calls after an untimed one."""
    steps()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        steps()
        best = min(best, time.perf_counter() - t0)
    return best / STEPS * 1e6


def measure(sizes):
    """Yield (experiment, scheme, n, best microseconds per step) for each
    experiment in EXPERIMENTS and each n x n grid in sizes, then for
    continuous-dependence's lock step on its own grid."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from qflow import cli, pde2d
    from qflow.energy import derived_constants

    for name in EXPERIMENTS:
        cfg = cli.parse_config((ROOT / "configs" / f"{name}.cfg").read_text())
        params = cfg.params()
        for n in sizes:
            cfg.values["nx"] = cfg.values["ny"] = n
            grid = cfg.grid()
            if name == "smallness":
                amplitude = cfg.amplitude_frac * math.sqrt(2.0 * derived_constants(params).eta1)
                dt = cfg.dt
            else:
                amplitude, dt = cfg.amplitude, 0.5 * pde2d.stability_dt(grid, params)
            f0 = pde2d.smooth_random_field(grid, amplitude, seed=cfg.seed, kmax=cfg.kmax)
            yield name, cfg.scheme, n, _best_per_step(
                lambda: pde2d.run(f0, params, STEPS * dt, dt, scheme=cfg.scheme))

    cfg = cli.parse_config((ROOT / "configs" / "continuous-dependence.cfg").read_text())
    params, grid = cfg.params(), cfg.grid()
    base = pde2d.smooth_random_field(grid, cfg.amplitude, seed=cfg.seed, kmax=cfg.kmax)
    shape = pde2d.smooth_random_field(grid, 1.0, seed=cfg.seed + 1, kmax=cfg.kmax)
    stack = pde2d.Field2D.stack([base] + [
        pde2d.Field2D(grid, base.p + eps * shape.p, base.q + eps * shape.q)
        for eps in (cfg.eps1, cfg.eps2)])

    def lock_steps():
        fields = stack
        for _ in range(STEPS):
            fields = pde2d.step(fields, cfg.dt, params, cfg.scheme)

    yield "continuous-dependence", cfg.scheme, cfg.nx, _best_per_step(lock_steps)


def main() -> int:
    print(f"{'experiment':<23}{'scheme':<16}{'grid':>6}{'us/step':>10}")
    for name, scheme, n, us in measure(SIZES):
        print(f"{name:<23}{scheme:<16}{n:>4}^2{us:>10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
