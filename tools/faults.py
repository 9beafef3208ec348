"""Minor page faults, wall time and peak RSS per experiment of a benchmark workload.

  python3 tools/faults.py --workload split [--rounds 5] [--seed 0]

Runs the experiments of one ``perfbench/workloads.py`` workload in order, in
this process, for ``--rounds`` rounds, through ``qflow.cli.parse_config`` and
``run_experiment`` with SVG output on, as ``qflow run`` writes it, into a
temporary directory that is removed at the end.  The seed is set in every
config, as ``qflow run --seed`` sets it.  For each run it prints the round,
the experiment, the minor page faults (``ru_minflt``) and the wall time
around ``run_experiment``, how far the run raised the process's peak
resident set (``ru_maxrss`` after minus before, so the run that sets the
peak reads nonzero), and that peak after it; then the median faults and
wall time per experiment over the rounds after the first, which is
warm-up.  A run that returns its heap to the system and grows it again
takes faults on every step; a run that reuses its memory takes few after
the first round.

Standard library plus qflow, imported from this checkout's ``src/``.  The
BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

import argparse
import importlib.util
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def measure(experiments, rounds: int, seed: int, workdir: Path):
    """Yield (round, label, minor faults, wall s, peak RSS growth MB, peak
    RSS MB) for each run of each (label, config path) in experiments, in
    order, round by round."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from qflow import cli

    for rnd in range(rounds):
        for label, path in experiments:
            cfg = cli.parse_config(Path(path).read_text(encoding="utf-8"))
            cfg.values["seed"] = seed
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            cli.run_experiment(cfg, str(workdir / label))
            wall = time.perf_counter() - t0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            # ru_maxrss is in KB on Linux
            yield (rnd, label, usage.ru_minflt - before.ru_minflt, wall,
                   (usage.ru_maxrss - before.ru_maxrss) / 1024.0, usage.ru_maxrss / 1024.0)


def medians(rows) -> dict:
    """Median (faults, wall s) per label over every round after the first."""
    warm = {}
    for rnd, label, faults, wall, *_ in rows:
        if rnd > 0:
            warm.setdefault(label, []).append((faults, wall))
    return {label: (statistics.median(f for f, _ in runs), statistics.median(w for _, w in runs))
            for label, runs in warm.items()}


def main(argv=None) -> int:
    workloads = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    experiments = [(label, ROOT / path) for label, path, _ in workloads[args.workload]]
    rows = []
    print(f"{'round':>5}  {'experiment':<26}{'minflt':>9}{'wall_s':>9}{'grow_mb':>9}"
          f"{'maxrss_mb':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        for row in measure(experiments, args.rounds, args.seed, Path(tmp)):
            rnd, label, faults, wall, grow, rss = row
            print(f"{rnd:>5}  {label:<26}{faults:>9}{wall:>9.3f}{grow:>9.2f}{rss:>11.2f}",
                  flush=True)
            rows.append(row)
    if args.rounds > 1:
        print(f"\nmedians over rounds 1-{args.rounds - 1}")
        for label, (faults, wall) in medians(rows).items():
            print(f"       {label:<26}{faults:>9.0f}{wall:>9.3f}")
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
