"""One workload in a fresh, single-threaded process.

Started by ``perfbench/run.py``; pins the thread pools itself.  Prints
one JSON line with the set-up time, the per-experiment times, the output
check and either the normalized round times (see ``speed.py``) or, with
--trace, the per-span counts and self times of the traced rounds, which
alternate with untraced ones.

  python3 perfbench/worker.py --workload W --seed N --seconds S --workdir DIR [--trace] [--setup-only]
"""

import os

# Pin the OpenMP and BLAS pools before numpy is imported.  QFLOW_THREADS is
# left unset: qflow applies it only after numpy has loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QFLOW_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def config_text(path, seed):
    """The config file with its ``seed`` key set to ``seed``."""
    text = (ROOT / path).read_text(encoding="utf-8")
    text = re.sub(r"(?m)^[ \t]*seed[ \t]*=.*$", "", text)
    return f"{text.rstrip()}\nseed = {seed}\n"


def check_outputs(label, report, y_threshold):
    """Reasons the experiment's written outputs are wrong; empty when correct."""
    if not os.path.isfile(report.json_path):
        return ["summary.json missing"]
    with open(report.json_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    problems = []
    if not summary["passed"]:
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        problems.append(f"verdict FAIL: {failed}")
    with open(report.csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != workloads.CSV_HEADER:
        problems.append(f"trace.csv header {lines[:1]}")
    if len(lines) - 1 != workloads.EXPECTED_ROWS[label]:
        problems.append(f"trace.csv has {len(lines) - 1} rows, "
                        f"expected {workloads.EXPECTED_ROWS[label]}")
    missing = [p for p in summary["artifacts"]["svg"] if not os.path.isfile(p)]
    if missing:
        problems.append(f"SVGs missing: {missing}")
    results = summary["results"]
    if label == "blowup" and not results["final_y"] > y_threshold:
        problems.append(f"final_y {results['final_y']} does not exceed "
                        f"{y_threshold}: no genuine threshold crossing")
    if label == "blowup-threshold-search":
        cfg = summary["config"]
        # 1e-9 relative slack absorbs roundoff in hi - lo, not a wider bracket
        limit = abs(cfg["amp_hi"] - cfg["amp_lo"]) / 2 ** 16 * (1 + 1e-9)
        lo, hi = results["interval_lo"], results["interval_hi"]
        ref_lo, ref_hi = workloads.REFERENCE_BRACKET
        if not hi - lo <= limit:
            problems.append(f"bracket width {hi - lo} exceeds {limit}")
        if not (lo <= ref_hi and hi >= ref_lo):
            problems.append(f"bracket [{lo}, {hi}] misses the reference [{ref_lo}, {ref_hi}]")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")

    experiments = workloads.WORKLOADS[args.workload]
    texts = [config_text(path, args.seed) for _, path, _ in experiments]

    # set-up: what a fresh `qflow run` pays before its first step
    with speed.SpeedProbe("python") as setup_probe:
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        from qflow import cli, radial
        for text in texts:
            cli.parse_config(text)
        t1 = time.perf_counter()
    setup = {"setup_s": t1 - t0, "norm_setup_s": setup_probe.normalized(t0, t1)}
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "qflow":
        raise RuntimeError(f"imported qflow from {cli.__file__}, not from this checkout")
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy

    # With --trace, odd rounds run traced, so the overhead compares rounds
    # run close together in time.  Without --trace the speed probe runs
    # throughout, so each round also gets a normalized time; traced runs
    # report raw times only and keep the probe out of the spans.
    tracer = spans.Tracer(workloads.SPANS) if args.trace else None
    probe = None if args.trace else speed.SpeedProbe("numpy")
    times = {label: [] for label, _, _ in experiments}
    norm_times = {label: [] for label, _, _ in experiments}
    walls, norm_walls, traced_walls, span_stats, coverage = [], [], [], [], []
    attempted, failed, failures = 0, 0, []
    out = Path(tempfile.mkdtemp(dir=args.workdir))
    started = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            for rnd in itertools.count():
                traced = tracer is not None and rnd % 2 == 1
                if traced:
                    tracer.install()
                reports, intervals = [], {}
                try:
                    t0 = time.perf_counter()
                    for (label, _, _), text in zip(experiments, texts):
                        attempted += 1
                        t = time.perf_counter()
                        try:
                            cfg = cli.parse_config(text)
                            reports.append((label, cli.run_experiment(cfg, str(out / label))))
                        except Exception:  # a failed experiment counts; the others still run
                            failed += 1
                            failures.append(f"{label}: {traceback.format_exc(limit=3)}")
                        intervals[label] = (t, time.perf_counter())
                    t1 = time.perf_counter()
                finally:
                    if traced:
                        tracer.restore()
                if traced:
                    traced_walls.append(t1 - t0)
                    per_span, cov = tracer.summary(t0, t1)
                    span_stats.append(per_span)
                    coverage.append(cov)
                    tracer.clear()
                else:
                    walls.append(t1 - t0)
                    for label, (a, b) in intervals.items():
                        times[label].append(b - a)
                    if probe:
                        norm_walls.append(probe.normalized(t0, t1))
                        if norm_walls[-1] is None:
                            raise RuntimeError("a round ended within one probe period")
                        for label, (a, b) in intervals.items():
                            norm = probe.normalized(a, b)
                            if norm is not None:
                                norm_times[label].append(norm)
                for label, report in reports:
                    problems = check_outputs(label, report, radial.BLOWUP_Y_THRESHOLD)
                    failed += bool(problems)
                    failures += [f"{label}: {p}" for p in problems]
                # closed loop: start another round only if it should end in time
                elapsed = time.perf_counter() - started
                if elapsed + t1 - t0 > args.seconds and (tracer is None or traced):
                    break
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result = {
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": walls,
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if probe:
        result.update(norm_wall_s=norm_walls, norm_times=norm_times, probe_runs=len(probe.took),
                      probe_median_s=statistics.median(probe.took))
    if tracer:
        result.update(traced_wall_s=traced_walls, spans=span_stats, coverage=coverage)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
