"""qflow benchmark: time to verdict of the shipped experiments, end to end.

  python3 perfbench/run.py --workload {rect,radial,split} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qflow is imported from its ``src/``.  Each
workload runs in a fresh single-threaded Python process (``worker.py``)
driven by one closed-loop caller: the workload's experiments run one after
the other through ``qflow.cli.parse_config`` / ``run_experiment``, with SVG
output on as ``qflow run`` does, and the loop repeats until ``--seconds``
have passed.  The seed is written into every config's ``seed`` key.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  norm_wall_s  median time for all experiments of the workload to reach
               their verdicts and write trace.csv, summary.json and SVGs,
               normalized for the host's speed drift (see ``speed.py``);
               the plain wall time is on the report line as ``wall_s``
  setup_s      median over fresh processes of ``import qflow.cli`` plus
               ``parse_config`` of the workload's configs, normalized in
               the same way; the plain times are ``setup_samples``
  peak_rss_mb  peak resident set of the workload process
--trace 1 alternates untraced and traced rounds of the loop in one process
and prints per span ``<module>.<function>.calls`` and ``.self_s`` per traced
round (medians), the tracing overhead (median traced round minus median
untraced round) and the share of a traced round the spans cover.

Every experiment's outputs are checked (see ``worker.check_outputs``); an
experiment that raises or fails the check counts in ``failed``.  The line
before the result records the environment, the seed, the plain and the
normalized time of each experiment by name and ``fail_frac``.  The last line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKDIR = ROOT / ".perfbench_work"
# fresh processes that only set up; the workload process adds one sample
SETUP_PROBES = 4
# a run must end within 180 s
DEADLINE_S = 170.0


def run_worker(args, deadline, *extra):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(WORKDIR), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metric(value, unit):
    return {"value": value, "unit": unit}


def experiment_times(run, label):
    """Median plain and normalized times of one experiment (traced runs
    and experiments shorter than a probe period have no normalized time)."""
    times = {"value": statistics.median(run["times"][label]), "unit": "s",
             "samples": len(run["times"][label])}
    norm = run.get("norm_times", {}).get(label)
    if norm:
        times.update(norm_value=statistics.median(norm), norm_samples=len(norm))
    return times


def per_layer(run, workload):
    """Per-span medians over traced rounds, the overhead and coverage."""
    stats = run["spans"]
    idle = [s for s in workloads.EXPECTED_SPANS[workload]
            if statistics.median(it[s][0] for it in stats) == 0]
    if idle:
        raise RuntimeError(f"spans expected on {workload} recorded no calls: {idle}")
    metrics = {}
    for span in workloads.SPANS:
        metrics[f"{span}.calls"] = metric(statistics.median(it[span][0] for it in stats), "count")
        metrics[f"{span}.self_s"] = metric(statistics.median(it[span][1] for it in stats), "s")
    overhead = statistics.median(run["traced_wall_s"]) - statistics.median(run["wall_s"])
    metrics["tracer.overhead_s"] = metric(overhead, "s")
    metrics["tracer.coverage"] = metric(statistics.median(run["coverage"]), "ratio")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    needed = [ROOT / "src" / "qflow" / "cli.py"]
    needed += [ROOT / path for _, path, _ in workloads.WORKLOADS[args.workload]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a qflow checkout, missing {missing}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            main_run = run_worker(args, deadline, "--trace")
            metrics = per_layer(main_run, args.workload)
            setups = []
        else:
            main_run = run_worker(args, deadline)
            setups = [run_worker(args, deadline, "--setup-only")
                      for _ in range(SETUP_PROBES)] + [main_run]
            metrics = {
                "norm_wall_s": metric(statistics.median(main_run["norm_wall_s"]), "s"),
                "setup_s": metric(statistics.median(s["norm_setup_s"] for s in setups), "s"),
                "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
            }
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    attempted, failed = main_run["attempted"], main_run["failed"]
    experiments = workloads.WORKLOADS[args.workload]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seeded": [label for label, _, _ in experiments if label not in workloads.UNSEEDED],
        "unseeded": [label for label, _, _ in experiments if label in workloads.UNSEEDED],
        "environment": {"nproc": os.cpu_count(), "cpu": cpu_model(), **main_run["versions"]},
        "iterations": len(main_run["wall_s"]),
        "wall_s": {"value": statistics.median(main_run["wall_s"]), "unit": "s"},
        "probe": {"runs": main_run.get("probe_runs"),
                  "median_s": main_run.get("probe_median_s"), "ref_s": speed.REF_S},
        "setup_samples": [s["setup_s"] for s in setups],
        "experiments": {name: experiment_times(main_run, label) for label, _, name in experiments},
        "fail_frac": failed / attempted,
        "failures": main_run["failures"][:10],
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
