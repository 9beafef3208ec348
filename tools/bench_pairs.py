"""Alternating pairs of benchmark runs on a parent checkout and a change.

  python3 tools/bench_pairs.py PARENT CHANGE --workload rect --seed 7600 [--pairs 10] [--seconds 30]

PARENT and CHANGE are the roots of two qflow checkouts.  For each of
``--pairs`` consecutive seeds from ``--seed``, ``perfbench/run.py --trace 0``
runs once in each checkout, the parent first in even pairs and the change
first in odd ones, so that a drift of the host's speed falls on both sides.
Each run prints one line per side and pair.  Then, for each end-to-end
metric, the summary gives both medians, the parent's quartiles Q1-Q3, the
pairs the change wins (ties count for neither) and the verdict: "gain" when
the change wins at least nine tenths of the pairs and its median is better
than the parent's by more than Q3 - Q1, "loss" for the same the other way,
else "-".  A metric's direction ("lower" or "higher" is better) comes from
the change's BENCHMARK.json; a metric it does not list is taken as lower is
better.

Standard library only.  The tool writes nothing in either checkout (run.py
keeps its own work directory there while it runs and removes it).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The result line of a run.py report: its last line, as a dict with
    the metric values by name and the correct, attempted and failed counts."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": values, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def quartiles(values):
    """(Q1, Q3), with numpy's default linear interpolation."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, directions=None):
    """One row per metric from (parent, change) metric dicts, one pair each.

    A row holds the metric's name and direction, both medians, the parent's
    (Q1, Q3), the number of pairs the change wins, the number of pairs and
    the verdict ("gain", "loss" or "-").
    """
    directions = directions or {}
    rows = []
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1.0 if directions.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        pmed, cmed = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        gap = sign * (cmed - pmed)
        verdict = "-"
        if 10 * wins >= 9 * len(pairs) and gap > q3 - q1:
            verdict = "gain"
        elif 10 * losses >= 9 * len(pairs) and -gap > q3 - q1:
            verdict = "loss"
        rows.append({"metric": name, "better": "lower" if sign < 0 else "higher",
                     "parent_median": pmed, "change_median": cmed, "parent_q1_q3": (q1, q3),
                     "wins": wins, "pairs": len(pairs), "verdict": verdict})
    return rows


def format_rows(rows) -> str:
    lines = [f"{'metric':<14}{'better':>8}{'parent':>12}{'change':>12}"
             f"{'parent Q1-Q3':>22}{'wins':>8}  verdict"]
    for r in rows:
        q1, q3 = r["parent_q1_q3"]
        lines.append(f"{r['metric']:<14}{r['better']:>8}{r['parent_median']:>12.4f}"
                     f"{r['change_median']:>12.4f}{f'{q1:.4f}-{q3:.4f}':>22}"
                     f"{r['wins']:>5}/{r['pairs']:<2}  {r['verdict']}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return parse_result(proc.stdout)


def directions_of(checkout: Path) -> dict:
    try:
        bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return {m["name"]: m["better"] for m in bench.get("end_to_end", [])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(sides[side], args.workload, seed, args.seconds)
            metrics = " ".join(f"{k}={v:.4f}" for k, v in runs[side]["metrics"].items())
            print(f"pair {i} seed {seed} {side:<6} failed {runs[side]['failed']}/"
                  f"{runs[side]['attempted']} {metrics}", flush=True)
        pairs.append((runs["parent"]["metrics"], runs["change"]["metrics"]))
    print(f"\n{args.workload}, {args.pairs} pairs from seed {args.seed}, {args.seconds:g} s runs")
    print(format_rows(summarize(pairs, directions_of(sides["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
