import importlib.util
import json
import pathlib

import numpy as np
import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")


def _report(wall, setup, rss, failed=0):
    """run.py's two output lines: the report, then the result."""
    report = json.dumps({"workload": "rect", "seed": 1, "wall_s": {"value": wall, "unit": "s"}})
    result = json.dumps({"correct": failed == 0, "attempted": 84, "failed": failed, "metrics": {
        "norm_wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}})
    return f"{report}\n{result}\n"


class TestBenchPairs:
    PARENT = [(2.40, 0.150, 44.2), (2.35, 0.151, 44.3), (2.50, 0.149, 44.2), (2.30, 0.152, 44.1),
              (2.45, 0.150, 44.4), (2.38, 0.148, 44.2), (2.42, 0.153, 44.3), (2.36, 0.150, 44.2),
              (2.41, 0.149, 44.1), (2.39, 0.151, 44.2)]
    # 9 of 10 walls lower by about 0.25 s; setup even; rss higher in every pair
    CHANGE = [(2.15, 0.150, 44.5), (2.10, 0.152, 44.6), (2.20, 0.148, 44.5), (2.40, 0.151, 44.4),
              (2.18, 0.150, 44.7), (2.12, 0.149, 44.5), (2.16, 0.152, 44.6), (2.11, 0.150, 44.5),
              (2.17, 0.150, 44.4), (2.14, 0.150, 44.5)]

    def _pairs(self, failed=0):
        return [(bench_pairs.parse_result(_report(*p))["metrics"],
                 bench_pairs.parse_result(_report(*c, failed=failed))["metrics"])
                for p, c in zip(self.PARENT, self.CHANGE)]

    def test_parse_result_reads_the_last_line(self):
        got = bench_pairs.parse_result(_report(2.4, 0.15, 44.2, failed=2))
        assert got == {"metrics": {"norm_wall_s": 2.4, "setup_s": 0.15, "peak_rss_mb": 44.2},
                       "correct": False, "attempted": 84, "failed": 2}

    def test_summary_of_canned_runs(self):
        rows = {r["metric"]: r for r in bench_pairs.summarize(self._pairs())}
        wall = rows["norm_wall_s"]
        parent_walls = [p[0] for p in self.PARENT]
        assert wall["parent_median"] == pytest.approx(2.395)
        assert wall["change_median"] == pytest.approx(2.155)
        assert wall["parent_q1_q3"] == pytest.approx(tuple(np.percentile(parent_walls, [25, 75])))
        assert (wall["wins"], wall["pairs"], wall["verdict"]) == (9, 10, "gain")
        # tied pairs count for neither side
        setup = rows["setup_s"]
        assert setup["wins"] == 4 and setup["verdict"] == "-"
        rss = rows["peak_rss_mb"]
        assert rss["wins"] == 0 and rss["verdict"] == "loss"
        table = bench_pairs.format_rows(rows.values())
        assert "9/10" in table and "gain" in table and "loss" in table

    def test_a_gain_inside_the_parent_spread_is_no_gain(self):
        # 10 of 10 wins, but by less than the parent's Q3 - Q1
        pairs = [({"norm_wall_s": p[0]}, {"norm_wall_s": p[0] - 0.01}) for p in self.PARENT]
        (row,) = bench_pairs.summarize(pairs)
        assert row["wins"] == 10 and row["verdict"] == "-"

    def test_higher_is_better_flips_the_wins(self):
        rows = bench_pairs.summarize(self._pairs(), {"peak_rss_mb": "higher"})
        rss = next(r for r in rows if r["metric"] == "peak_rss_mb")
        assert rss["better"] == "higher" and rss["wins"] == 10 and rss["verdict"] == "gain"
