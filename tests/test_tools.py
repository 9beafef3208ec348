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
faults = _load("faults")
lockstep = _load("lockstep")
rectstep = _load("rectstep")


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


class TestFaults:
    def test_rounds_of_a_cheap_experiment(self, tmp_path):
        config = TOOLS.parent / "configs" / "coercivity-report.cfg"
        rows = list(faults.measure([("coercivity-report", config)], 3, 5, tmp_path))
        assert [row[:2] for row in rows] == [(i, "coercivity-report") for i in range(3)]
        for _, _, minflt, wall, grow, rss in rows:
            assert minflt >= 0 and wall > 0.0 and 0.0 <= grow < rss
        summary = json.loads((tmp_path / "coercivity-report" / "summary.json").read_text())
        assert summary["passed"] and summary["config"]["seed"] == 5
        # round 0 is warm-up
        assert list(faults.medians(rows)) == ["coercivity-report"]
        assert faults.medians(rows[:1]) == {}

    def test_report_lists_every_run_and_the_warm_medians(self, monkeypatch, capsys):
        canned = [(0, "trotter-convergence", 30000, 0.6, 3.25, 42.0),
                  (0, "physicality", 5, 0.2, 0.0, 42.0),
                  (1, "trotter-convergence", 700, 0.4, 0.5, 42.5),
                  (1, "physicality", 0, 0.2, 0.0, 42.5),
                  (2, "trotter-convergence", 900, 0.5, 0.0, 42.5),
                  (2, "physicality", 2, 0.3, 0.0, 42.5)]
        monkeypatch.setattr(faults, "measure", lambda *args: iter(canned))
        assert faults.main(["--workload", "split", "--rounds", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + len(canned) + 4
        assert lines[0].split() == ["round", "experiment", "minflt", "wall_s", "grow_mb",
                                    "maxrss_mb"]
        assert lines[1].split() == ["0", "trotter-convergence", "30000", "0.600", "3.25", "42.00"]
        assert lines[3].split() == ["1", "trotter-convergence", "700", "0.400", "0.50", "42.50"]
        assert lines[-2].split() == ["trotter-convergence", "800", "0.450"]
        assert lines[-1].split() == ["physicality", "1", "0.250"]


class TestLockstep:
    def test_every_row_takes_every_step(self, monkeypatch):
        monkeypatch.setattr(lockstep, "REPEATS", 1)
        rows = list(lockstep.measure([1, 3]))
        # T = 0.02 in steps of dt = 1e-4, the last one a rounding sliver
        assert [row[:2] for row in rows] == [(1, 201), (3, 201)]
        assert all(us > 0.0 for _, _, us in rows)

    def test_a_row_that_stops_early_is_refused(self, monkeypatch):
        from qflow import radial

        march = radial._march

        def one_row_short(*args, **kwargs):
            batch = march(*args, **kwargs)
            return batch._replace(row_steps=batch.row_steps - 1)

        monkeypatch.setattr(lockstep, "REPEATS", 1)
        monkeypatch.setattr(radial, "_march", one_row_short)
        with pytest.raises(RuntimeError, match="a row stopped early"):
            list(lockstep.measure([3]))

    def test_report_lists_every_row_count(self, monkeypatch, capsys):
        def canned(rows):
            return ((m, 201, 50.0 + m) for m in rows)

        monkeypatch.setattr(lockstep, "measure", canned)
        assert lockstep.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["rows", "steps", "us/step"]
        assert [line.split()[0] for line in lines[1:]] == ["1", "2", "4", "8", "15", "31"]
        assert lines[-1].split() == ["31", "201", "81.0"]


class TestRectstep:
    def test_every_case_is_timed(self, monkeypatch):
        monkeypatch.setattr(rectstep, "REPEATS", 1)
        monkeypatch.setattr(rectstep, "STEPS", 2)
        from qflow import pde2d

        stacks, step = [], pde2d.step

        def recorded(field, *args, **kwargs):
            stacks.append(field.p.shape)
            return step(field, *args, **kwargs)

        monkeypatch.setattr(pde2d, "step", recorded)
        rows = list(rectstep.measure([8]))
        assert [row[:3] for row in rows] == [("smallness", "imex", 8),
                                             ("energy-decay", "explicit-euler", 8),
                                             ("continuous-dependence", "imex", 32)]
        assert all(us > 0.0 for *_, us in rows)
        # the last row steps continuous-dependence's 3 fields as one stack
        # on its 32^2 grid: once untimed, once timed
        assert stacks == [(3 * 34, 34)] * 4

    def test_report_lists_every_case(self, monkeypatch, capsys):
        def canned(sizes):
            yield from ((name, "imex", n, 100.0 + n) for name in rectstep.EXPERIMENTS
                        for n in sizes)
            yield "continuous-dependence", "imex", 32, 321.0

        monkeypatch.setattr(rectstep, "measure", canned)
        assert rectstep.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["experiment", "scheme", "grid", "us/step"]
        assert [line.split()[::2] for line in lines[1:]] == [
            ["smallness", "64^2"], ["smallness", "128^2"],
            ["energy-decay", "64^2"], ["energy-decay", "128^2"],
            ["continuous-dependence", "32^2"]]
        assert lines[-2].split() == ["energy-decay", "imex", "128^2", "228.0"]
        assert lines[-1].split() == ["continuous-dependence", "imex", "32^2", "321.0"]
