import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow import cli, energy, pde2d, qtensor, radial, splitting
from qflow.cli import (
    CSV_HEADER,
    ConfigError,
    main,
    parse_config,
    run_experiment,
)
from qflow.splitting import bulk_ode_step

COERCIVITY_CFG = """
experiment = coercivity-report
L1 = 1
L2 = 2
L3 = 3
"""

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

# values for generated config text: edge numbers, any float or integer, any text
CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1e-300", "-1e-300", "5e-324", "1e300", "nan", "inf", "x"]),
    st.floats().map(repr),
    st.integers(-10**7, 10**7).map(str),
    st.text(max_size=8),
)

BLOWUP_CFG = """
# pinned annulus geometry; deep quench drives the threshold crossing
experiment = blowup
R0 = 3
R1 = 4
nr = 100
amplitude = -50
L1 = 0.5
L4 = -1
a = -6000
c = 1e-8
T = 0.01
dt = 1e-5
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(COERCIVITY_CFG)
        assert cfg.experiment == "coercivity-report"
        assert cfg.values["C1"] == 1.0
        assert cfg.values["scheme"] == "imex"
        assert cfg.values["seed"] == 0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nexperiment = coercivity-report # inline\nL1=1\nL2=0\nL3=0\n")
        assert cfg.values["L1"] == 1.0

    def test_bad_number_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("L4 = abc")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config("experiment = coercivity-report\nwibble = 3")

    def test_missing_keys_listed_exhaustively(self):
        with pytest.raises(ConfigError) as err:
            parse_config("experiment = blowup")
        msg = str(err.value)
        for key in ("a", "L1", "L4", "R0", "R1", "amplitude", "T", "dt"):
            assert key in msg

    def test_radii_order_validated(self):
        bad = BLOWUP_CFG.replace("R0 = 3", "R0 = 4").replace("R1 = 4", "R1 = 3")
        with pytest.raises(ConfigError, match="R0 < R1"):
            parse_config(bad)

    @pytest.mark.parametrize("old, new, message", [
        # n_lo = 0 never leaves the doubling loop over n; n_lo > n_hi
        # leaves it with no n at all
        ("n_lo = 8", "n_lo = 0", "1 <= n_lo <= n_hi"),
        ("n_lo = 8", "n_lo = 128", "1 <= n_lo <= n_hi"),
        ("n_hi = 64", "n_hi = 500001", "2 n_hi = 1000002 exceeds the cap"),
        ("d = 3", "d = 4", "d must be 2 or 3"),
    ])
    def test_trotter_substep_counts_validated(self, old, new, message):
        text = (CONFIGS / "trotter-convergence.cfg").read_text()
        assert old in text
        with pytest.raises(ConfigError, match=message):
            parse_config(text.replace(old, new))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = frobnicate")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment = coercivity-report\nL1=1\nL1=2\nL2=0\nL3=0")


# a value that breaks each kind of key bound, by the bound as shown
BREAKS_BOUND = {"> 0": "0", ">= 0": "-1", ">= 3": "2", ">= 1": "0", "!= 0": "0",
                "explicit-euler or imex": "rk4"}

# (experiment, row message) -> (shipped config, edits (old -> new) that break
# that row alone); experiment None for the rows of cli.COMMON.  A row whose
# message is None takes the library's message, given as a third element.
CUBIC = "blow-up experiments require L4 != 0 (no cubic mechanism)"
BULK_SUBSTEPS = ("bulk-ODE substep count T rate / 0.1 = {c.substeps:.3g} exceeds the cap of "
                 "{cap} steps")
BREAKS_ROW = {
    (None, "R0 < R1 required"): ("blowup", {"R1 = 4": "R1 = 2"}),
    (None, "T/dt = {c.steps:.3g} exceeds the cap of {cap} steps"):
        ("smallness", {"T = 5": "T = 1e300"}),
    ("smallness", "amplitude_frac must be nonzero"):
        ("smallness", {"amplitude_frac = 0.9": "amplitude_frac = 0"}),
    ("smallness", "coercivity violated: need L1+L2 > 0 and L1+L3 > 0"):
        ("smallness", {"L2 = 0": "L2 = -2"}),
    ("smallness", "smallness experiment needs L4 != 0 (eta1 finite)"):
        ("smallness", {"L4 = 1": "L4 = 0"}),
    ("smallness", "smallness requires |a| <= 2 c eta1"): ("smallness", {"L4 = 1": "L4 = 1\na = 1"}),
    ("energy-decay", "amplitude must be nonzero"):
        ("energy-decay", {"amplitude = 0.05": "amplitude = 0"}),
    ("energy-decay", "energy-decay requires L4 = 0"):
        ("energy-decay", {"amplitude = 0.05": "amplitude = 0.05\nL4 = 1"}),
    ("blowup", CUBIC): ("blowup", {"L4 = -1": "L4 = 0"}),
    ("blowup-threshold-search", CUBIC): ("blowup-threshold-search", {"L4 = -1": "L4 = 0"}),
    ("physicality", BULK_SUBSTEPS): ("physicality", {"T = 10": "T = 1e300"}),
    ("trotter-convergence", BULK_SUBSTEPS): ("trotter-convergence", {"T = 0.25": "T = 1e300"}),
    ("trotter-convergence", "1 <= n_lo <= n_hi required"):
        ("trotter-convergence", {"n_lo = 8": "n_lo = 128"}),
    ("trotter-convergence", "2 n_lo <= n_hi required: the empirical order needs two error estimates"):
        ("trotter-convergence", {"n_hi = 64": "n_hi = 15"}),
    ("trotter-convergence", "2 n_hi = {c.trotter_steps} exceeds the cap of {cap} steps"):
        ("trotter-convergence", {"n_hi = 64": "n_hi = 500001"}),
    ("trotter-convergence", "trotter-convergence requires L4 = 0"):
        ("trotter-convergence", {"T = 0.25": "T = 0.25\nL4 = 1"}),
    ("trotter-convergence", "trotter-convergence with d = 3 requires L2 + L3 = 0"):
        ("trotter-convergence", {"T = 0.25": "T = 0.25\nL2 = 1"}),
    ("trotter-convergence", None): ("trotter-convergence", {"n_lo = 8": "n_lo = 1"},
                                    "kernel support 125 exceeds the period (64 cells); reduce dt"),
    ("hedgehog-consistency",
     "hedgehog-consistency needs R1 - 6 h_s >= R0 + 6 h_s, the range of its sample radii"):
        ("hedgehog-consistency", {"R1 = 4": "R1 = 3.01"}),
}


def _pattern(template):
    """A regex for the messages a row's template formats to."""
    return "".join(re.escape(text) + (".+" if name is not None else "")
                   for text, name, _, _ in string.Formatter().parse(template))


def _check_stderr(tmp_path, capsys, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    return capsys.readouterr().err


class TestSchema:
    """Every bound and every hypothesis row of the schema rejects a config
    with its own message; a row with no example fails."""

    @pytest.mark.parametrize("key", [k for k, (_, _, bound) in cli.KEYS.items() if bound])
    def test_bound_rejects(self, tmp_path, capsys, key):
        shown, _, message = cli.KEYS[key][2]
        text = (CONFIGS / "coercivity-report.cfg").read_text() + f"{key} = {BREAKS_BOUND[shown]}\n"
        assert _check_stderr(tmp_path, capsys, text) == f"qflow: {message.format(key)}\n"

    ROWS = [(name, message) for name, spec in [(None, None), *cli.EXPERIMENTS.items()]
            for _, message in (spec.hypotheses if spec else cli.COMMON)]

    def test_every_example_breaks_a_row(self):
        assert set(BREAKS_ROW) == set(self.ROWS)

    @pytest.mark.parametrize("experiment, message", ROWS)
    def test_hypothesis_rejects(self, tmp_path, capsys, experiment, message):
        base, edits, *library = BREAKS_ROW[(experiment, message)]
        err = _check_stderr(tmp_path, capsys, _edited(base, edits))
        expected = re.escape(library[0]) if message is None else _pattern(message)
        assert re.fullmatch(f"qflow: {expected}\n", err), err

    def test_readme_key_table(self):
        # the README's key table has one row per key, as the schema gives it
        readme = (CONFIGS.parent / "README.md").read_text().split("## CLI")[1].split("\n## ")[0]
        rows = [line for line in readme.splitlines() if line.startswith("| `")]
        expected = []
        for key, (typ, default, bound) in cli.KEYS.items():
            if key == "experiment":
                continue
            cells = [f"`{key}`", typ.__name__, "" if default is None else str(default),
                     bound[0] if bound else "",
                     ", ".join(n for n, e in cli.EXPERIMENTS.items() if key in e.required),
                     ", ".join(n for n, e in cli.EXPERIMENTS.items() if key in e.derived)]
            expected.append("| " + " | ".join(cells) + " |")
        assert rows == expected


class TestRunExperiment:
    def test_coercivity_report(self, tmp_path):
        cfg = parse_config(COERCIVITY_CFG)
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["results"]["eigenvalues"] == pytest.approx([6, 6, 8, 8], abs=1e-10)
        assert summary["results"]["nu"] == 3.0
        assert summary["config"]["L2"] == 2.0  # resolved config embedded
        assert summary["config"]["a"] == 0.0  # the a the run used

    def test_config_records_derived_defaults(self, tmp_path):
        # energy-decay without amplitude or dt runs with amplitude 0.05 and
        # half the stability bound, and summary.json says so
        text = "experiment = energy-decay\na = 0.1\nL1 = 1\nT = 2e-4\nnx = 8\nny = 8\n"
        report = run_experiment(parse_config(text), str(tmp_path), emit_svg=False)
        config = report.summary["config"]
        assert config["amplitude"] == 0.05
        grid = pde2d.Grid2D.from_extent(8, 8, 1.0, 1.0)
        assert config["dt"] == report.summary["results"]["dt"] == 0.5 * pde2d.stability_dt(
            grid, parse_config(text).params())

    def test_csv_header_fixed(self, tmp_path):
        cfg = parse_config(COERCIVITY_CFG)
        run_experiment(cfg, str(tmp_path))
        first = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert first == CSV_HEADER

    def test_smallness_zero_amplitude(self, tmp_path):
        # zero data stay zero, so the checks pass on a field that never
        # moves: the config is rejected, and the run past the check shows why
        text = ("experiment = smallness\nL1 = 1\nL4 = 1\nT = 0.02\ndt = 2e-3\n"
                "nx = 12\nny = 12\namplitude_frac = 0\n")
        with pytest.raises(ConfigError, match="amplitude_frac must be nonzero"):
            parse_config(text)
        cfg = parse_config(text.replace("amplitude_frac = 0", "amplitude_frac = 0.5"))
        cfg.values["amplitude_frac"] = 0.0
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)  # energy stays 0

    def test_smallness_fails_outside_its_hypothesis(self, tmp_path):
        # negative control: a = -1.5 (2 c eta1) breaks |a| <= 2 c eta1, so
        # qflow check rejects it and the run goes through the library; the
        # nematic well lies past sqrt(2 eta1), and both checks read FAIL
        text = _edited("smallness", {"T = 5": "T = 60", "dt = 5e-3": "dt = 0.05",
                                     "amplitude_frac = 0.9": "amplitude_frac = 0.1"})
        cfg = parse_config(text + "Lx = 40\nLy = 40\nseed = 0\n")
        eta1 = energy.derived_constants(cfg.params(), strict=True).eta1
        cfg.values["a"] = -1.5 * 2.0 * cfg.params().c * eta1
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        sup, held = report.summary["checks"]
        assert not sup["passed"] and sup["measured"] > sup["tolerance"]
        assert not held["passed"]
        assert not report.passed

    def test_smallness_checks_read_every_step(self, tmp_path, monkeypatch):
        # a peak max h^2 between records, above the bound, while every
        # recorded max h^2 stays below it: both checks read FAIL
        real_run = pde2d.run

        def peaked(*args, **kwargs):
            trace = real_run(*args, **kwargs)
            return dataclasses.replace(trace, peak_h2=4.0 * trace.small_cap)

        monkeypatch.setattr(pde2d, "run", peaked)
        cfg = parse_config(_edited("smallness", {"nx = 64": "nx = 16", "ny = 64": "ny = 16",
                                                 "T = 5": "T = 0.05"}))
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        sup, held = report.summary["checks"]
        assert not sup["passed"] and sup["measured"] > sup["tolerance"]
        assert not held["passed"] and not report.passed
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert rows and all(r.endswith(",1") for r in rows)

    def test_blowup_flag_fails_without_the_quench(self, tmp_path):
        # negative control: the shipped blowup data at a = 0 never reach
        # the threshold before T, so the flag check reads FAIL
        cfg = parse_config(_edited("blowup", {"a = -6000": "a = 0"}))
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        flag = report.summary["checks"][1]
        assert flag["name"] == "blow-up flag raised after the first step and before T"
        assert not flag["passed"] and flag["measured"] is None
        assert report.summary["results"]["final_y"] < radial.BLOWUP_Y_THRESHOLD
        assert not report.passed

    @pytest.mark.parametrize("amplitude", ["-2e4", "-756"])
    def test_blowup_flag_fails_on_data_past_the_threshold(self, tmp_path, amplitude):
        # negative control: from |amplitude| >= 756 on, y0 is above the
        # threshold (1,000,188 at -756), so the run stops at t = 0 with no
        # step and shows no crossing; the flag check reads FAIL
        cfg = parse_config(_edited("blowup", {"amplitude = -50": f"amplitude = {amplitude}"}))
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        flag = report.summary["checks"][1]
        assert flag["name"] == "blow-up flag raised after the first step and before T"
        assert not flag["passed"] and flag["measured"] == 0.0
        assert report.summary["results"]["y0"] > radial.BLOWUP_Y_THRESHOLD
        assert not report.passed

    @pytest.mark.parametrize("broken", [False, True], ids=["plain", "rotated-output"])
    def test_physicality_equivariance_fails_on_a_step_that_rotates(self, tmp_path, monkeypatch,
                                                                   broken):
        # negative control: a bulk step that turns each output block by a
        # fixed rotation of 1e-6 rad no longer commutes with rotations
        real_step = cli.bulk_ode_step
        c, s = math.cos(1e-6), math.sin(1e-6)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

        def rotated(Q, dt, params, d):
            return turn @ real_step(Q, dt, params, d) @ turn.T

        if broken:
            monkeypatch.setattr(cli, "bulk_ode_step", rotated)
        cfg = parse_config(_edited("physicality", {"T = 10": "T = 1", "n_grid = 20": "n_grid = 8"}))
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        equi = report.summary["checks"][2]
        assert equi["name"] == "O(3)-equivariance of the bulk flow"
        assert equi["measured"] == report.summary["results"]["equivariance_error"]
        assert equi["passed"] is not broken and report.passed is not broken
        if broken:
            assert equi["measured"] > 1e-7
        else:
            assert equi["measured"] <= 1e-14

    @pytest.mark.parametrize("mutate, d", [
        # the weights sum to 1.05; up to 1 + 2e-2 on this grid (and at 1 + 1e-6)
        # the check reads PASS, as each heat step lowers the hull's peak more
        (lambda field, out: out.data * 1.05, 3),
        # a backward heat step of 1e-3 its size: weights 1.001 delta - 1e-3 w
        (lambda field, out: field.data - 1e-3 * (out.data - field.data), 3),
        (lambda field, out: out.data * 1.05, 2),
    ], ids=["scaled-1.05", "backward-1e-3", "scaled-1.05-d2"])
    def test_trotter_hull_fails_on_a_heat_step_that_leaves_the_hull(self, tmp_path, monkeypatch,
                                                                   mutate, d):
        # negative control: a heat step that is no longer a convex
        # combination lets the hull-spanning data leave their hull
        real_heat_step = splitting.heat_step

        def broken(field, dt, L1):
            out = real_heat_step(field, dt, L1)
            return splitting.PeriodicField(mutate(field, out), out.h)

        monkeypatch.setattr(splitting, "heat_step", broken)
        cfg = parse_config(_edited("trotter-convergence", {"n_cells = 64": "n_cells = 32",
                                                           "n_hi = 64": "n_hi = 16",
                                                           "d = 3": f"d = {d}"}))
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        hull = report.summary["checks"][2]
        assert hull["name"] == "hull bounds inside initial hull (+1e-8)"
        assert not hull["passed"] and hull["measured"] > 1e-8
        assert report.summary["results"]["worst_hull_excess"] == hull["measured"]
        assert not report.passed

    def test_blowup_experiment(self, tmp_path):
        cfg = parse_config(BLOWUP_CFG)
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        res = report.summary["results"]
        assert res["criterion_value"] == pytest.approx(math.pi**2, rel=1e-9)
        assert res["blown_up"] is True
        assert res["blowup_time"] < 0.01

    def test_determinism_byte_identical_csv(self, tmp_path):
        cfg_text = (
            "experiment = energy-decay\na = 0.1\nL1 = 1\nT = 0.002\n"
            "nx = 16\nny = 16\nscheme = explicit-euler\nseed = 3\n"
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_experiment(parse_config(cfg_text), str(out1))
        run_experiment(parse_config(cfg_text), str(out2))
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_svg_off_changes_no_numbers(self, tmp_path):
        cfg_text = (
            "experiment = energy-decay\na = 0.1\nL1 = 1\nT = 0.002\n"
            "nx = 16\nny = 16\nscheme = explicit-euler\n"
        )
        out1, out2 = tmp_path / "svg_on", tmp_path / "svg_off"
        run_experiment(parse_config(cfg_text), str(out1), emit_svg=True)
        run_experiment(parse_config(cfg_text), str(out2), emit_svg=False)
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert any(out1.glob("*.svg"))
        assert not any(out2.glob("*.svg"))

    def test_hedgehog_consistency(self, tmp_path):
        cfg = parse_config(
            "experiment = hedgehog-consistency\nL1 = 1\nL2 = 0.1\nL3 = 0.2\nL4 = 0.7\n"
            "a = 0.3\nR0 = 3\nR1 = 4\nn_samples = 6\nh_s = 4e-3\n"
        )
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        for ratio in report.summary["results"]["ratios"].values():
            assert 3.5 <= ratio <= 4.5

    def test_threshold_search_brackets(self, tmp_path):
        # small-R0 annulus: the quadratic elastic source wins at large
        # amplitude, decays at small amplitude, so a genuine threshold exists
        cfg = parse_config(
            "experiment = blowup-threshold-search\nR0 = 0.3\nR1 = 1.3\nnr = 60\n"
            "L1 = 0.5\nL4 = -1\na = 0\nc = 1e-6\nT = 0.5\ndt = 1e-4\n"
            "amp_lo = -0.2\namp_hi = -60\n"
        )
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        res = report.summary["results"]
        width = abs(res["interval_hi"] - res["interval_lo"])
        assert width == pytest.approx(59.8 / 2**16, rel=1e-9)
        assert res["interval_lo"] < res["interval_hi"]


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """run(name): the trace.csv bytes and summary results of the shipped
    config, each run once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
            report = run_experiment(cfg, str(out), emit_svg=False)
            runs[name] = (out / "trace.csv").read_bytes(), report.summary["results"]
        return runs[name]

    return run


class TestShippedConfigs:
    """Outputs of shipped configs, pinned bit for bit."""

    def test_blowup_trace_csv_pinned(self, tmp_path):
        cfg = parse_config((CONFIGS / "blowup.cfg").read_text())
        run_experiment(cfg, str(tmp_path), emit_svg=False)
        data = (tmp_path / "trace.csv").read_bytes()
        assert len(data.splitlines()) == 136
        assert hashlib.sha256(data).hexdigest() == (
            "5e64dcaf36bd189091075131d3b0f5fa5daf5ce0b8e277319599e4f1b0801fb2"
        )

    def test_physicality_trace_csv_pinned(self, tmp_path):
        cfg = parse_config((CONFIGS / "physicality.cfg").read_text())
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        data = (tmp_path / "trace.csv").read_bytes()
        assert len(data.splitlines()) == 52
        assert hashlib.sha256(data).hexdigest() == (
            "91a4a9fa5430304238c5c1efee40cc9e6c0d17b6bd8c11e16a584601e4a43d20"
        )
        assert report.summary["results"]["equivariance_error"] == 8.881784197001252e-16

    def test_trotter_convergence_results_pinned(self, tmp_path):
        cfg = parse_config((CONFIGS / "trotter-convergence.cfg").read_text())
        res = run_experiment(cfg, str(tmp_path), emit_svg=False).summary["results"]
        assert res["errors"] == [0.008434403885013342, 0.003807433070274524,
                                 0.0017978147448386593, 0.0008756238370002604]
        assert res["orders"] == [1.1474674311046273, 1.0825743097018683, 1.0378612320534766]
        assert res["initial_hull"] == [-0.728713553878169, 1.457427107756338]
        assert res["worst_hull_excess"] == 0.0

    def test_trotter_convergence_2d_passes(self, tmp_path):
        # the 2x2 data span the invariant interval [-sqrt(|a|/2c), sqrt(|a|/2c)],
        # as the 3x3 data do theirs, so the bulk ODE cannot grow the hull
        cfg = parse_config(_edited("trotter-convergence", {"d = 3": "d = 2"}))
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        assert report.passed
        res = report.summary["results"]
        r = qtensor.physical_interval(cfg.params(), 2).hi
        assert res["initial_hull"] == [-r, r]
        assert res["worst_hull_excess"] == 0.0
        assert min(res["orders"]) > 1.0

    @pytest.mark.parametrize("name, lines, digest", [
        ("smallness", 1002, "4f3d37a1aed0f67e506e80683d79b70d482c06d98cc702592d368dfb624fd01b"),
        ("energy-decay", 1586, "9001b9bcadccf9adab156c0fba9cf8339a32afd078384ad2ba60985ecad12821"),
        ("continuous-dependence", 502,
         "74f3bc25b02c1c957ae3c74549eacd80718d951b9e530d60b97c591089e855a4"),
    ])
    def test_rectangle_trace_csv_pinned(self, shipped_run, name, lines, digest):
        data = shipped_run(name)[0]
        assert len(data.splitlines()) == lines
        assert hashlib.sha256(data).hexdigest() == digest

    def test_smallness_128_trace_csv_pinned(self, tmp_path):
        # the benchmark's 128x128 config, read from where the benchmark keeps it
        path = CONFIGS.parent / "perfbench" / "configs" / "smallness-128.cfg"
        run_experiment(parse_config(path.read_text()), str(tmp_path), emit_svg=False)
        data = (tmp_path / "trace.csv").read_bytes()
        assert len(data.splitlines()) == 22
        assert hashlib.sha256(data).hexdigest() == (
            "00a2d58f8fa9f97371e30fc5fb5af4e90cefaeb5d12f83a3f0ee1ba6b6a7dfc0"
        )

    def test_rectangle_results_pinned(self, shipped_run):
        def results(name):
            return shipped_run(name)[1]

        res = results("smallness")
        assert res["eta1"] == 0.09026552133617163
        assert res["initial_sup"] == res["max_sup_over_run"] == 0.38240050282994925
        assert res["bound"] == 0.4253143370364213  # sqrt(2 eta1) (1 + SMALLNESS_REL_TOL)
        assert res["steps_recorded"] == 1001
        res = results("continuous-dependence")
        assert res["slope"] == -38.539681342148064
        assert res["ratio_max_deviation"] == 2.502305695983864e-08
        assert res["initial_distances"] == [4.7556108116252684e-07, 4.755610811623654e-08]
        assert res["final_distances"] == [4.047863464118663e-24, 4.0478633628384313e-25]
        res = results("energy-decay")
        assert res["dt"] == 9.467455621301776e-06
        assert res["final_energy"] == 0.00026609341917425045
        assert res["max_defect_rel"] == 1.1522485379852351e-07

    def test_hedgehog_results_pinned(self, shipped_run):
        res = shipped_run("hedgehog-consistency")[1]
        assert res["ratios"] == {"constant": 4.001032100221799, "linear": 3.9961676405822737,
                                 "sine": 3.9999987494869504}
        assert res["mismatches"] == {
            "constant": [6.572691193529323e-07, 1.6427489279990937e-07],
            "linear": [1.97742662955136e-06, 4.948307497087967e-07],
            "sine": [0.00018290951914146092, 4.5727394081040984e-05],
        }

    def test_threshold_search_bracket_pinned(self, shipped_search):
        report = shipped_search.report
        assert report.passed
        res = report.summary["results"]
        assert len(res["iterations"]) == 16
        assert (res["interval_lo"], res["interval_hi"]) == (
            -3.6710571289062504, -3.670144653320313
        )
        # every midpoint and its flag, as full runs to T give them: a run
        # that stops on entering the smallness regime must flag the same
        assert [(it["amplitude"], it["blown_up"]) for it in res["iterations"]] == [
            (-30.1, True), (-15.15, True), (-7.675, True), (-3.9375, True),
            (-2.06875, False), (-3.003125, False), (-3.4703125, False),
            (-3.70390625, True), (-3.587109375, False), (-3.6455078125, False),
            (-3.67470703125, True), (-3.660107421875, False),
            (-3.6674072265625, False), (-3.6710571289062504, True),
            (-3.6692321777343753, False), (-3.670144653320313, False),
        ]
        width, end_flags = (c["measured"] for c in report.summary["checks"])
        assert width == res["width"] and end_flags == [False, True]


# the split path's spans in the benchmark, by module
SPLIT_SPANS = {"bulk_ode_rhs": splitting, "bulk_ode_step": splitting, "heat_step": splitting,
               "hull_bounds": splitting, "eigen_ode_integrate": splitting,
               "eigvals_traceless_sym3": qtensor}


class TestSplitSpans:
    """The split experiments call every span the benchmark times on them,
    whichever binding they call it through."""

    TROTTER = {"n_cells = 64": "n_cells = 32", "n_hi = 64": "n_hi = 16"}
    PHYSICALITY = {"T = 10": "T = 1", "n_grid = 20": "n_grid = 8", "n_rotations = 20": "n_rotations = 3"}

    @staticmethod
    def _count_calls(monkeypatch):
        """Wrap every binding in qflow of each span with a call counter;
        return the counts and the (bulk_ode_rhs calls, RK4 substeps) of
        each bulk_ode_step call."""
        calls = dict.fromkeys(SPLIT_SPANS, 0)
        per_step, substeps = [], []
        real_substeps = splitting._substeps

        def recorded_substeps(T, rate):
            substeps.append(real_substeps(T, rate))
            return substeps[-1]

        monkeypatch.setattr(splitting, "_substeps", recorded_substeps)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                rhs0 = calls["bulk_ode_rhs"]
                out = fn(*args, **kwargs)
                if name == "bulk_ode_step":
                    per_step.append((calls["bulk_ode_rhs"] - rhs0, substeps[-1]))
                return out
            return wrapper

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "qflow"]
        for name, module in SPLIT_SPANS.items():
            original = getattr(module, name)
            wrapper = counting(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
        # the from-imports are wrapped too
        assert cli.bulk_ode_step is splitting.bulk_ode_step
        assert splitting.eigvals_traceless_sym3 is qtensor.eigvals_traceless_sym3
        return calls, per_step

    @pytest.mark.parametrize("name, edits, counts", [
        ("trotter-convergence", TROTTER,
         {"bulk_ode_rhs": 280, "bulk_ode_step": 56, "heat_step": 56, "hull_bounds": 117,
          "eigen_ode_integrate": 0, "eigvals_traceless_sym3": 118}),
        ("physicality", PHYSICALITY,
         {"bulk_ode_rhs": 292, "bulk_ode_step": 1, "heat_step": 0, "hull_bounds": 0,
          "eigen_ode_integrate": 50, "eigvals_traceless_sym3": 0}),
    ])
    def test_spans_called(self, tmp_path, monkeypatch, name, edits, counts):
        text = (CONFIGS / f"{name}.cfg").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        calls, per_step = self._count_calls(monkeypatch)
        assert run_experiment(parse_config(text), str(tmp_path), emit_svg=False).passed
        assert calls == counts
        # four RHS calls per RK4 substep, all inside bulk_ode_step
        assert per_step and all(rhs == 4 * n for rhs, n in per_step)
        assert sum(rhs for rhs, _ in per_step) == calls["bulk_ode_rhs"]


def _edited(name, edits):
    """The text of a shipped config with each edit (old -> new) applied."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return text


def _count_span_calls(monkeypatch, spans):
    """Wrap every binding in qflow of each span (name -> module) with a call
    counter; return the counts."""
    calls = dict.fromkeys(spans, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "qflow"]
    for span, module in spans.items():
        original = getattr(module, span)
        wrapper = counting(span, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


# the rectangle path's spans in the benchmark, by module
RECT_SPANS = {"run": pde2d, "step": pde2d, "rhs_pq": pde2d, "discrete_energy": pde2d,
              "field_distance": pde2d, "smooth_random_field": pde2d,
              "derived_constants": energy}


class TestRectSpans:
    """The rectangle experiments call every span the benchmark times on them,
    whichever binding they call it through."""

    SMALLNESS = {"nx = 64": "nx = 16", "ny = 64": "ny = 16", "T = 5": "T = 0.05"}
    ENERGY_DECAY = {"nx = 64": "nx = 16", "ny = 64": "ny = 16", "T = 0.015": "T = 2e-4\ndt = 1e-5"}
    CONTINUOUS = {"nx = 32": "nx = 16", "ny = 32": "ny = 16", "T = 1": "T = 0.02"}

    @pytest.mark.parametrize("name, edits, counts", [
        ("smallness", SMALLNESS,
         {"run": 1, "step": 0, "rhs_pq": 11, "discrete_energy": 11, "field_distance": 0,
          "smooth_random_field": 1, "derived_constants": 3}),
        ("energy-decay", ENERGY_DECAY,
         {"run": 1, "step": 0, "rhs_pq": 21, "discrete_energy": 21, "field_distance": 0,
          "smooth_random_field": 1, "derived_constants": 1}),
        # the base and both perturbed fields take each step as one stack
        ("continuous-dependence", CONTINUOUS,
         {"run": 0, "step": 10, "rhs_pq": 10, "discrete_energy": 11, "field_distance": 22,
          "smooth_random_field": 2, "derived_constants": 2}),
    ])
    def test_spans_called(self, tmp_path, monkeypatch, name, edits, counts):
        text = _edited(name, edits)
        calls = _count_span_calls(monkeypatch, RECT_SPANS)
        # the from-imports are wrapped too
        assert cli.derived_constants is pde2d.derived_constants is energy.derived_constants
        assert run_experiment(parse_config(text), str(tmp_path), emit_svg=False).passed
        assert calls == counts


# the radial path's spans in the benchmark, by module
RADIAL_SPANS = {"run_radial": radial, "theta_rhs": radial, "blowup_functional": radial,
                "blowup_certificate": radial, "comparison_lower_bound": radial,
                "dominates_comparison": radial, "hedgehog_consistency_check": radial,
                "solve_banded": radial, "rhs_pq": pde2d}


class TestRadialSpans:
    """The radial experiments call every span the benchmark times on them,
    whichever binding they call it through."""

    BLOWUP = {"nr = 200": "nr = 20"}
    SEARCH = {"nr = 100": "nr = 20", "T = 0.5": "T = 0.05"}
    HEDGEHOG = {"n_samples = 20": "n_samples = 3"}

    @pytest.mark.parametrize("name, edits, counts", [
        # 135 steps of one solve each; the 136 records (t = 0 and after every
        # step) take 5 monitor passes of up to 32 records, one theta_rhs and
        # one blowup_functional call each, and the certificate evaluates F(0)
        ("blowup", BLOWUP,
         {"run_radial": 1, "theta_rhs": 5, "blowup_functional": 6,
          "blowup_certificate": 1, "comparison_lower_bound": 2, "dominates_comparison": 1,
          "hedgehog_consistency_check": 0, "solve_banded": 135, "rhs_pq": 0}),
        # the flags only: one solve per lock-step step, no monitor
        ("blowup-threshold-search", SEARCH,
         {"run_radial": 0, "theta_rhs": 0, "blowup_functional": 0, "blowup_certificate": 0,
          "comparison_lower_bound": 0, "dominates_comparison": 0,
          "hedgehog_consistency_check": 0, "solve_banded": 2643, "rhs_pq": 0}),
        # 3 profiles at 2 spacings, one 2D stencil RHS per check for the
        # stack of all samples' stencils
        ("hedgehog-consistency", HEDGEHOG,
         {"run_radial": 0, "theta_rhs": 0, "blowup_functional": 0, "blowup_certificate": 0,
          "comparison_lower_bound": 0, "dominates_comparison": 0,
          "hedgehog_consistency_check": 6, "solve_banded": 0, "rhs_pq": 6}),
    ])
    def test_spans_called(self, tmp_path, monkeypatch, name, edits, counts):
        text = _edited(name, edits)
        calls = _count_span_calls(monkeypatch, RADIAL_SPANS)
        # the from-imports are wrapped too
        assert cli.blowup_certificate is radial.blowup_certificate
        assert cli.comparison_lower_bound is radial.comparison_lower_bound
        assert radial.rhs_pq is pde2d.rhs_pq
        assert run_experiment(parse_config(text), str(tmp_path), emit_svg=False).passed
        assert calls == counts


class TestContinuousDependenceSeeds:
    def test_seed_7_ratio_holds(self, tmp_path):
        # the perturbation problem is linear to first order, so the distance
        # ratio stays at eps1/eps2 while the distances decay to ~1e-24
        cfg = parse_config((CONFIGS / "continuous-dependence.cfg").read_text())
        cfg.values["seed"] = 7
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        assert report.passed
        assert report.summary["results"]["ratio_max_deviation"] < 1e-6


class TestHedgehogSeeds:
    @pytest.mark.parametrize("seed", [*range(64), 2**64 + 12345])
    def test_richardson_check_passes(self, tmp_path, seed):
        cfg = parse_config((CONFIGS / "hedgehog-consistency.cfg").read_text())
        cfg.values["seed"] = seed
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        assert report.passed
        assert report.summary["config"]["seed"] == seed


class TestMainEntry:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_check_ok(self, tmp_path, capsys):
        rc = main(["check", self._write(tmp_path, COERCIVITY_CFG)])
        assert rc == 0
        assert "config OK" in capsys.readouterr().out

    def test_check_bad_config_exit_1(self, tmp_path, capsys):
        rc = main(["check", self._write(tmp_path, "experiment = blowup\nR0 = 4\nR1 = 3")])
        assert rc == 1

    def test_run_writes_artifacts(self, tmp_path, capsys):
        rc = main([
            "run", self._write(tmp_path, COERCIVITY_CFG), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "PASS" in capsys.readouterr().out

    def test_seed_override_recorded(self, tmp_path):
        rc = main([
            "run", self._write(tmp_path, COERCIVITY_CFG),
            "--out", str(tmp_path / "out"), "--seed", "42",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["seed"] == 42

    def test_negative_seed_override_exit_1(self, tmp_path, capsys):
        # numpy's generators take no negative seed; the flag is held to the
        # key's bound before it overrides the config
        rc = main(["run", str(CONFIGS / "coercivity-report.cfg"),
                   "--out", str(tmp_path / "out"), "--seed", "-3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "qflow: --seed must be >= 0\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_1(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.txt")])
        assert rc == 1

    def test_numerical_failure_exit_2(self, tmp_path, capsys):
        # an absurd dt blows the explicit scheme up; outside a blow-up
        # experiment that is a numerical failure, and the message names the
        # stop: the first step crosses the blow-up threshold, or at a larger
        # amplitude overflows
        cfg = (
            "experiment = energy-decay\na = 0.1\nL1 = 1\nnx = 8\nny = 8\n"
            "T = 1e300\ndt = 1e299\nscheme = explicit-euler\n"
        )
        for extra, reason in (("", "crossed the blow-up threshold"),
                              ("amplitude = 1e10\n", "non-finite values")):
            rc = main(["run", self._write(tmp_path, cfg + extra), "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert "numerical failure" in err
            assert f"the energy-decay run stopped on {reason} at t = 1e+299" in err

    def test_continuous_dependence_data_above_eta2_exit_1(self, tmp_path, capsys):
        # the perturbed data exceed the eta2 bound of the library driver
        cfg = (CONFIGS / "continuous-dependence.cfg").read_text()
        cfg = cfg.replace("eps1 = 1e-6", "eps1 = 0.1")
        rc = main(["run", self._write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "initial data exceeds the eta2 smallness bound" in capsys.readouterr().err

    def test_continuous_dependence_uses_given_amplitude(self, tmp_path, capsys):
        # with L4 != 0 the given amplitude sets the data, max h^2 = amplitude^2 / 2,
        # and one above the eta2 bound (0.0274 here) still exits 1
        text = _edited("continuous-dependence", {"nx = 32": "nx = 12", "ny = 32": "ny = 12",
                                                 "T = 1": "T = 0.01"})
        out = tmp_path / "out"
        rc = main(["run", self._write(tmp_path, text + "amplitude = 0.01\n"), "--out", str(out)])
        assert rc == 0
        first = (out / "trace.csv").read_text().splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(0.01**2 / 2.0, rel=1e-12)
        assert json.loads((out / "summary.json").read_text())["config"]["amplitude"] == 0.01
        capsys.readouterr()
        rc = main(["run", self._write(tmp_path, text + "amplitude = 0.1\n"), "--out", str(out)])
        assert rc == 1
        assert "initial data exceeds the eta2 smallness bound" in capsys.readouterr().err

    def test_threshold_search_aborted_run_exit_2(self, tmp_path, capsys):
        # shipped geometry with amp_hi = +50: zeta + L4 theta = 1 - theta is
        # negative at the first step, which must not count as a blow-up
        cfg = (CONFIGS / "blowup-threshold-search.cfg").read_text()
        cfg = cfg.replace("amp_hi = -60", "amp_hi = 50")
        rc = main(["run", self._write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "backward diffusion" in err

    def test_blowup_aborted_run_exit_2(self, tmp_path, capsys):
        # shipped blowup with amplitude = +50: zeta + L4 theta <= 0 at the
        # first step, which must not read as a blow-up
        cfg = (CONFIGS / "blowup.cfg").read_text()
        cfg = cfg.replace("amplitude = -50", "amplitude = 50")
        rc = main(["run", self._write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "backward diffusion" in err

    @pytest.mark.parametrize("name, old, new, message", [
        # T = inf used to fail inside the run ("cannot convert float NaN to
        # integer"), and T = 1e300 used to run without bound
        ("physicality", "T = 10", "T = inf", "expected a finite number for key 'T'"),
        ("smallness", "T = 5", "T = 1e300", "exceeds the cap of 1000000 steps"),
        ("smallness", "dt = 5e-3", "dt = nan", "expected a finite number for key 'dt'"),
        # dt defaults to half the explicit stability bound
        ("energy-decay", "T = 0.015", "T = 1e300", "exceeds the cap of 1000000 steps"),
        # no dt: the bulk-ODE substep count T rate / 0.1 is capped instead
        ("physicality", "T = 10", "T = 1e300", "exceeds the cap of 1000000 steps"),
        ("trotter-convergence", "T = 0.25", "T = 1e300", "exceeds the cap of 1000000 steps"),
        # these used to divide by zero in derived_constants (C1 * C1 = 0, or L4 * L4 underflows)
        ("smallness", "c = 1", "c = 1\nC1 = 0", "C1 must be > 0"),
        ("smallness", "L4 = 1", "L4 = 1e-300", "needs L4 != 0 (eta1 finite)"),
        # the default dt's min(hx, hy)^2 used to raise OverflowError
        ("energy-decay", "ny = 64", "ny = 64\nLx = 1e300\nLy = 1e300",
         "stability bound overflows"),
        # these divided by zero in smooth_random_field, pde2d.run's record test
        # and the expected slope ratio eps1 / eps2
        ("smallness", "nx = 64", "nx = 64\nkmax = 0", "kmax must be at least 1"),
        ("energy-decay", "nx = 64", "nx = 64\nkmax = 0", "kmax must be at least 1"),
        ("continuous-dependence", "nx = 32", "nx = 32\nkmax = 0", "kmax must be at least 1"),
        ("smallness", "nx = 64", "nx = 64\nrecord_every = 0", "record_every must be at least 1"),
        ("continuous-dependence", "eps2 = 1e-7", "eps2 = 0", "eps2 must be nonzero"),
        # a zero perturbation read FAIL, and no rotation passed equivariance vacuously
        ("continuous-dependence", "eps1 = 1e-6", "eps1 = 0", "eps1 must be nonzero"),
        ("physicality", "n_rotations = 20", "n_rotations = 0", "n_rotations must be at least 1"),
        # zero data stay zero: the energy and sup-norm checks passed on nothing
        ("energy-decay", "amplitude = 0.05", "amplitude = 0", "amplitude must be nonzero"),
        ("smallness", "amplitude_frac = 0.9", "amplitude_frac = 0",
         "amplitude_frac must be nonzero"),
        # the run stopped in its first heat step, and in rng.uniform with
        # numpy's "high - low < 0"
        ("trotter-convergence", "n_lo = 8", "n_lo = 1",
         "kernel support 125 exceeds the period (64 cells)"),
        ("hedgehog-consistency", "R1 = 4", "R1 = 3.01", "needs R1 - 6 h_s >= R0 + 6 h_s"),
        # one n gives one error and no order: the run stopped in min() of no orders
        ("trotter-convergence", "n_hi = 64", "n_hi = 8",
         "2 n_lo <= n_hi required: the empirical order needs two error estimates"),
        ("trotter-convergence", "n_hi = 64", "n_hi = 15",
         "2 n_lo <= n_hi required: the empirical order needs two error estimates"),
    ], ids=["physicality_T_inf", "smallness_T_1e300", "smallness_dt_nan", "energy_decay_T_1e300",
            "physicality_T_1e300", "trotter_convergence_T_1e300", "smallness_C1_0",
            "smallness_L4_1e-300", "energy_decay_L_1e300", "smallness_kmax_0",
            "energy_decay_kmax_0", "continuous_dependence_kmax_0", "smallness_record_every_0",
            "continuous_dependence_eps2_0", "continuous_dependence_eps1_0",
            "physicality_n_rotations_0", "energy_decay_amplitude_0",
            "smallness_amplitude_frac_0", "trotter_convergence_n_lo_1",
            "hedgehog_consistency_R1_3.01", "trotter_convergence_n_hi_8",
            "trotter_convergence_n_hi_15"])
    def test_unusable_time_exit_1(self, tmp_path, capsys, name, old, new, message):
        text = (CONFIGS / f"{name}.cfg").read_text()
        assert old in text
        path = self._write(tmp_path, text.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in (["check", path], ["run", path, "--out", str(tmp_path / "out")]):
                assert main(command) == 1
                err = capsys.readouterr().err
                assert message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("r1, rc", [("3.047", 1), ("3.049", 0)])
    def test_hedgehog_annulus_edge(self, tmp_path, capsys, r1, rc):
        # 12 h_s = 0.048 on the shipped R0 = 3: check rejects exactly the
        # annuli whose sample range rng.uniform refuses in the run
        path = self._write(tmp_path, _edited("hedgehog-consistency", {
            "R1 = 4": f"R1 = {r1}", "n_samples = 20": "n_samples = 3"}))
        assert main(["check", path]) == rc
        assert main(["run", path, "--out", str(tmp_path / "out")]) == rc
        assert "high - low" not in capsys.readouterr().err

    def test_non_finite_hull_exit_2(self, tmp_path, capsys, monkeypatch):
        def nan_at_one_cell(data, dt, params, d):
            out = bulk_ode_step(data, dt, params, d)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(splitting, "bulk_ode_step", nan_at_one_cell)
        text = (CONFIGS / "trotter-convergence.cfg").read_text()
        text = text.replace("n_cells = 64", "n_cells = 16").replace("n_hi = 64", "n_hi = 16")
        rc = main(["run", self._write(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure: non-finite eigenvalues after bulk-ODE substep 1" in err

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(st.sampled_from(sorted(cli.KEYS)), CONFIG_VALUES,
                           min_size=1, max_size=3))
    # these used to raise ZeroDivisionError in derived_constants
    @example({"C1": "0"})
    @example({"L4": "1e-300"})
    # this overflowed min(hx, hy)^2 in energy-decay's default dt
    @example({"Lx": "1e300", "Ly": "1e300"})
    def test_check_any_config_text(self, tmp_path_factory, overrides):
        # every shipped config with up to three keys set to generated text:
        # check exits 0 or 1 with one line and never raises
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        for base in sorted(CONFIGS.glob("*.cfg")):
            lines = [line for line in base.read_text().splitlines()
                     if line.partition("=")[0].strip() not in overrides]
            path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["check", str(path)])
            assert rc in (0, 1)
            assert len((out.getvalue() + err.getvalue()).splitlines()) == 1

    def test_import_loads_no_scipy(self):
        # only the radial solve needs scipy, and it loads it on first use
        code = "import sys, qflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(pathlib.Path(splitting.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_radial_runs_load_no_numpy_random(self, tmp_path):
        # numpy.random brings in hashlib and OpenSSL's libcrypto, the largest
        # step of the radial workload's peak RSS; no radial experiment needs it
        texts = {"blowup": _edited("blowup", {}),
                 "hedgehog-consistency": _edited("hedgehog-consistency", {}),
                 "blowup-threshold-search": _edited("blowup-threshold-search",
                                                    {"T = 0.5": "T = 0.01"})}
        code = """if True:
            import json, sys
            from qflow import cli
            for name, text in json.loads(sys.argv[1]).items():
                report = cli.run_experiment(cli.parse_config(text), sys.argv[2] + "/" + name)
                assert report.passed, name
            print("numpy.random" in sys.modules)
        """
        src = str(pathlib.Path(radial.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code, json.dumps(texts), str(tmp_path)],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_console_script_installed(self):
        out = subprocess.run(
            [sys.executable, "-m", "qflow.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "run" in out.stdout and "check" in out.stdout
