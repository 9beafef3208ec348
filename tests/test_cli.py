import hashlib
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qflow.cli import (
    CSV_HEADER,
    ConfigError,
    main,
    parse_config,
    run_experiment,
)

COERCIVITY_CFG = """
experiment = coercivity-report
L1 = 1
L2 = 2
L3 = 3
"""

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

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

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = frobnicate")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment = coercivity-report\nL1=1\nL1=2\nL2=0\nL3=0")


class TestRunExperiment:
    def test_coercivity_report(self, tmp_path):
        cfg = parse_config(COERCIVITY_CFG)
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["results"]["eigenvalues"] == pytest.approx([6, 6, 8, 8], abs=1e-10)
        assert summary["results"]["nu"] == 3.0
        assert summary["config"]["L2"] == 2.0  # resolved config embedded

    def test_csv_header_fixed(self, tmp_path):
        cfg = parse_config(COERCIVITY_CFG)
        run_experiment(cfg, str(tmp_path))
        first = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert first == CSV_HEADER

    def test_smallness_zero_amplitude(self, tmp_path):
        cfg = parse_config(
            "experiment = smallness\nL1 = 1\nL4 = 1\nT = 0.02\ndt = 2e-3\n"
            "nx = 12\nny = 12\namplitude_frac = 0\n"
        )
        report = run_experiment(cfg, str(tmp_path))
        assert report.passed
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)  # energy stays 0

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


class TestShippedConfigs:
    """Outputs of shipped configs, pinned bit for bit."""

    def test_blowup_trace_csv_pinned(self, tmp_path):
        cfg = parse_config((CONFIGS / "blowup.cfg").read_text())
        run_experiment(cfg, str(tmp_path), emit_svg=False)
        data = (tmp_path / "trace.csv").read_bytes()
        assert len(data.splitlines()) == 136
        assert hashlib.sha256(data).hexdigest() == (
            "edbc8d98ef39fcaefebe9abba248540df362fd07e87274fd44e01649defeb019"
        )

    def test_physicality_trace_csv_pinned(self, tmp_path):
        cfg = parse_config((CONFIGS / "physicality.cfg").read_text())
        run_experiment(cfg, str(tmp_path), emit_svg=False)
        data = (tmp_path / "trace.csv").read_bytes()
        assert len(data.splitlines()) == 52
        assert hashlib.sha256(data).hexdigest() == (
            "c4644b60d20b7429a68ec22f5fe555308cda26981f046442dbdc8e8511c698d4"
        )

    def test_threshold_search_bracket_pinned(self, tmp_path):
        cfg = parse_config((CONFIGS / "blowup-threshold-search.cfg").read_text())
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        assert report.passed
        res = report.summary["results"]
        assert len(res["iterations"]) == 16
        assert (res["interval_lo"], res["interval_hi"]) == (
            -3.6710571289062504, -3.670144653320313
        )


class TestContinuousDependenceSeeds:
    def test_seed_7_ratio_holds(self, tmp_path):
        # the perturbation problem is linear to first order, so the distance
        # ratio stays at eps1/eps2 while the distances decay to ~1e-24
        cfg = parse_config((CONFIGS / "continuous-dependence.cfg").read_text())
        cfg.values["seed"] = 7
        report = run_experiment(cfg, str(tmp_path), emit_svg=False)
        assert report.passed
        assert report.summary["results"]["ratio_max_deviation"] < 1e-6


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

    def test_missing_file_exit_1(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.txt")])
        assert rc == 1

    def test_numerical_failure_exit_2(self, tmp_path, capsys):
        # an absurd dt blows the explicit scheme up; outside a blow-up
        # experiment that is a numerical failure
        cfg = (
            "experiment = energy-decay\na = 0.1\nL1 = 1\nnx = 8\nny = 8\n"
            "T = 1e300\ndt = 1e299\nscheme = explicit-euler\n"
        )
        rc = main(["run", self._write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

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

    def test_console_script_installed(self):
        out = subprocess.run(
            [sys.executable, "-m", "qflow.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "run" in out.stdout and "check" in out.stdout
