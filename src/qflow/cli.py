"""Configuration-driven experiment runner.

Configs are flat ``key = value`` text files ('#' starts a comment).  Every
experiment writes a trace CSV with the fixed header
``t,energy,max_h2,l2_norm,l2_dQdt,flag`` (header-only when the experiment
has no time series), a summary JSON embedding the fully resolved config,
and one SVG line plot per monitored series.  Identical config + seed give
byte-identical CSV output.

Usage:
  qflow run <config-file> [--out DIR] [--seed N]
  qflow check <config-file>

Exit codes: 0 success (including certified blow-up), 1 precondition or
config violation, 2 numerical failure: non-finite values outside the blowup
experiment, or a threshold-search run that aborted instead of reaching T or
the threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, fields
from typing import NamedTuple

import numpy as np

from . import pde2d, radial, splitting
from .energy import (DerivedConstants, LdGParams, bulk_from_traces, derived_constants,
                     elastic_matrix, elastic_matrix_eigenvalues)
from .qtensor import physical_interval
from .pde2d import UnstableStepError
from .radial import RadialProfile, blowup_certificate, comparison_lower_bound
from .splitting import EigenPair, bulk_ode_step, eigen_ode_integrate, eigen_ode_rhs, hull_bounds

CSV_HEADER = "t,energy,max_h2,l2_norm,l2_dQdt,flag"

# Largest T/dt a config may ask for, so that a slip in T or dt is rejected
# instead of running without bound.
MAX_STEPS = 1_000_000

class ConfigError(Exception):
    """Invalid config or violated precondition (exit code 1)."""


class NumericalFailure(Exception):
    """A run aborted on non-finite values or backward diffusion where the
    experiment needs a finite run for its verdict (exit code 2)."""


# Key bounds: (as the README shows it, holds, message naming the key)
_POSITIVE = ("> 0", lambda x: x > 0.0, "{} must be positive")
_GRID = (">= 3", lambda n: n >= 3, "{} must be at least 3")
# kmax = 0 leaves no mode to scale, record_every = 0 no step to record,
# and n_rotations = 0 no sample for the equivariance check
_COUNT = (">= 1", lambda n: n >= 1, "{} must be at least 1")
# a zero perturbation has no growth to compare
_NONZERO = ("!= 0", lambda x: x != 0.0, "{} must be nonzero")

# key -> (type, default, bound).  A key without a default is in a resolved
# config only when the config gives it or its experiment derives it.
KEYS = {
    "experiment": (str, None, None),
    "a": (float, 0.0, None),
    "b": (float, 0.0, (">= 0", lambda x: x >= 0.0, "bulk assumption violated: {} must be >= 0")),
    "c": (float, 1.0, ("> 0", lambda x: x > 0.0, "bulk assumption violated: {} must be > 0")),
    "L1": (float, 0.0, None),
    "L2": (float, 0.0, None),
    "L3": (float, 0.0, None),
    "L4": (float, 0.0, None),
    "C1": (float, 1.0, ("> 0", lambda x: x > 0.0, "interpolation constant {} must be > 0")),
    "seed": (int, 0, (">= 0", lambda n: n >= 0, "{} must be >= 0")),
    "scheme": (str, "imex", (" or ".join(pde2d.SCHEMES), lambda s: s in pde2d.SCHEMES,
                             f"{{}} must be one of {pde2d.SCHEMES}")),
    "nx": (int, 64, _GRID),
    "ny": (int, 64, _GRID),
    "Lx": (float, 1.0, None),
    "Ly": (float, 1.0, None),
    "T": (float, None, _POSITIVE),
    "dt": (float, None, _POSITIVE),
    "amplitude": (float, None, None),
    "amplitude_frac": (float, 0.9, None),
    "kmax": (int, 2, _COUNT),
    "record_every": (int, 1, _COUNT),
    "R0": (float, None, ("> 0", lambda x: x > 0.0, "{} > 0 required")),
    "R1": (float, None, None),
    "nr": (int, 200, _GRID),
    "amp_lo": (float, None, None),
    "amp_hi": (float, None, None),
    "n_grid": (int, 20, _GRID),
    "n_rotations": (int, 20, _COUNT),
    "d": (int, 3, None),
    "n_cells": (int, 64, _GRID),
    "period": (float, 6.283185307179586, _POSITIVE),
    "n_lo": (int, 8, None),
    "n_hi": (int, 64, None),
    "eps1": (float, 1e-6, _NONZERO),
    "eps2": (float, 1e-7, _NONZERO),
    "n_samples": (int, 20, _GRID),
    "h_s": (float, 1e-3, _POSITIVE),
}


class Experiment(NamedTuple):
    """One experiment's schema.  derived maps a key to f(c) of the _Rules view
    c; each hypothesis is a row (holds(c), message), the message formatted with
    c and cap = MAX_STEPS, or None where holds lets a library ValueError speak."""
    driver: Callable
    required: tuple
    derived: dict
    hypotheses: tuple


@dataclass
class ExperimentConfig:
    experiment: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def params(self) -> LdGParams:
        return LdGParams(**{f.name: self.values[f.name] for f in fields(LdGParams)})

    def grid(self) -> pde2d.Grid2D:
        return pde2d.Grid2D.from_extent(self.nx, self.ny, self.Lx, self.Ly)


class _Rules(ExperimentConfig):
    """A config under resolution, as derived defaults and hypotheses read it."""

    @functools.cached_property
    def consts(self) -> DerivedConstants:
        """derived_constants, computed once; coercivity is smallness's own row."""
        return derived_constants(self.params(), strict=False)

    @property
    def steps(self) -> float:
        """T/dt; inf where the derived energy-decay dt underflows to 0; 0 with no T or dt."""
        if "T" not in self.values or "dt" not in self.values:
            return 0.0
        return self.T / self.dt if self.dt > 0.0 else math.inf

    @property
    def trotter_steps(self) -> int:
        """2 n_hi, the most steps of one trotter-convergence run."""
        return 2 * self.n_hi

    @functools.cached_property
    def substeps(self) -> float:
        """T rate / BULK_RATE_CAP: a bound on the RK4 substeps of one bulk-ODE
        integration to T, with the rate the integrators compute at the largest
        |Q| <= sqrt(6) max|lambda| of a tensor whose eigenvalues lie in the
        physical interval."""
        params = self.params()
        interval = physical_interval(params, 3 if self.experiment == "physicality" else self.d)
        nrm = math.sqrt(6.0) * max(-interval.lo, interval.hi)
        return self.T * splitting.bulk_rate_bound(params, nrm) / splitting.BULK_RATE_CAP


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value text into a validated ExperimentConfig.

    Unknown keys are rejected with their line number; missing mandatory keys
    are listed exhaustively in one message.  Each value is resolved once: as
    given (held to its key's bound), else derived by the experiment, else the
    key's default; then the COMMON rows and the hypotheses are checked.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        typ = KEYS[key][0]
        if typ is str:
            raw[key] = value
        else:
            try:
                number = typ(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                kind = "an integer" if typ is int else "a finite number"
                raise ConfigError(
                    f"line {lineno}: expected {kind} for key '{key}' (got '{value}')"
                )
            raw[key] = number

    if "experiment" not in raw:
        raise ConfigError("missing mandatory keys: experiment")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment '{experiment}'; expected one of: " + ", ".join(EXPERIMENTS)
        )
    spec = EXPERIMENTS[experiment]
    missing = [k for k in spec.required if k not in raw]
    if missing:
        raise ConfigError("missing mandatory keys: " + ", ".join(missing))

    values = {key: raw.get(key, default) for key, (_, default, _) in KEYS.items()
              if key != "experiment" and (key in raw or default is not None)}
    for key, value in values.items():
        bound = KEYS[key][2]
        if bound and not bound[1](value):
            raise ConfigError(bound[2].format(key))
    rules = _Rules(experiment, values)
    try:
        for key, derive in spec.derived.items():
            if key not in raw:
                values[key] = derive(rules)
        for holds, message in COMMON + spec.hypotheses:
            if not holds(rules):
                raise ConfigError(message.format(c=rules, cap=MAX_STEPS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(experiment, values)


# ---------------------------------------------------------------------------
# artifact writers

def _fmt(x) -> str:
    return f"{float(x):.17e}"


def write_trace_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, energy, max_h2, l2c, l2r, flag in rows:
            fh.write(
                f"{_fmt(t)},{_fmt(energy)},{_fmt(max_h2)},{_fmt(l2c)},{_fmt(l2r)},{int(flag)}\n"
            )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_svg(path, title, xs, ys, xlabel="t", ylabel="") -> None:
    """Minimal polyline plot; pure serialization of the series."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    W, H, M = 640, 400, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    if xs.size >= 2:
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        px = M + (xs - x0) / (x1 - x0) * (W - 2 * M)
        py = H - M - (ys - y0) / (y1 - y0) * (H - 2 * M)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
        parts.append(f'<line x1="{M}" y1="{H-M}" x2="{W-M}" y2="{H-M}" stroke="black"/>')
        parts.append(f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H-M}" stroke="black"/>')
        parts.append(f'<text x="{M}" y="{H-M+20}" font-size="11">{x0:.6g}</text>')
        parts.append(
            f'<text x="{W-M}" y="{H-M+20}" text-anchor="end" font-size="11">{x1:.6g}</text>'
        )
        parts.append(f'<text x="{M-5}" y="{H-M}" text-anchor="end" font-size="11">{y0:.6g}</text>')
        parts.append(f'<text x="{M-5}" y="{M+4}" text-anchor="end" font-size="11">{y1:.6g}</text>')
        parts.append(
            f'<text x="{W//2}" y="{H-10}" text-anchor="middle" font-size="12">{xlabel}</text>'
        )
        if ylabel:
            parts.append(f'<text x="12" y="{M-10}" font-size="12">{ylabel}</text>')
    else:
        parts.append(f'<text x="{W//2}" y="{H//2}" text-anchor="middle">no data</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


@dataclass
class ExperimentReport:
    experiment: str
    passed: bool
    summary: dict
    csv_path: str
    json_path: str
    svg_paths: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# individual experiments; each returns (results, checks, rows, series)
# where checks is a list of {name, passed, measured, tolerance}

def _check(name, passed, measured, tolerance):
    return {
        "name": name,
        "passed": bool(passed),
        "measured": _jsonable(measured),
        "tolerance": _jsonable(tolerance),
    }


def _trace_rows_from_run(trace: pde2d.RunTrace):
    return list(zip(trace.t, trace.energy, trace.max_h2, trace.l2_q, trace.l2_dqdt,
                    trace.smallness))


def _series_from_run(trace: pde2d.RunTrace):
    return {
        "energy": (trace.t, trace.energy),
        "max_h2": (trace.t, trace.max_h2),
        "l2_norm": (trace.t, trace.l2_q),
        "l2_dqdt": (trace.t, trace.l2_dqdt),
    }


def _exp_coercivity_report(cfg):
    params = cfg.params()
    eigs = elastic_matrix_eigenvalues(params)
    expected = np.sort(np.array([2 * (params.L1 + params.L2)] * 2 + [2 * (params.L1 + params.L3)] * 2))
    spectrum_err = float(np.abs(eigs - expected).max())
    consts = derived_constants(params, strict=False)
    rng = np.random.default_rng(cfg.seed)
    chi = rng.normal(size=(10000, 4))
    B = elastic_matrix(params)
    form = np.einsum("ni,ij,nj->n", chi, B, chi)
    norm2 = np.einsum("ni,ni->n", chi, chi)
    min_ratio = float(np.min(form / norm2))
    coercive = params.is_coercive()
    checks = [
        _check("spectrum matches 2(L1+L2)x2, 2(L1+L3)x2", spectrum_err <= 1e-10,
               spectrum_err, 1e-10),
    ]
    if coercive:
        checks.append(_check("quadratic form >= 2 nu |chi|^2",
                             min_ratio >= 2 * consts.nu - 1e-10, min_ratio, 2 * consts.nu))
    results = {
        "eigenvalues": eigs,
        "zeta": consts.zeta,
        "nu": consts.nu,
        "eta1": consts.eta1,
        "eta2": consts.eta2,
        "coercive": coercive,
        "min_form_ratio": min_ratio,
    }
    return results, checks, [], {}


def _exp_smallness(cfg):
    params = cfg.params()
    eta1 = derived_constants(params).eta1
    grid = cfg.grid()
    amplitude = cfg.amplitude_frac * math.sqrt(2.0 * eta1)
    field = pde2d.smooth_random_field(grid, amplitude, seed=cfg.seed, kmax=cfg.kmax)
    trace = pde2d.run(field, params, cfg.T, cfg.dt, scheme=cfg.scheme,
                      record_every=cfg.record_every)
    stop = trace.stop
    if stop.reason != pde2d.STOP_REACHED_T:
        raise NumericalFailure(f"the smallness run stopped on {stop.reason} at t = {stop.t!r}")
    # every step's max h^2, recorded or not
    sup = math.sqrt(2.0 * trace.peak_h2)
    bound = math.sqrt(2.0 * eta1) * (1.0 + pde2d.SMALLNESS_REL_TOL)
    checks = [
        _check("sup_t sqrt(2) max h <= sqrt(2 eta1) * 1.001", sup <= bound, sup, bound),
        _check("smallness flag true at every step", trace.smallness_held(), None, None),
    ]
    results = {
        "eta1": eta1,
        "initial_sup": amplitude,
        "max_sup_over_run": sup,
        "bound": bound,
        "steps_recorded": len(trace.t),
    }
    return results, checks, _trace_rows_from_run(trace), _series_from_run(trace)


def _exp_energy_decay(cfg):
    params = cfg.params()
    field = pde2d.smooth_random_field(cfg.grid(), cfg.amplitude, seed=cfg.seed, kmax=cfg.kmax)
    trace = pde2d.run(field, params, cfg.T, cfg.dt, scheme=cfg.scheme,
                      record_every=cfg.record_every)
    stop = trace.stop
    if stop.reason != pde2d.STOP_REACHED_T:
        raise NumericalFailure(f"the energy-decay run stopped on {stop.reason} at t = {stop.t!r}")
    dE = np.diff(trace.energy)
    monotone = bool(np.all(dE <= 1e-9))
    rel_defect = float(np.max(trace.defect[1:] / (1.0 + np.abs(trace.energy[1:]))))
    checks = [
        _check("energy non-increasing (slack 1e-9)", monotone, float(dE.max()), 1e-9),
        _check("dissipation defect <= 1e-6 (1+|E|)", rel_defect <= 1e-6, rel_defect, 1e-6),
    ]
    results = {"dt": cfg.dt, "final_energy": float(trace.energy[-1]),
               "max_defect_rel": rel_defect, "steps_recorded": len(trace.t)}
    return results, checks, _trace_rows_from_run(trace), _series_from_run(trace)


def _exp_blowup(cfg):
    params = cfg.params()
    profile = RadialProfile.sine_bump(cfg.R0, cfg.R1, cfg.nr, cfg.amplitude)
    cert = blowup_certificate(profile, params)
    trace = radial.run_radial(profile, params, cfg.T, cfg.dt)
    stop = trace.stop
    if stop.nonfinite:
        raise NumericalFailure(f"the blowup run stopped on {stop.reason} at t = {stop.t!r}")
    dominated = radial.dominates_comparison(trace, params, cert, rtol=0.01)
    rec = trace.y_minus if params.L4 < 0 else trace.y_plus
    comp, comp_div = comparison_lower_bound(cert.M0, params.a, cert.F0, cert.y0, trace.t)
    checks = [
        _check("geometric criterion R0^2 pi^2 / (9 (R1-R0)^2) > 1",
               cert.criterion_ok, cert.criterion_value, 1.0),
        # a crossing needs a step: data that start past the threshold stop at t = 0
        _check("blow-up flag raised after the first step and before T",
               stop.blown_up and stop.steps > 0, stop.blowup_time, cfg.T),
        _check("recorded y dominates comparison solution (1% rel)", dominated, None, 0.01),
    ]
    results = {
        "criterion_value": cert.criterion_value,
        "M0": cert.M0,
        "F0": cert.F0,
        "y0": cert.y0,
        "certificate": cert.reason,
        "predicted_blowup_time": cert.predicted_blowup_time,
        "blowup_time": stop.blowup_time,
        "blown_up": stop.blown_up,
        "final_y": float(trace.y[-1]),
        "comparison_divergence_time": comp_div,
        "y_series": trace.y,
        "y_signed_series": rec,
        "comparison_series": comp,
        "times": trace.t,
    }
    # the CSV columns of a radial run: energy := F(t), max_h2 := max theta^2 / 4
    # (h^2 of the hedgehog field), l2_norm := ||Q||_L2 = sqrt(pi y),
    # l2_dQdt := sqrt(pi) * rate, flag := y above the threshold
    series = {
        "energy": (trace.t, trace.F),
        "max_h2": (trace.t, trace.max_abs_theta**2 / 4.0),
        "l2_norm": (trace.t, np.sqrt(math.pi * np.maximum(trace.y, 0.0))),
        "l2_dqdt": (trace.t, math.sqrt(math.pi) * trace.rate),
    }
    rows = zip(trace.t, *(ys for _, ys in series.values()), trace.y > radial.BLOWUP_Y_THRESHOLD)
    return results, checks, list(rows), series


def _exp_blowup_threshold_search(cfg):
    search = radial.threshold_search(cfg.R0, cfg.R1, cfg.nr, cfg.params(), cfg.T, cfg.dt,
                                     cfg.amp_lo, cfg.amp_hi)
    if search.aborted is not None:
        # an aborted run says nothing about the threshold, so no bracket
        amp, stop = search.aborted
        raise NumericalFailure(
            f"the run at amplitude {amp!r} stopped on {stop.reason} at t = {stop.t!r}"
        )
    lo_blows, hi_blows = (flag.blown_up for _, flag in search.runs[:2])
    if lo_blows == hi_blows:
        raise ConfigError(
            "amp_lo and amp_hi do not bracket the blow-up threshold "
            f"(flags {lo_blows} and {hi_blows})"
        )
    history = [{"amplitude": amp, "blown_up": flag.blown_up} for amp, flag in search.history]
    lo, hi = search.lo, search.hi
    interval = sorted((lo, hi))
    width = interval[1] - interval[0]
    # each rounded midpoint may move the bracket by half an ulp of the
    # amplitudes; the halvings keep the sum of those below one ulp
    amp_ulp = math.ulp(max(abs(cfg.amp_lo), abs(cfg.amp_hi)))
    max_width = abs(cfg.amp_hi - cfg.amp_lo) / 2 ** 16 + 2.0 * amp_ulp
    flags = {amp: flag.blown_up for amp, flag in search.runs}
    end_flags = [flags[lo], flags[hi]]
    checks = [
        _check("bracket width <= |amp_hi - amp_lo| / 2^16 (+2 ulp)",
               width <= max_width, width, max_width),
        _check("flags at the final lo and hi differ", end_flags[0] != end_flags[1],
               end_flags, None),
    ]
    results = {
        "interval_lo": interval[0],
        "interval_hi": interval[1],
        "width": width,
        "iterations": history,
        "blow_up_side": "hi" if hi_blows else "lo",
    }
    return results, checks, [], {}


def _exp_physicality(cfg):
    params = cfg.params()
    interval = physical_interval(params, 3)
    lo, hi = interval.lo, interval.hi
    grid_vals = np.linspace(lo, hi, cfg.n_grid)
    l1g, l2g = np.meshgrid(grid_vals, grid_vals, indexing="ij")
    third = -l1g - l2g
    admissible = (third >= lo) & (third <= hi)
    l1s = l1g[admissible]
    l2s = l2g[admissible]

    n_rec = 50
    tol = 1e-8
    times = np.linspace(0.0, cfg.T, n_rec + 1)
    cur1, cur2 = l1s.copy(), l2s.copy()
    rows = []
    inside_all = True
    order_all = True
    initially_ordered = l1s <= l2s
    for i, t in enumerate(times):
        if i > 0:
            cur1, cur2 = eigen_ode_integrate(cur1, cur2, params, times[i] - times[i - 1])
        lam3 = -cur1 - cur2
        all_lams = np.concatenate([cur1, cur2, lam3])
        inside = bool(all_lams.min() >= lo - tol and all_lams.max() <= hi + tol)
        inside_all = inside_all and inside
        ordered = bool(np.all(cur1[initially_ordered] <= cur2[initially_ordered] + 1e-12))
        order_all = order_all and ordered
        q2 = 2.0 * (cur1**2 + cur2**2 + cur1 * cur2)
        bulk = bulk_from_traces(q2, params, cur1**3 + cur2**3 + lam3**3)
        r1, r2 = eigen_ode_rhs(EigenPair(cur1, cur2), params)
        rate2 = 2.0 * (r1**2 + r2**2 + r1 * r2)  # |dQ/dt|_F^2 of the diagonal state
        rows.append(
            (t, float(np.mean(bulk)), float(np.max(q2) / 2.0),
             float(np.sqrt(np.mean(q2))), float(np.sqrt(np.mean(rate2))), inside)
        )

    rng = np.random.default_rng(cfg.seed)
    k = cfg.n_rotations
    R, Q0 = np.empty((2, k, 3, 3))
    for j in range(k):
        R[j], _ = np.linalg.qr(rng.normal(size=(3, 3)))
        i = rng.integers(0, len(l1s))
        Q0[j] = np.diag([l1s[i], l2s[i], -l1s[i] - l2s[i]])
    # the rotated and the direct states step as one stack
    out = bulk_ode_step(np.concatenate([R @ Q0 @ R.mT, Q0]), min(cfg.T, 1.0), params, 3)
    equi_err = float(np.abs(out[:k] - R @ out[k:] @ R.mT).max(initial=0.0))

    checks = [
        _check("eigenvalues stay in the physical interval (+1e-8)", inside_all, None, tol),
        _check("order lambda1 <= lambda2 preserved", order_all, None, 1e-12),
        _check("O(3)-equivariance of the bulk flow", equi_err <= 1e-10, equi_err, 1e-10),
    ]
    results = {
        "interval_lo": lo,
        "interval_hi": hi,
        "n_admissible": int(l1s.size),
        "equivariance_error": equi_err,
    }
    series = {
        "mean_bulk": (times, np.array([r[1] for r in rows])),
        "max_h2": (times, np.array([r[2] for r in rows])),
        "rms_norm": (times, np.array([r[3] for r in rows])),
    }
    return results, checks, rows, series


def _exp_trotter_convergence(cfg):
    params = cfg.params()
    h = cfg.period / cfg.n_cells
    # hull spans the physical interval, so the initial hull is invariant
    field0 = splitting.make_hull_spanning_field(cfg.n_cells, h, params, cfg.d, seed=cfg.seed)
    hull0 = hull_bounds(field0)
    # n_lo 2^i up to n_hi
    n_list = [cfg.n_lo << i for i in range((cfg.n_hi // cfg.n_lo).bit_length())]
    solutions = {}
    hull_ok = True
    worst_hull = 0.0
    for n in n_list + [2 * n_list[-1]]:
        res = splitting.trotter_solve(field0, cfg.T, n, params)
        solutions[n] = res.field
        for hb in res.hulls:
            worst_hull = max(worst_hull, hull0.lambda_min - hb.lambda_min,
                             hb.lambda_max - hull0.lambda_max)
            hull_ok = hull_ok and hb.within(hull0, 1e-8)
    errors = [splitting.field_l2_distance(solutions[n], solutions[2 * n]) for n in n_list]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    checks = [
        _check("||V_n - V_2n|| decreases monotonically", monotone, errors, None),
        _check("empirical order >= 0.5", min(orders) >= 0.5, orders, 0.5),
        _check("hull bounds inside initial hull (+1e-8)", hull_ok, worst_hull, 1e-8),
    ]
    results = {
        "n_list": n_list,
        "errors": errors,
        "orders": orders,
        "initial_hull": [hull0.lambda_min, hull0.lambda_max],
        "worst_hull_excess": worst_hull,
    }
    series = {"errors_vs_n": (np.array(n_list, dtype=float), np.array(errors))}
    return results, checks, [], series


def _exp_continuous_dependence(cfg):
    params = cfg.params()
    grid = cfg.grid()
    base = pde2d.smooth_random_field(grid, cfg.amplitude, seed=cfg.seed, kmax=cfg.kmax)
    shape = pde2d.smooth_random_field(grid, 1.0, seed=cfg.seed + 1, kmax=cfg.kmax)
    perturbations = [pde2d.Field2D(grid, eps * shape.p, eps * shape.q)
                     for eps in (cfg.eps1, cfg.eps2)]
    res = pde2d.continuous_dependence_experiment(base, perturbations, params, cfg.T, cfg.dt,
                                                 cfg.scheme, cfg.record_every)
    times, (d1, d2) = res.times, res.distances
    if not np.all(np.isfinite(res.distances)):
        raise NumericalFailure("non-finite distances in continuous-dependence run")
    ratio = d1 / d2
    expected = cfg.eps1 / cfg.eps2
    ratio_dev = float(np.max(np.abs(ratio / expected - 1.0)))
    slope = float(res.slope[0])
    checks = [
        _check(f"distance ratio stays {expected:g} +- 20%", ratio_dev <= 0.2, ratio_dev, 0.2),
        _check("log-distance slope finite", math.isfinite(slope), slope, None),
    ]
    results = {
        "slope": slope,
        "ratio_max_deviation": ratio_dev,
        "initial_distances": [float(d1[0]), float(d2[0])],
        "final_distances": [float(d1[-1]), float(d2[-1])],
    }
    series = {
        "distance_eps1": (times, d1),
        "distance_eps2": (times, d2),
        "ratio": (times, ratio),
    }
    rows = list(zip(times, res.energy, res.max_h2, res.l2_q, [0.0] * len(times), res.smallness))
    return results, checks, rows, series


def _exp_hedgehog_consistency(cfg):
    params = cfg.params()
    R0, R1 = cfg.R0, cfg.R1
    h1 = cfg.h_s
    pts = radial.hedgehog_sample_points(cfg.n_samples, cfg.seed, (R0, R1), h1)
    profiles = {
        "constant": (lambda r: np.full_like(np.asarray(r, dtype=float), 0.7),
                     lambda r: 0.0 * np.asarray(r), lambda r: 0.0 * np.asarray(r)),
        "linear": (lambda r: np.asarray(r, dtype=float),
                   lambda r: np.ones_like(np.asarray(r, dtype=float)),
                   lambda r: 0.0 * np.asarray(r)),
        "sine": (lambda r: np.sin(np.pi * (np.asarray(r) - R0) / (R1 - R0)),
                 lambda r: np.pi / (R1 - R0) * np.cos(np.pi * (np.asarray(r) - R0) / (R1 - R0)),
                 lambda r: -(np.pi / (R1 - R0)) ** 2 * np.sin(np.pi * (np.asarray(r) - R0) / (R1 - R0))),
    }
    mismatches = {name: [radial.hedgehog_consistency_check(triple, params, pts, h, (R0, R1))
                         for h in (h1, h1 / 2.0)] for name, triple in profiles.items()}
    ratios = {name: m1 / m2 if m2 > 0 else float("inf") for name, (m1, m2) in mismatches.items()}
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    checks = [_check("Richardson ratio in [3.5, 4.5] for all profiles", ok, ratios, [3.5, 4.5])]
    results = {"ratios": ratios, "mismatches": mismatches, "h_s": h1,
               "n_samples": cfg.n_samples}
    return results, checks, [], {}


# rows that every experiment's config is held to, before its own hypotheses
COMMON = (
    (lambda c: not {"R0", "R1"} <= c.values.keys() or c.R0 < c.R1, "R0 < R1 required"),
    (lambda c: c.steps <= MAX_STEPS, "T/dt = {c.steps:.3g} exceeds the cap of {cap} steps"),
)
_CUBIC = (lambda c: c.L4 != 0.0, "blow-up experiments require L4 != 0 (no cubic mechanism)")
# physicality and trotter-convergence integrate the bulk ODE to T with no dt
_BULK_SUBSTEPS = (lambda c: c.substeps <= MAX_STEPS,
                  f"bulk-ODE substep count T rate / {splitting.BULK_RATE_CAP} = {{c.substeps:.3g}} "
                  "exceeds the cap of {cap} steps")


EXPERIMENTS = {
    "smallness": Experiment(
        _exp_smallness, ("L1", "L4", "T", "dt"),
        # 90% of the admissible coefficient size
        {"a": lambda c: 0.9 * 2.0 * c.c * c.consts.eta1},
        # zero data stay zero, and the energy and sup-norm checks then test nothing
        ((lambda c: c.amplitude_frac != 0.0, "amplitude_frac must be nonzero"),
         (lambda c: c.params().is_coercive(), "coercivity violated: need L1+L2 > 0 and L1+L3 > 0"),
         (lambda c: c.consts.eta1 < math.inf, "smallness experiment needs L4 != 0 (eta1 finite)"),
         (lambda c: abs(c.a) <= 2.0 * c.c * c.consts.eta1, "smallness requires |a| <= 2 c eta1"))),
    "energy-decay": Experiment(
        _exp_energy_decay, ("a", "L1", "T"),
        {"dt": lambda c: 0.5 * pde2d.stability_dt(c.grid(), c.params()),
         "amplitude": lambda c: 0.05},
        ((lambda c: c.amplitude != 0.0, "amplitude must be nonzero"),
         (lambda c: c.L4 == 0.0, "energy-decay requires L4 = 0"))),
    "blowup": Experiment(
        _exp_blowup, ("a", "L1", "L4", "R0", "R1", "amplitude", "T", "dt"), {}, (_CUBIC,)),
    "blowup-threshold-search": Experiment(
        _exp_blowup_threshold_search, ("a", "L1", "L4", "R0", "R1", "amp_lo", "amp_hi", "T", "dt"),
        {}, (_CUBIC,)),
    "physicality": Experiment(_exp_physicality, ("a", "b", "T"), {}, (_BULK_SUBSTEPS,)),
    "trotter-convergence": Experiment(
        _exp_trotter_convergence, ("a", "b", "L1", "T"), {},
        ((lambda c: 1 <= c.n_lo <= c.n_hi, "1 <= n_lo <= n_hi required"),
         # n_hi < 2 n_lo leaves one n, one error and no order
         (lambda c: 2 * c.n_lo <= c.n_hi,
          "2 n_lo <= n_hi required: the empirical order needs two error estimates"),
         (lambda c: c.trotter_steps <= MAX_STEPS,
          "2 n_hi = {c.trotter_steps} exceeds the cap of {cap} steps"),
         (lambda c: c.L4 == 0.0, "trotter-convergence requires L4 = 0"),
         (lambda c: c.d != 3 or c.L2 + c.L3 == 0.0,
          "trotter-convergence with d = 3 requires L2 + L3 = 0"),
         _BULK_SUBSTEPS,
         # the widest heat kernel of the run, at dt = T / n_lo, fits the torus;
         # heat_kernel_weights raises, as the run would, when it does not
         (lambda c: splitting.heat_kernel_weights(
             c.T / c.n_lo, splitting.heat_coefficient(c.params(), c.d), c.period / c.n_cells,
             c.n_cells).size <= c.n_cells, None))),
    "continuous-dependence": Experiment(
        _exp_continuous_dependence, ("a", "L1", "L4", "T", "dt"),
        # 90% of the eta2 bound on the initial data, when there is one
        {"amplitude": lambda c: (0.9 * math.sqrt(2.0 * c.consts.eta2)
                                 if math.isfinite(c.consts.eta2) else 0.05)},
        ()),
    "coercivity-report": Experiment(_exp_coercivity_report, ("L1", "L2", "L3"), {}, ()),
    "hedgehog-consistency": Experiment(
        _exp_hedgehog_consistency, ("L1", "R0", "R1"), {},
        # the bounds rng.uniform draws the sample radii from
        ((lambda c: (c.R1 - 6.0 * c.h_s) - (c.R0 + 6.0 * c.h_s) >= 0.0,
          "hedgehog-consistency needs R1 - 6 h_s >= R0 + 6 h_s, the range of its sample radii"),)),
}


def run_experiment(cfg: ExperimentConfig, out_dir: str, emit_svg: bool = True) -> ExperimentReport:
    """Execute the named experiment deterministically and write artifacts.

    SVG emission is pure serialization of the already-computed traces;
    disabling it changes no numeric output.
    """
    os.makedirs(out_dir, exist_ok=True)
    results, checks, rows, series = EXPERIMENTS[cfg.experiment].driver(cfg)
    passed = all(c["passed"] for c in checks)
    csv_path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(csv_path, rows)
    svg_paths = []
    if emit_svg:
        for name, (xs, ys) in series.items():
            path = os.path.join(out_dir, f"{name}.svg")
            write_svg(path, f"{cfg.experiment}: {name}", xs, ys, ylabel=name)
            svg_paths.append(path)
    summary = {
        "experiment": cfg.experiment,
        "passed": passed,
        "config": _jsonable({"experiment": cfg.experiment, **cfg.values}),
        "results": _jsonable(results),
        "checks": checks,
        "artifacts": {"trace_csv": csv_path, "svg": svg_paths},
    }
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ExperimentReport(
        experiment=cfg.experiment, passed=passed, summary=summary,
        csv_path=csv_path, json_path=json_path, svg_paths=svg_paths,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="qflow-out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_check = sub.add_parser("check", help="validate a config file without running")
    p_check.add_argument("config")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"qflow: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        if args.command == "check":
            print(f"config OK: experiment '{cfg.experiment}'")
            return 0
        if args.seed is not None:
            _, holds, message = KEYS["seed"][2]
            if not holds(args.seed):
                raise ConfigError(message.format("--seed"))
            cfg.values["seed"] = args.seed
        report = run_experiment(cfg, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"qflow: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, UnstableStepError) as exc:
        print(f"qflow: numerical failure: {exc}", file=sys.stderr)
        return 2

    status = "PASS" if report.passed else "FAIL"
    print(f"{cfg.experiment}: {status}")
    for c in report.summary["checks"]:
        mark = "ok" if c["passed"] else "FAIL"
        print(f"  [{mark}] {c['name']}")
    print(f"artifacts: {report.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
