"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and wall times.  Tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qflow.energy import (
    LdGParams,
    derived_constants,
    elastic_matrix,
    elastic_matrix_eigenvalues,
    oseen_frank_forward,
    oseen_frank_inverse,
)
from qflow.qtensor import QTensor2, physical_interval
from qflow import pde2d, radial, splitting


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance {num:2d}] FAIL  {name}", flush=True)
        raise
    wall = time.perf_counter() - t0
    print(f"\n[acceptance {num:2d}] PASS  {name}  ({wall:.1f}s / budget {budget_s}s)",
          flush=True)
    assert wall < budget_s, f"runtime {wall:.1f}s exceeded the {budget_s}s budget"


def test_01_coercivity_spectrum():
    with criterion(1, "coercivity spectrum and quadratic form bound", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            L1 = rng.uniform(0.1, 2.0)
            L2 = rng.uniform(-L1 + 0.05, 2.0)
            L3 = rng.uniform(-L1 + 0.05, 2.0)
            p = LdGParams(a=0.0, b=0.0, c=1.0, L1=L1, L2=L2, L3=L3, L4=0.0)
            eigs = elastic_matrix_eigenvalues(p)
            expected = np.sort([2 * (L1 + L2)] * 2 + [2 * (L1 + L3)] * 2)
            assert np.abs(eigs - expected).max() <= 1e-10
            chi = rng.normal(size=(10000, 4))
            form = np.einsum("ni,ij,nj->n", chi, elastic_matrix(p), chi)
            norm2 = np.einsum("ni,ni->n", chi, chi)
            assert np.all(form >= (2.0 * p.nu - 1e-10) * norm2)


def test_02_energy_dissipation():
    with criterion(2, "discrete energy dissipation identity (L4 = 0)", 60.0):
        params = LdGParams(a=0.1, b=0.0, c=1.0, L1=1.0, L2=0.25, L3=0.25, L4=0.0)
        grid = pde2d.Grid2D.from_extent(64, 64, 1.0, 1.0)
        dt = 0.5 * pde2d.stability_dt(grid, params)
        field = pde2d.smooth_random_field(grid, 0.05, seed=102, kmax=2)
        trace = pde2d.run(field, params, 1500 * dt, dt, scheme="explicit-euler")
        assert not trace.stop.nonfinite
        assert np.all(np.diff(trace.energy) <= 1e-9)
        rel = trace.defect[1:] / (1.0 + np.abs(trace.energy[1:]))
        assert rel.max() <= 1e-6


def test_03_smallness_preservation():
    with criterion(3, "L-infinity smallness preserved to T=5", 120.0):
        params = LdGParams(a=0.0, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=1.0)
        consts = derived_constants(params)
        eta1 = consts.eta1
        assert eta1 == pytest.approx(4.0 / (1.0 + 4.0 * math.sqrt(2.0)) ** 2, rel=1e-12)
        a = 0.9 * 2.0 * params.c * eta1
        params = LdGParams(a=a, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=1.0)
        grid = pde2d.Grid2D.from_extent(64, 64, 1.0, 1.0)
        field = pde2d.smooth_random_field(grid, 0.9 * math.sqrt(2 * eta1), seed=103)
        trace = pde2d.run(field, params, 5.0, 5e-3, scheme="imex")
        assert not trace.stop.nonfinite and not trace.stop.blown_up
        sup = math.sqrt(2.0 * float(trace.max_h2.max()))
        assert sup <= math.sqrt(2.0 * eta1) * 1.001
        assert trace.smallness_held()


def test_04_blowup_reproduction():
    with criterion(4, "radial blow-up at two resolutions + comparison domination", 60.0):
        # geometry, L4, zeta and the data are pinned; a and c are free and
        # are set to a deep quench: for data of this sign at this geometry
        # the cubic terms strictly dissipate the tracked L2 moment, so only
        # a bulk instability can push it across the threshold
        params = LdGParams(a=-6000.0, b=0.0, c=1e-8, L1=0.5, L2=0.0, L3=0.0, L4=-1.0)
        assert params.zeta == 1.0
        times = {}
        for nr in (200, 400):
            profile = radial.RadialProfile.sine_bump(3.0, 4.0, nr, -50.0)
            cert = radial.blowup_certificate(profile, params)
            assert cert.criterion_value == pytest.approx(math.pi**2, rel=1e-12)
            assert cert.criterion_ok
            trace = radial.run_radial(profile, params, 0.01, 1e-5)
            assert trace.stop.blown_up and not trace.stop.nonfinite
            assert radial.dominates_comparison(trace, params, cert, rtol=0.01)
            times[nr] = trace.stop.blowup_time
        assert abs(times[200] - times[400]) <= 0.10 * times[400]


def test_05_comparison_ode_oracle():
    with criterion(5, "comparison ODE divergence time vs closed form", 5.0):
        for M0 in (0.2, 0.45, 0.8, 1.2, 2.0):
            for y0 in (25.0, 400.0):
                t_star = 1.0 / (M0 * math.sqrt(y0))
                _, tdiv = radial.comparison_lower_bound(
                    M0, 0.0, 0.0, y0, np.array([3.0 * t_star])
                )
                assert tdiv is not None
                assert abs(tdiv - t_star) <= 0.01 * t_star


def test_06_hedgehog_consistency():
    with criterion(6, "2D stencil RHS vs radial RHS, Richardson ratio", 10.0):
        params = LdGParams(a=0.3, b=0.0, c=1.0, L1=1.0, L2=0.1, L3=0.2, L4=0.7)
        R0, R1 = 3.0, 4.0
        rng = np.random.default_rng(106)
        rr = rng.uniform(3.1, 3.9, size=20)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=20)
        pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], axis=1)
        w = np.pi / (R1 - R0)
        profiles = [
            (lambda r: np.full_like(np.asarray(r, dtype=float), 0.7),
             lambda r: np.zeros_like(np.asarray(r, dtype=float)),
             lambda r: np.zeros_like(np.asarray(r, dtype=float))),
            (lambda r: np.asarray(r, dtype=float),
             lambda r: np.ones_like(np.asarray(r, dtype=float)),
             lambda r: np.zeros_like(np.asarray(r, dtype=float))),
            (lambda r: np.sin(w * (np.asarray(r) - R0)),
             lambda r: w * np.cos(w * (np.asarray(r) - R0)),
             lambda r: -w * w * np.sin(w * (np.asarray(r) - R0))),
        ]
        h = 4e-3
        for triple in profiles:
            m1 = radial.hedgehog_consistency_check(triple, params, pts, h,
                                                   r_bounds=(R0, R1))
            m2 = radial.hedgehog_consistency_check(triple, params, pts, h / 2,
                                                   r_bounds=(R0, R1))
            assert 3.5 <= m1 / m2 <= 4.5


def test_07_bulk_ode_oracles():
    with criterion(7, "bulk ODE vs Bernoulli closed form + stationary pair", 5.0):
        # 2D trace against the closed form (the exact value is
        # e^-2/(2 - e^-2) = 0.07257886...)
        p2 = LdGParams(a=1.0, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        q = QTensor2(math.sqrt(0.5), 0.0)
        out = q.matrix()
        for _ in range(100):
            out = splitting.bulk_ode_step(out, 0.01, p2, 2)
        y = float(np.sum(out * out))
        closed = splitting.trace_ode_closed_form_2d(1.0, 1.0, 1.0, 1.0)
        assert abs(y - closed) <= 1e-6
        assert closed == pytest.approx(math.exp(-2.0) / (2.0 - math.exp(-2.0)), rel=1e-14)

        # 3D stationary eigenvalue pair drifts less than 1e-8 per unit time
        p3 = LdGParams(a=-1.0, b=3.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        pair = splitting.stationary_pair(p3)
        assert pair.lambda1 == pytest.approx(-0.7287136, abs=1e-7)
        assert pair.lambda2 == pytest.approx(1.4574271, abs=1e-7)
        d1, d2 = splitting.eigen_ode_rhs(pair, p3)
        assert abs(d1) <= 1e-12 and abs(d2) <= 1e-12
        Q0 = np.diag([pair.lambda1, pair.lambda2, -pair.lambda1 - pair.lambda2])
        out = Q0.copy()
        for _ in range(10):
            out = splitting.bulk_ode_step(out, 0.1, p3, 3)
        assert np.abs(out - Q0).max() <= 1e-8


def test_08_physicality_preservation():
    with criterion(8, "eigenvalue interval, order, O(3)-equivariance to t=10", 30.0):
        p3 = LdGParams(a=-1.0, b=3.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        interval = physical_interval(p3, 3)
        lo, hi = interval.lo, interval.hi
        grid = np.linspace(lo, hi, 20)
        l1g, l2g = np.meshgrid(grid, grid, indexing="ij")
        third = -l1g - l2g
        keep = (third >= lo) & (third <= hi)
        l1s, l2s = l1g[keep], l2g[keep]
        o1, o2 = splitting.eigen_ode_integrate(l1s, l2s, p3, 10.0)
        o3 = -o1 - o2
        for arr in (o1, o2, o3):
            assert arr.min() >= lo - 1e-8 and arr.max() <= hi + 1e-8
        ordered = l1s <= l2s
        assert np.all(o1[ordered] <= o2[ordered] + 1e-12)

        rng = np.random.default_rng(108)
        for _ in range(20):
            R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            i = rng.integers(0, l1s.size)
            Q0 = np.diag([l1s[i], l2s[i], -l1s[i] - l2s[i]])
            left = splitting.bulk_ode_step(R @ Q0 @ R.T, 1.0, p3, 3)
            right = R @ splitting.bulk_ode_step(Q0, 1.0, p3, 3) @ R.T
            assert np.abs(left - right).max() <= 1e-10


def test_09_trotter_splitting():
    with criterion(9, "Trotter self-convergence and hull certificate", 120.0):
        p3 = LdGParams(a=-1.0, b=3.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        n_cells = 64
        h = 2.0 * np.pi / n_cells
        field0 = splitting.make_hull_spanning_field(n_cells, h, p3, seed=109)
        hull0 = splitting.hull_bounds(field0)
        T = 0.25
        sols = {}
        for n in (8, 16, 32, 64, 128):
            res = splitting.trotter_solve(field0, T, n, p3)
            sols[n] = res.field
            for hb in res.hulls:
                assert hb.within(hull0, 1e-8)
        errors = [splitting.field_l2_distance(sols[n], sols[2 * n]) for n in (8, 16, 32, 64)]
        assert all(errors[i + 1] < errors[i] for i in range(3))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(orders) >= 0.5


def test_10_continuous_dependence():
    with criterion(10, "perturbation ratio 10 +- 20% on [0, 1], finite slope", 60.0):
        params = LdGParams(a=0.5, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=1.0)
        consts = derived_constants(params)
        grid = pde2d.Grid2D.from_extent(32, 32, 1.0, 1.0)
        base = pde2d.smooth_random_field(grid, 0.9 * math.sqrt(2 * consts.eta2), seed=110)
        shape = pde2d.smooth_random_field(grid, 1.0, seed=111)

        def pert(eps):
            return pde2d.Field2D(grid, eps * shape.p, eps * shape.q)

        res = pde2d.continuous_dependence_experiment(base, [pert(1e-6), pert(1e-7)], params,
                                                     1.0, 2e-3)
        ratio = res.distances[0] / res.distances[1]
        assert np.all(np.abs(ratio / 10.0 - 1.0) <= 0.2)
        assert math.isfinite(res.slope[0]) and math.isfinite(res.slope[1])


def test_11_oseen_frank_roundtrip():
    with criterion(11, "Oseen-Frank forward/inverse roundtrip", 1.0):
        rng = np.random.default_rng(111)
        for _ in range(1000):
            K1, K3 = rng.uniform(-5.0, 5.0, size=2)
            s = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            lt1, L3, L4 = oseen_frank_inverse(K1, K3, s)
            p = LdGParams(a=0.0, b=0.0, c=1.0, L1=lt1 / 2.0, L2=0.0, L3=L3, L4=L4)
            of = oseen_frank_forward(p, s)
            scale = max(1.0, abs(K1), abs(K3))
            assert abs(of.K1 - K1) <= 1e-12 * scale
            assert abs(of.K3 - K3) <= 1e-12 * scale
        # L4 = 0 forces exactly equal constants
        p0 = LdGParams(a=0.0, b=0.0, c=1.0, L1=0.8, L2=-0.1, L3=1.2, L4=0.0)
        of = oseen_frank_forward(p0, 1.7)
        assert of.K1 == of.K3
