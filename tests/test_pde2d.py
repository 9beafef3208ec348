import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import pde2d
from qflow.energy import LdGParams, derived_constants
from qflow.pde2d import (
    BLOWUP_L2_THRESHOLD,
    SCHEMES,
    STOP_NONFINITE,
    STOP_REACHED_T,
    STOP_THRESHOLD,
    Field2D,
    Grid2D,
    Stop,
    UnstableStepError,
    continuous_dependence_experiment,
    discrete_energy,
    field_distance,
    rhs_pq,
    run,
    smooth_random_field,
    stability_dt,
    step,
)


def coercive_params(a=0.1, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0):
    return LdGParams(a=a, b=0.0, c=c, L1=L1, L2=L2, L3=L3, L4=L4)


def tensor_rhs_oracle(field, params):
    """Independent oracle: the full tensor-form gradient flow RHS assembled
    componentwise from central differences, explicit index sums."""
    hx, hy = field.grid.hx, field.grid.hy
    P, Q = field.p, field.q
    comp = {(0, 0): P, (0, 1): Q, (1, 0): Q, (1, 1): -P}

    def d(F, k):
        if k == 0:
            return (F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * hx)
        return (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * hy)

    def dd(F, k, l):
        if k == l == 0:
            return (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / hx**2
        if k == l == 1:
            return (F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]) / hy**2
        return (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) / (4 * hx * hy)

    first = {(i, j, k): d(comp[i, j], k) for i in range(2) for j in range(2) for k in range(2)}
    second = {
        (i, j, k, l): dd(comp[i, j], k, l)
        for i in range(2) for j in range(2) for k in range(2) for l in range(2)
    }
    interior = {k: v[1:-1, 1:-1] for k, v in comp.items()}
    tr2 = sum(interior[i, j] ** 2 for i in range(2) for j in range(2))
    grad2 = sum(first[i, j, k] ** 2 for i in range(2) for j in range(2) for k in range(2))
    L23 = params.L2 + params.L3
    out = {}
    for i in range(2):
        for j in range(2):
            val = 2 * params.L1 * (second[i, j, 0, 0] + second[i, j, 1, 1])
            val -= params.a * interior[i, j] + params.c * tr2 * interior[i, j]
            val += L23 * sum(second[i, k, k, j] + second[j, k, k, i] for k in range(2))
            if i == j:
                val -= L23 * sum(second[l, k, l, k] for l in range(2) for k in range(2))
            val += 2 * params.L4 * sum(
                first[i, j, l] * first[l, k, k] for k in range(2) for l in range(2)
            )
            val += 2 * params.L4 * sum(
                second[i, j, k, l] * interior[l, k] for k in range(2) for l in range(2)
            )
            val -= params.L4 * sum(
                first[k, l, i] * first[k, l, j] for k in range(2) for l in range(2)
            )
            if i == j:
                val += 0.5 * params.L4 * grad2
            out[i, j] = val
    return out


def strided_derivs(F, hx, hy):
    """Interior values and central derivatives from shifted 2D views: the
    formulas the slab stencils must reproduce bit for bit."""
    fi = F[1:-1, 1:-1]
    d1 = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2.0 * hx)
    d2 = (F[1:-1, 2:] - F[1:-1, :-2]) / (2.0 * hy)
    d11 = (F[2:, 1:-1] - 2.0 * fi + F[:-2, 1:-1]) / (hx * hx)
    d22 = (F[1:-1, 2:] - 2.0 * fi + F[1:-1, :-2]) / (hy * hy)
    d12 = (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) / (4.0 * hx * hy)
    return fi, d1, d2, d11, d12, d22


def strided_rhs(field, params):
    """rhs_pq's expressions on shifted 2D views."""
    hx, hy = field.grid.hx, field.grid.hy
    zeta, L4, a, c = params.zeta, params.L4, params.a, params.c
    p, dp1, dp2, dp11, dp12, dp22 = strided_derivs(field.p, hx, hy)
    q, dq1, dq2, dq11, dq12, dq22 = strided_derivs(field.q, hx, hy)
    h2 = p * p + q * q
    dp = zeta * (dp11 + dp22) - a * p - 2.0 * c * h2 * p
    dq = zeta * (dq11 + dq22) - a * q - 2.0 * c * h2 * q
    if L4 != 0.0:
        dp += L4 * (
            dp1 * dp1 - dq1 * dq1 - dp2 * dp2 + dq2 * dq2
            + 2.0 * dp1 * dq2 + 2.0 * dp2 * dq1
        )
        dp += 2.0 * L4 * (p * dp11 + 2.0 * q * dp12 - p * dp22)
        dq += 2.0 * L4 * (dq1 * dq2 - dp1 * dp2 + dp1 * dq1 - dp2 * dq2)
        dq += 2.0 * L4 * (p * dq11 + 2.0 * q * dq12 - p * dq22)
    return dp, dq


def strided_energy(field, params):
    """discrete_energy's expressions on shifted 2D views."""
    hx, hy, w = field.grid.hx, field.grid.hy, field.grid.hx * field.grid.hy
    e = 0.0
    for F in (field.p, field.q):
        dx = (F[1:, :] - F[:-1, :]) / hx
        dy = (F[:, 1:] - F[:, :-1]) / hy
        e += params.zeta * w * (float(np.sum(dx * dx)) + float(np.sum(dy * dy)))
    h2 = field.p * field.p + field.q * field.q
    e += w * float(np.sum(params.a * h2 + params.c * h2 * h2))
    if params.L4 != 0.0:
        p, dp1, dp2 = strided_derivs(field.p, hx, hy)[:3]
        q, dq1, dq2 = strided_derivs(field.q, hx, hy)[:3]
        cubic = 2.0 * (
            p * (dp1 * dp1 + dq1 * dq1 - dp2 * dp2 - dq2 * dq2)
            + 2.0 * q * (dp1 * dp2 + dq1 * dq2)
        )
        e += params.L4 * w * float(np.sum(cubic))
    return e


def trapezoid_l2(grid, p, q):
    h2 = 2.0 * (p * p + q * q)
    return math.sqrt(max(float(
        np.trapezoid(np.trapezoid(h2, dx=grid.hy, axis=1), dx=grid.hx, axis=0)), 0.0))


def laid_out(arr, layout):
    """arr in C order, in Fortran order, or as a view into a larger array;
    the last two make ravel() copy."""
    if layout == "fortran":
        return np.asfortranarray(arr)
    if layout == "view":
        big = np.zeros((2 * arr.shape[0], arr.shape[1] + 3))
        big[::2, 1:-2] = arr
        return big[::2, 1:-2]
    return arr


class TestSlabStencils:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(3, 40), ny=st.integers(3, 40),
           hx=st.floats(0.01, 2.0), hy=st.floats(0.01, 2.0),
           L4=st.sampled_from([0.0, 0.7, -1.3]),
           layout=st.sampled_from(["C", "fortran", "view"]),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_strided_formulas(self, nx, ny, hx, hy, L4, layout, seed):
        if hx == hy:
            hy = 1.5 * hx
        rng = np.random.default_rng(seed)
        grid = Grid2D(nx=nx, ny=ny, hx=hx, hy=hy)
        p, q, r, s = (laid_out(rng.standard_normal((nx + 2, ny + 2)), layout)
                      for _ in range(4))
        fld, other = Field2D(grid, p, q), Field2D(grid, r, s)
        params = coercive_params(a=rng.normal(), c=0.5 + rng.random(), L2=0.2, L3=-0.1, L4=L4)
        for got, ref in zip(rhs_pq(fld, params), strided_rhs(fld, params)):
            assert got.shape == (nx, ny) and np.array_equal(got, ref)
        e = discrete_energy(fld, params)
        assert e == strided_energy(fld, params)
        assert discrete_energy(fld, params, h2=p * p + q * q) == e
        assert fld.l2_norm() == trapezoid_l2(grid, p, q)
        assert field_distance(fld, other) == trapezoid_l2(grid, p - r, q - s)


class TestRhsPq:
    def test_zero_field(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        dp, dq = rhs_pq(Field2D.zeros(grid), coercive_params(L4=1.0))
        assert np.all(dp == 0.0) and np.all(dq == 0.0)

    def test_constant_field_reduces_to_bulk(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        p0, q0 = 0.3, -0.2
        fld = Field2D.constant(grid, p0, q0)
        params = coercive_params(a=0.7, c=1.1, L4=2.0)
        dp, dq = rhs_pq(fld, params)
        expected_p = -params.a * p0 - 2 * params.c * (p0**2 + q0**2) * p0
        expected_q = -params.a * q0 - 2 * params.c * (p0**2 + q0**2) * q0
        assert np.allclose(dp, expected_p, atol=1e-13)
        assert np.allclose(dq, expected_q, atol=1e-13)

    def test_matches_tensor_index_oracle(self):
        grid = Grid2D.from_extent(12, 10, 1.0, 1.3)
        rng = np.random.default_rng(21)
        for trial in range(5):
            params = LdGParams(
                a=rng.normal(), b=0.0, c=abs(rng.normal()) + 0.1,
                L1=1.0 + abs(rng.normal()), L2=rng.normal(), L3=rng.normal(),
                L4=rng.normal(),
            )
            fld = smooth_random_field(grid, 0.8, seed=30 + trial, kmax=3)
            dp, dq = rhs_pq(fld, params)
            oracle = tensor_rhs_oracle(fld, params)
            scale = max(np.abs(dp).max(), np.abs(dq).max(), 1.0)
            assert np.abs(oracle[0, 0] - dp).max() < 1e-10 * scale
            assert np.abs(oracle[0, 1] - dq).max() < 1e-10 * scale
            # structural symmetry of the tensor RHS
            assert np.abs(oracle[0, 1] - oracle[1, 0]).max() < 1e-12 * scale
            assert np.abs(oracle[1, 1] + oracle[0, 0]).max() < 1e-12 * scale


class TestStep:
    def test_zero_fixed_point(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        fld = Field2D.zeros(grid)
        for scheme in ("explicit-euler", "imex"):
            out = step(fld, 1e-3, coercive_params(L4=1.0), scheme)
            assert np.all(out.p == 0.0) and np.all(out.q == 0.0)

    def test_constant_linear_decay_factor(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        p0 = 0.4
        fld = Field2D.constant(grid, p0, 0.0)
        params = LdGParams(a=1.0, b=0.0, c=0.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        dt = 1e-3
        out = step(fld, dt, params, "explicit-euler")
        assert np.allclose(out.p[1:-1, 1:-1], p0 * (1 - params.a * dt), atol=1e-15)

    def test_boundary_untouched(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        fld = smooth_random_field(grid, 0.1, seed=1)
        fld.p[0, :] = 0.05  # nontrivial Dirichlet data
        for scheme in ("explicit-euler", "imex"):
            out = step(fld, 1e-4, coercive_params(L4=0.5), scheme)
            assert np.array_equal(out.p[0, :], fld.p[0, :])
            assert np.array_equal(out.p[-1, :], fld.p[-1, :])
            assert np.array_equal(out.q[:, 0], fld.q[:, 0])
            assert np.array_equal(out.q[:, -1], fld.q[:, -1])

    def test_euler_self_convergence_first_order(self):
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = coercive_params(a=0.2, L4=0.3)
        f0 = smooth_random_field(grid, 0.1, seed=2)
        dt0 = stability_dt(grid, params) / 2
        base_steps = 64  # identical final time at every dt

        def solve(refine):
            fld = f0.copy()
            for _ in range(base_steps * refine):
                fld = step(fld, dt0 / refine, params, "explicit-euler")
            return fld

        d1 = field_distance(solve(1), solve(2))
        d2 = field_distance(solve(2), solve(4))
        assert d1 / d2 == pytest.approx(2.0, rel=0.25)

    def test_imex_converges_to_euler(self):
        # both schemes are first order; their gap shrinks linearly in dt
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = coercive_params(a=0.5, L4=0.4)
        f0 = smooth_random_field(grid, 0.1, seed=3)
        dt0 = stability_dt(grid, params) / 2
        base_steps = 16

        def gap(refine):
            fe, fi = f0.copy(), f0.copy()
            for _ in range(base_steps * refine):
                fe = step(fe, dt0 / refine, params, "explicit-euler")
                fi = step(fi, dt0 / refine, params, "imex")
            return field_distance(fe, fi)

        g1, g4 = gap(1), gap(4)
        assert g4 < g1
        assert g1 / g4 == pytest.approx(4.0, rel=0.5)

    def test_imex_matches_dense_implicit_solve(self):
        # non-square grid, hx != hy, non-zero Dirichlet ring: the old form
        # (I - dt zeta L_h) u_new = u + dt (rhs(u) - zeta L_h u), with the
        # ring inside L_h, assembled and solved densely
        grid = Grid2D(nx=7, ny=5, hx=0.13, hy=0.21)
        rng = np.random.default_rng(11)
        fld = Field2D(grid, 0.3 * rng.normal(size=(9, 7)), 0.3 * rng.normal(size=(9, 7)))
        params = coercive_params(a=0.2, L2=0.1, L3=0.3, L4=0.4)
        dt = 1e-2
        out = step(fld, dt, params, "imex")
        nx, ny, hx, hy, zeta = grid.nx, grid.ny, grid.hx, grid.hy, params.zeta
        mx, my = dt * zeta / hx**2, dt * zeta / hy**2
        A = np.zeros((nx, ny, nx, ny))
        for i in range(nx):
            for j in range(ny):
                A[i, j, i, j] = 1.0 + 2.0 * mx + 2.0 * my
                for ii, jj, m in ((i + 1, j, mx), (i - 1, j, mx), (i, j + 1, my), (i, j - 1, my)):
                    if 0 <= ii < nx and 0 <= jj < ny:
                        A[i, j, ii, jj] = -m
        A = A.reshape(nx * ny, nx * ny)
        for F, rhs, new in zip((fld.p, fld.q), rhs_pq(fld, params), (out.p, out.q)):
            lap = (
                (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / hx**2
                + (F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]) / hy**2
            )
            b = F[1:-1, 1:-1] + dt * (rhs - zeta * lap)
            b[0, :] += mx * F[0, 1:-1]
            b[-1, :] += mx * F[-1, 1:-1]
            b[:, 0] += my * F[1:-1, 0]
            b[:, -1] += my * F[1:-1, -1]
            u = np.linalg.solve(A, b.ravel()).reshape(nx, ny)
            assert np.abs(new[1:-1, 1:-1] - u).max() <= 1e-12 * np.abs(u).max()

    def test_rejects_bad_scheme(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            step(Field2D.zeros(grid), 1e-3, coercive_params(), "leapfrog")


class TestDiscreteEnergy:
    def test_equals_the_derivs_based_formula(self):
        # the cubic term reads only first derivatives; the energy must be the
        # same bits as when it took them, with the same expressions, from
        # the full set of derivatives that rhs_pq uses
        grid = Grid2D(nx=11, ny=8, hx=0.13, hy=0.07)
        rng = np.random.default_rng(21)
        fld = Field2D(grid, rng.standard_normal((13, 10)), rng.standard_normal((13, 10)))
        params = coercive_params(a=-0.4, L2=0.1, L3=0.3, L4=0.7)
        no_cubic = coercive_params(a=-0.4, L2=0.1, L3=0.3)
        assert strided_energy(fld, no_cubic) != strided_energy(fld, params)
        assert discrete_energy(fld, params) == strided_energy(fld, params)


class TestRun:
    def test_zero_data_zero_trace(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        trace = run(Field2D.zeros(grid), coercive_params(L4=1.0), 0.05, 1e-2)
        assert np.all(trace.energy == 0.0)
        assert np.all(trace.l2_q == 0.0)
        assert not trace.stop.blown_up
        assert trace.smallness_held()

    def test_energy_dissipation_l4_zero(self):
        grid = Grid2D.from_extent(32, 32, 1.0, 1.0)
        params = coercive_params(a=0.1, L2=0.2, L3=0.2)
        dt = stability_dt(grid, params) / 2
        f0 = smooth_random_field(grid, 0.05, seed=4)
        trace = run(f0, params, 400 * dt, dt, scheme="explicit-euler")
        dE = np.diff(trace.energy)
        assert np.all(dE <= 1e-9)
        rel = trace.defect[1:] / (1.0 + np.abs(trace.energy[1:]))
        assert rel.max() <= 1e-6

    def test_times_strictly_increasing(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        trace = run(smooth_random_field(grid, 0.02, seed=5), coercive_params(), 0.05, 1e-2)
        assert np.all(np.diff(trace.t) > 0)

    def test_smallness_preserved_short(self):
        params = coercive_params(a=0.16, L4=1.0)
        consts = derived_constants(params)
        grid = Grid2D.from_extent(24, 24, 1.0, 1.0)
        f0 = smooth_random_field(grid, 0.9 * math.sqrt(2 * consts.eta1), seed=6)
        trace = run(f0, params, 0.5, 2e-3, scheme="imex")
        assert trace.smallness_held()
        assert math.sqrt(2 * trace.max_h2.max()) <= math.sqrt(2 * consts.eta1) * 1.001

    def test_q_coupling_structure_with_q_zero(self):
        # with q = 0 the q-equation collapses to dq/dt = -2 L4 d1p d2p;
        # in particular an x1-only p gives dq/dt = 0 identically
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = coercive_params(a=0.1, L4=1.3)
        fld = smooth_random_field(grid, 0.4, seed=22)
        fld.q[:, :] = 0.0
        hx, hy = grid.hx, grid.hy
        p1 = (fld.p[2:, 1:-1] - fld.p[:-2, 1:-1]) / (2 * hx)
        p2 = (fld.p[1:-1, 2:] - fld.p[1:-1, :-2]) / (2 * hy)
        _, dq = rhs_pq(fld, params)
        assert np.abs(dq + 2 * params.L4 * p1 * p2).max() < 1e-13
        x, _ = grid.nodes()
        p = np.tile(0.2 * np.sin(np.pi * x)[:, None], (1, grid.ny + 2))
        fld1d = Field2D(grid, p, np.zeros_like(p))
        _, dq1d = rhs_pq(fld1d, params)
        assert np.abs(dq1d).max() < 1e-12
        out = step(fld1d, 1e-4, params, "explicit-euler")
        assert np.abs(out.q).max() < 1e-12

    def test_blowup_flag_on_runaway(self):
        # deep quench: linear growth rate |a| far above the spectral damping
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = LdGParams(a=-300.0, b=0.0, c=1e-12, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        f0 = smooth_random_field(grid, 0.5, seed=7)
        trace = run(f0, params, 1.0, 1e-3, scheme="imex")
        assert trace.stop.blown_up
        assert trace.stop.blowup_time is not None and trace.stop.blowup_time < 1.0

    def test_blowup_time_does_not_wait_for_a_record(self):
        # the same runaway: a step between records that crosses the
        # threshold is recorded, and the run stops there
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = LdGParams(a=-300.0, b=0.0, c=1e-12, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        f0 = smooth_random_field(grid, 0.5, seed=7)
        ref = run(f0, params, 1.0, 1e-3, scheme="imex")
        assert ref.stop.blown_up and not ref.stop.nonfinite and ref.stop.blowup_time == ref.t[-1]
        for record_every in (10, 50):
            trace = run(f0, params, 1.0, 1e-3, scheme="imex", record_every=record_every)
            assert trace.stop.blown_up and not trace.stop.nonfinite
            assert trace.stop.blowup_time == ref.stop.blowup_time == trace.t[-1]
            assert trace.l2_q[-1] == ref.l2_q[-1] > BLOWUP_L2_THRESHOLD
            assert trace.energy[-1] == ref.energy[-1]
            assert np.array_equal(trace.final_field.p, ref.final_field.p)
            assert np.all(trace.l2_q[:-1] <= BLOWUP_L2_THRESHOLD)

    def test_stop_reached_t(self):
        # the run ends at round(T/dt) dt = 0.05, not at T
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        trace = run(smooth_random_field(grid, 0.02, seed=5), coercive_params(), 0.053, 1e-2)
        assert trace.stop == Stop(STOP_REACHED_T, trace.t[-1], 5)
        assert trace.stop.t == 5 * 1e-2
        assert not trace.stop.blown_up and not trace.stop.nonfinite
        assert trace.stop.blowup_time is None

    def test_stop_threshold(self):
        # the runaway of test_blowup_flag_on_runaway
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = LdGParams(a=-300.0, b=0.0, c=1e-12, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        trace = run(smooth_random_field(grid, 0.5, seed=7), params, 1.0, 1e-3, scheme="imex")
        stop = trace.stop
        assert stop.reason == STOP_THRESHOLD and stop.blown_up and not stop.nonfinite
        assert stop.t == trace.t[-1] == stop.steps * 1e-3 == stop.blowup_time
        assert 0 < stop.steps < 1000

    def test_stop_nonfinite_is_not_a_blowup(self):
        # -a p overflows in the first explicit step: the run aborts on
        # non-finite values, which says nothing about the threshold
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(smooth_random_field(grid, 0.5, seed=7), coercive_params(a=-1e308),
                        100.0, 10.0, scheme="explicit-euler")
        assert trace.stop == Stop(STOP_NONFINITE, 10.0, 1)
        assert trace.stop.nonfinite and not trace.stop.blown_up
        assert trace.stop.blowup_time is None
        assert list(trace.t) == [0.0]

    def test_blowup_flag_on_unstable_dt(self):
        # far above the stability bound the L2 threshold trips within steps
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        params = coercive_params()
        dt = 200 * stability_dt(grid, params)
        trace = run(smooth_random_field(grid, 0.3, seed=8), params, 50 * dt, dt,
                    scheme="explicit-euler")
        assert trace.stop.blown_up

    @pytest.mark.parametrize("scheme", ["explicit-euler", "imex"])
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_final_field_equals_step_loop(self, scheme, record_every):
        # run reuses the RHS of each recorded field for the next step
        grid = Grid2D.from_extent(12, 9, 1.0, 0.8)
        params = coercive_params(a=0.3, L4=0.5)
        f0 = smooth_random_field(grid, 0.2, seed=9)
        dt = stability_dt(grid, params) / 2
        trace = run(f0, params, 7 * dt, dt, scheme=scheme, record_every=record_every)
        fld = f0
        for _ in range(7):
            fld = step(fld, dt, params, scheme)
        assert np.array_equal(trace.final_field.p, fld.p)
        assert np.array_equal(trace.final_field.q, fld.q)
        # the last record's monitors, from one shared h^2, are the public ones
        assert trace.energy[-1] == discrete_energy(fld, params)
        assert trace.max_h2[-1] == fld.max_h2()
        assert trace.l2_q[-1] == fld.l2_norm()

    def test_step_raises_on_overflow(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        fld = smooth_random_field(grid, 0.3, seed=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(UnstableStepError):
                step(fld, 1e308, coercive_params(), "explicit-euler")


class TestLockStep:
    """A stack of fields steps as one array; each member keeps its bits."""

    @staticmethod
    def _fields(rng, grid, k):
        # each field with its own nonzero Dirichlet ring
        shape = (grid.nx + 2, grid.ny + 2)
        return [Field2D(grid, 0.3 * rng.standard_normal(shape), 0.3 * rng.standard_normal(shape))
                for _ in range(k)]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 4), nx=st.integers(3, 14), ny=st.integers(3, 14),
           hx=st.floats(0.05, 1.0), hy=st.floats(0.05, 1.0),
           L4=st.sampled_from([0.0, 0.6]), scheme=st.sampled_from(SCHEMES),
           seed=st.integers(0, 2**32 - 1))
    def test_members_keep_the_bits_of_their_own_steps(self, k, nx, ny, hx, hy, L4, scheme, seed):
        if nx == ny:
            ny += 1
        if hx == hy:
            hy = 1.5 * hx
        rng = np.random.default_rng(seed)
        grid = Grid2D(nx=nx, ny=ny, hx=hx, hy=hy)
        fields = self._fields(rng, grid, k)
        params = coercive_params(a=rng.normal(), L2=0.2, L3=-0.1, L4=L4)
        dt = stability_dt(grid, params) / 2
        stack = Field2D.stack(fields)
        assert stack.p.shape == (k * (nx + 2), ny + 2) and stack.p.flags.c_contiguous
        rhs = rhs_pq(stack, params)
        for i, f in enumerate(fields):
            for got, ref in zip(rhs, rhs_pq(f, params)):
                assert np.array_equal(got.reshape(k, nx, ny)[i], ref)
        for _ in range(3):
            stack = step(stack, dt, params, scheme)
            fields = [step(f, dt, params, scheme) for f in fields]
            members = stack.members()
            assert len(members) == k
            for got, ref in zip(members, fields):
                assert got.p.tobytes() == ref.p.tobytes()
                assert got.q.tobytes() == ref.q.tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("k, bad", [(1, 0), (3, 0), (3, 2), (4, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_a_non_finite_member_raises(self, scheme, k, bad, value):
        grid = Grid2D(nx=6, ny=5, hx=0.2, hy=0.15)
        fields = self._fields(np.random.default_rng(3), grid, k)
        fields[bad].q[3, 2] = value  # 1e300 overflows in the cubic term
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(UnstableStepError):
                step(Field2D.stack(fields), 1e-3, coercive_params(L4=0.4), scheme)

    def test_stack_shapes_are_checked(self):
        grid = Grid2D(nx=4, ny=3, hx=0.2, hy=0.3)
        with pytest.raises(ValueError):
            Field2D(grid, np.zeros((9, 5)), np.zeros((9, 5)))
        with pytest.raises(ValueError):
            Field2D(grid, np.zeros((12, 5)), np.zeros((6, 5)))
        with pytest.raises(ValueError):
            Field2D(grid, np.zeros((0, 5)), np.zeros((0, 5)))
        with pytest.raises(ValueError):
            Field2D.stack([Field2D.zeros(grid), Field2D.zeros(Grid2D(nx=4, ny=3, hx=0.2, hy=0.4))])
        stack = Field2D(grid, np.zeros((18, 5)), np.zeros((18, 5)))
        assert len(stack.members()) == 3
        with pytest.raises(ValueError, match="stack"):
            run(stack, coercive_params(), 1e-2, 1e-3)


class TestContinuousDependence:
    def setup_method(self):
        self.params = coercive_params(a=0.5, L4=1.0)
        self.consts = derived_constants(self.params)
        self.grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        amp = 0.9 * math.sqrt(2 * self.consts.eta2)
        self.base = smooth_random_field(self.grid, amp, seed=9)
        self.shape = smooth_random_field(self.grid, 1.0, seed=10)

    def _pert(self, eps):
        return Field2D(self.grid, eps * self.shape.p, eps * self.shape.q)

    def test_zero_perturbation(self):
        res = continuous_dependence_experiment(
            self.base, [Field2D.zeros(self.grid)], self.params, 0.05, 1e-3
        )
        assert np.all(res.distances == 0.0)
        assert math.isnan(res.slope[0])

    def test_slope_bounded_by_linear_rate(self):
        res = continuous_dependence_experiment(
            self.base, [self._pert(1e-8)], self.params, 0.2, 2e-3
        )
        assert math.isfinite(res.slope[0])
        assert res.slope[0] <= abs(self.params.a) + 1.0

    def test_first_order_perturbation_scaling(self):
        # any iterable of perturbations, a generator too
        res = continuous_dependence_experiment(
            self.base, (self._pert(eps) for eps in (1e-6, 1e-7)), self.params, 0.2, 2e-3
        )
        ratio = res.distances[0] / res.distances[1]
        assert np.all(np.abs(ratio / 10.0 - 1.0) <= 0.2)

    def test_rejects_oversized_data(self):
        big = smooth_random_field(self.grid, 10.0, seed=11)
        with pytest.raises(ValueError):
            continuous_dependence_experiment(big, [self._pert(1e-8)], self.params, 0.1, 1e-3)
        # a perturbed state above eta2, and one that is not a number
        nan = self._pert(1e-8)
        nan.p[1:-1, 1:-1] = np.nan
        for pert in (self._pert(0.1), nan):
            with pytest.raises(ValueError, match="eta2"):
                continuous_dependence_experiment(
                    self.base, [self._pert(1e-8), pert], self.params, 0.1, 1e-3)

    # each side without its corners, which the other sides share
    @pytest.mark.parametrize("side", [(0, slice(1, -1)), (-1, slice(1, -1)),
                                      (slice(1, -1), 0), (slice(1, -1), -1)])
    def test_rejects_a_perturbation_on_the_ring(self, side):
        for component in ("p", "q"):
            pert = self._pert(1e-8)
            getattr(pert, component)[side] = 1e-12
            with pytest.raises(ValueError, match="ring"):
                continuous_dependence_experiment(
                    self.base, [self._pert(1e-7), pert], self.params, 0.1, 1e-3)

    @pytest.mark.parametrize("n, fields_per_step", [(16, 3), (32, 3), (48, 1)])
    def test_several_perturbations_in_lock_step(self, monkeypatch, n, fields_per_step):
        # stacks of at most STACK_NODES nodes: all 3 fields up to 32^2, one
        # from 48^2 on; each result is that of its own run
        grid = Grid2D.from_extent(n, n, 1.0, 1.2)
        base = smooth_random_field(grid, 0.9 * math.sqrt(2 * self.consts.eta2), seed=9)
        shape = smooth_random_field(grid, 1.0, seed=10)
        perts = [Field2D(grid, eps * shape.p, eps * shape.q) for eps in (1e-6, 1e-7)]
        stacked = []
        real_step = pde2d.step

        def counting(f, *args):
            stacked.append(len(f.p) // (n + 2))
            return real_step(f, *args)

        monkeypatch.setattr(pde2d, "step", counting)
        T, dt = 8e-3, 1e-3
        res = continuous_dependence_experiment(base, perts, self.params, T, dt, record_every=3)
        assert stacked == [fields_per_step] * (8 * 3 // fields_per_step)
        monkeypatch.undo()
        assert res.distances.shape == (2, 4) and np.array_equal(res.times, [0.0, 3e-3, 6e-3, 8e-3])
        for i, pert in enumerate(perts):
            alone = continuous_dependence_experiment(base, [pert], self.params, T, dt,
                                                     record_every=3)
            assert np.array_equal(res.distances[i], alone.distances[0])
            assert res.slope[i] == alone.slope[0]
            assert res.initial_distance[i] == alone.initial_distance[0]
        # the base monitors are those of run
        trace = run(base, self.params, T, dt, record_every=3)
        for name in ("energy", "max_h2", "l2_q", "smallness"):
            assert np.array_equal(getattr(res, name), getattr(trace, name))
