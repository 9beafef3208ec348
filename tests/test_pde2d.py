import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import constant_field

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
    """discrete_energy's expressions on shifted 2D views of C-order copies
    of the fields: np.sum runs in memory order, and the energy's bits do
    not depend on the fields' layout."""
    field = Field2D(field.grid, np.ascontiguousarray(field.p), np.ascontiguousarray(field.q))
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
    # np.trapezoid sums in memory order; a C-order copy fixes the order
    h2 = np.ascontiguousarray(2.0 * (p * p + q * q))
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
    # Fortran order, where numpy sums in memory order: discrete_energy's sums
    # depended on the layout and missed the oracle by one ulp
    @example(nx=21, ny=21, hx=1.875, hy=1.75, L4=-1.3, layout="fortran", seed=21)
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
        shared = pde2d._Shared(fld, params.L4, p * p + q * q)  # as run passes it
        assert discrete_energy(fld, params, shared=shared) == e
        assert field_distance(fld, other) == trapezoid_l2(grid, p - r, q - s)


class TestRhsPq:
    def test_zero_field(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        dp, dq = rhs_pq(Field2D.zeros(grid), coercive_params(L4=1.0))
        assert np.all(dp == 0.0) and np.all(dq == 0.0)

    def test_constant_field_reduces_to_bulk(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        p0, q0 = 0.3, -0.2
        fld = constant_field(grid, p0, q0)
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
        fld = constant_field(grid, p0, 0.0)
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
        assert trace.l2_q[-1] == field_distance(fld, Field2D.zeros(grid))

    def test_off_config_run_pinned(self):
        # a run no shipped CSV covers: explicit Euler with L4 != 0,
        # record_every = 3 (the last record off the stride), hx != hy and a
        # nonzero Dirichlet ring, which holds the peak max h^2
        grid = Grid2D(nx=19, ny=13, hx=0.05, hy=0.07)
        f0 = smooth_random_field(grid, 0.3, seed=5)
        x, y = grid.nodes()
        ring = np.ones(f0.p.shape, bool)
        ring[1:-1, 1:-1] = False
        f0.p[ring] = (0.1 * np.cos(3 * x)[:, None] * np.sin(2 * y + 1)[None, :])[ring]
        f0.q[ring] = (0.05 + 0.02 * x[:, None] - 0.03 * y[None, :])[ring]
        params = LdGParams(a=-0.4, b=0.0, c=1.5, L1=1.0, L2=0.2, L3=-0.1, L4=0.8)
        dt = stability_dt(grid, params) / 2
        trace = run(f0, params, 40 * dt, dt, scheme="explicit-euler", record_every=3)
        assert trace.stop == Stop(STOP_REACHED_T, 40 * dt, 40) and len(trace.t) == 15
        assert trace.peak_h2.hex() == "0x1.70a3d70a3d708p-5"
        digest = hashlib.sha256()
        for name in ("t", "energy", "max_h2", "l2_q", "l2_dqdt", "defect", "smallness"):
            digest.update(getattr(trace, name).tobytes())
        digest.update(trace.final_field.p.tobytes())
        digest.update(trace.final_field.q.tobytes())
        assert digest.hexdigest() == (
            "b416d729fcd3c3159a64e1cc3f40a21abea9c647f6bb29eb5ccc2bcd382d8b9b")

    def test_live_peak_of_a_128_run(self):
        # smallness-128's data: 128^2, IMEX, L4 = 1.  The run's temporaries
        # come from one pool that lives for the run, so the traced peak
        # stays at or under the 2,408,696 bytes that the run reached with
        # new arrays on every step, and more steps add no array to it
        eta1 = derived_constants(coercive_params(a=0.0, L4=1.0)).eta1
        params = coercive_params(a=0.9 * 2.0 * eta1, L4=1.0)
        f0 = smooth_random_field(Grid2D.from_extent(128, 128, 1.0, 1.0),
                                 0.9 * math.sqrt(2.0 * eta1), seed=0)
        run(f0, params, 5e-3, 5e-3)  # caches the sine basis and the symbol
        peaks = []
        for steps in (5, 20):
            tracemalloc.start()
            try:
                run(f0, params, steps * 5e-3, 5e-3, record_every=10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2_408_696
        # a record's row and Python's free lists add a few KB; one more
        # pool array would add 139 KB
        assert peaks[1] - peaks[0] < f0.p.nbytes // 8

    @pytest.mark.parametrize("record_every", [0, -2])
    def test_rejects_record_every_below_one(self, monkeypatch, record_every):
        # 0 divided by zero at step 1, -2 recorded every second step
        def no_work(*args, **kwargs):
            raise AssertionError("stepped before checking record_every")

        monkeypatch.setattr(pde2d, "rhs_pq", no_work)
        f0 = smooth_random_field(Grid2D.from_extent(8, 8, 1.0, 1.0), 0.2, seed=1)
        with pytest.raises(ValueError, match="record_every must be at least 1"):
            run(f0, coercive_params(), 1e-2, 1e-3, record_every=record_every)

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
    # the least grid; drawn stacks of 2 and 3 fields with L4 != 0, one per
    # scheme; 4 fields whose interiors outnumber one member's nodes twice
    @example(k=1, nx=3, ny=3, hx=0.05, hy=0.05, L4=0.0, scheme="explicit-euler", seed=0)
    @example(k=2, nx=14, ny=3, hx=0.596797159018289, hy=0.08352604884358492, L4=0.6,
             scheme="explicit-euler", seed=15649763)
    @example(k=3, nx=8, ny=10, hx=0.5153733737459723, hy=0.7837985457908703, L4=0.6,
             scheme="imex", seed=215)
    @example(k=4, nx=14, ny=13, hx=0.05, hy=0.9, L4=0.6, scheme="imex", seed=7)
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

    # the monitors read one field: the energy of a stack of two copies of
    # one field read 2.0292 where the field reads 1.0176
    def test_discrete_energy_rejects_a_stack(self):
        fld = smooth_random_field(Grid2D.from_extent(8, 8, 1.0, 1.0), 0.3, seed=1)
        with pytest.raises(ValueError, match="stack"):
            discrete_energy(Field2D.stack([fld, fld]), coercive_params(L4=1.0))

    def test_field_distance_rejects_a_stack(self):
        fld = smooth_random_field(Grid2D.from_extent(8, 8, 1.0, 1.0), 0.3, seed=1)
        stack = Field2D.stack([fld, fld])
        for pair in ((stack, stack), (fld, stack), (stack, fld)):
            with pytest.raises(ValueError, match="stack"):
                field_distance(*pair)


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

    @pytest.mark.parametrize("record_every", [0, -2])
    def test_rejects_record_every_below_one(self, monkeypatch, record_every):
        # 0 divided by zero at step 1, -2 recorded every second step
        def no_work(*args, **kwargs):
            raise AssertionError("stepped before checking record_every")

        for name in ("step", "discrete_energy"):
            monkeypatch.setattr(pde2d, name, no_work)
        with pytest.raises(ValueError, match="record_every must be at least 1"):
            continuous_dependence_experiment(self.base, [self._pert(1e-8)], self.params, 0.01,
                                             1e-3, record_every=record_every)

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
        # the base monitors are those of run
        trace = run(base, self.params, T, dt, record_every=3)
        for name in ("energy", "max_h2", "l2_q", "smallness"):
            assert np.array_equal(getattr(res, name), getattr(trace, name))


class TestShared:
    """One _Shared per record: the energy, the RHS and the L2 norm read it
    with the bits of their standalone calls."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(3, 40), ny=st.integers(3, 40),
           hx=st.floats(0.01, 2.0), hy=st.floats(0.01, 2.0),
           L4=st.sampled_from([0.0, 0.7, -1.3]),
           layout=st.sampled_from(["C", "fortran", "view"]),
           seed=st.integers(0, 2**32 - 1))
    # drawn rows: each layout and each L4, the least grid and the largest
    @example(nx=3, ny=3, hx=0.25, hy=0.25, L4=0.0, layout="C", seed=3)
    @example(nx=3, ny=3, hx=0.5248648021467968, hy=0.5248648021467968, L4=-1.3,
             layout="fortran", seed=198)
    @example(nx=13, ny=19, hx=1.0910154654147068, hy=0.6035484994136463, L4=-1.3, layout="C",
             seed=38908952)
    @example(nx=37, ny=34, hx=0.8107244146715934, hy=0.17788435582893453, L4=0.7,
             layout="fortran", seed=180)
    @example(nx=17, ny=35, hx=0.8997047795660204, hy=0.2, L4=0.7, layout="view", seed=32146172)
    @example(nx=38, ny=38, hx=1.1017809946073496, hy=1.1017809946073496, L4=-1.3, layout="view",
             seed=38)
    @example(nx=40, ny=40, hx=0.01, hy=2.0, L4=0.7, layout="C", seed=40)
    def test_shared_reads_equal_standalone_calls(self, nx, ny, hx, hy, L4, layout, seed):
        if hx == hy:
            hy = 1.5 * hx
        rng = np.random.default_rng(seed)
        grid = Grid2D(nx=nx, ny=ny, hx=hx, hy=hy)
        p, q = (laid_out(rng.standard_normal((nx + 2, ny + 2)), layout) for _ in range(2))
        fld = Field2D(grid, p, q)
        params = coercive_params(a=rng.normal(), c=0.5 + rng.random(), L2=0.2, L3=-0.1, L4=L4)
        # as run builds it: from the h^2 it took for max h^2
        shared = pde2d._Shared(fld, L4, p * p + q * q)
        energy = discrete_energy(fld, params, shared=shared)
        rhs = rhs_pq(fld, params, shared=shared)
        l2 = pde2d._l2_norm(grid, shared.t2)
        assert energy == discrete_energy(fld, params) == strided_energy(fld, params)
        for got, alone, ref in zip(rhs, rhs_pq(fld, params), strided_rhs(fld, params)):
            assert got.shape == (nx, ny) and got.tobytes() == alone.tobytes() == ref.tobytes()
        # the record's t2 is in C order, as every field run steps is
        pc, qc = np.ascontiguousarray(p), np.ascontiguousarray(q)
        assert l2 == pde2d._l2_norm(grid, 2.0 * (pc * pc + qc * qc)) == trapezoid_l2(grid, pc, qc)


class TestPool:
    """The scratch arrays: the last given back is reused first, every array
    a pool hands out starts on a 64-byte line, and the pool holds no more
    arrays than are out at once."""

    @pytest.mark.parametrize("one_at_a_time", [False, True])
    def test_reuse_alignment_and_count(self, one_at_a_time):
        # give(x, y) keeps the order of give(x) then give(y)
        def give(*arrays):
            if one_at_a_time:
                for x in arrays:
                    pool.give(x)
            else:
                pool.give(*arrays)

        pool = pde2d._Pool(20)
        a, b = pool.take((3, 4)), pool.take((17,))
        assert a.shape == (3, 4) and b.shape == (17,) and a.base is not b.base
        give(a, b)
        # the last given back first; the same shape is the same view
        assert pool.take((17,)) is b
        c = pool.take((4, 5))
        assert c.base is a.base and c.ctypes.data == a.ctypes.data
        give(b, c)
        d, e = pool.take((2,)), pool.take((20,))
        assert {id(d.base), id(e.base)} == {id(a.base), id(b.base)}
        for x in (a, b, c, d, e):
            assert x.ctypes.data % 64 == 0

    def test_a_bare_call_takes_aligned_arrays(self, monkeypatch):
        # rhs_pq called alone builds its own pool, on the same policy
        handed = []
        take = pde2d._Pool.take

        def recorded(self, shape):
            handed.append(take(self, shape))
            return handed[-1]

        monkeypatch.setattr(pde2d._Pool, "take", recorded)
        fld = smooth_random_field(Grid2D(nx=7, ny=5, hx=0.2, hy=0.3), 0.3, seed=4)
        rhs_pq(fld, coercive_params(L4=0.7))
        assert len(handed) > 2 and all(x.ctypes.data % 64 == 0 for x in handed)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_step_builds_one_pool(self, monkeypatch, scheme):
        built = []

        class Counted(pde2d._Pool):
            __slots__ = ()

            def __init__(self, size):
                built.append(size)
                super().__init__(size)

        monkeypatch.setattr(pde2d, "_Pool", Counted)
        fld = smooth_random_field(Grid2D(nx=7, ny=5, hx=0.2, hy=0.3), 0.3, seed=4)
        step(Field2D.stack([fld, fld]), 1e-3, coercive_params(L4=0.7), scheme)
        assert built == [2 * 9 * 7]


class TestL2Layout:
    """The L2 norm and field_distance sum over a C-order array, so no bit
    depends on the memory layout of the arrays they are given."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(3, 40), ny=st.integers(3, 40),
           hx=st.floats(0.01, 2.0), hy=st.floats(0.01, 2.0),
           layout=st.sampled_from(["fortran", "view"]),
           seed=st.integers(0, 2**32 - 1))
    # Fortran order, where numpy sums in memory order: both were one ulp
    # off the C-order result
    @example(nx=35, ny=27, hx=1.0, hy=1.0, layout="fortran", seed=27)
    def test_same_bits_in_every_layout(self, nx, ny, hx, hy, layout, seed):
        rng = np.random.default_rng(seed)
        grid = Grid2D(nx=nx, ny=ny, hx=hx, hy=hy)
        t2 = rng.random((nx + 2, ny + 2))
        assert pde2d._l2_norm(grid, laid_out(t2, layout)) == pde2d._l2_norm(grid, t2)
        p, q, r, s = (rng.standard_normal((nx + 2, ny + 2)) for _ in range(4))

        def distance(lay):
            return field_distance(Field2D(grid, lay(p), lay(q)), Field2D(grid, lay(r), lay(s)))

        assert distance(lambda a: laid_out(a, layout)) == distance(lambda a: a)


class TestEveryStep:
    """run tests finiteness and keeps the peak max h^2 on every step, not
    only on the recorded ones."""

    @staticmethod
    def _overshoot(L4):
        # explicit Euler through a quench whose bulk step overshoots the
        # well: max h^2 peaks at step 4, between the records of
        # record_every = 7 (steps 0, 7, 14, 20)
        grid = Grid2D.from_extent(12, 10, 1.0, 0.8)
        params = LdGParams(a=-60.0, b=0.0, c=100.0, L1=0.01, L2=0.0, L3=0.0, L4=L4)
        return smooth_random_field(grid, 0.3, seed=9), params

    def test_peak_between_records(self):
        f0, params = self._overshoot(0.00549)
        every = run(f0, params, 0.2, 0.01, scheme="explicit-euler")
        sparse = run(f0, params, 0.2, 0.01, scheme="explicit-euler", record_every=7)
        assert int(np.argmax(every.max_h2)) == 4 and np.allclose(sparse.t, [0.0, 0.07, 0.14, 0.2])
        assert sparse.peak_h2 == every.peak_h2 == every.max_h2.max()
        assert sparse.max_h2.max() < sparse.peak_h2
        # L4 puts the flag's cap between the recorded maxima and the peak
        assert sparse.max_h2.max() < sparse.small_cap < sparse.peak_h2
        assert np.all(sparse.smallness) and not sparse.smallness_held()
        assert not every.smallness_held()

    def test_overflowing_square_of_a_finite_value(self):
        # one explicit step multiplies the field by about 1e159: p stays
        # finite, p^2 overflows, and the run stops on the threshold, not as
        # non-finite
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        f0 = smooth_random_field(grid, 0.5, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(f0, coercive_params(a=-1e159), 100.0, 1.0, scheme="explicit-euler")
        assert trace.stop == Stop(STOP_THRESHOLD, 1.0, 1)
        final = trace.final_field
        assert np.all(np.isfinite(final.p)) and np.all(np.isfinite(final.q))
        assert math.isinf(trace.max_h2[-1]) and trace.peak_h2 == math.inf
        assert list(trace.t) == [0.0, 1.0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("record_every", [1, 2])
    def test_nan_from_the_rhs_stops_non_finite(self, monkeypatch, scheme, record_every):
        # the k-th rhs_pq call feeds step k, recorded or not; a NaN in it
        # stops the run at step k with the field of step k - 1
        grid = Grid2D.from_extent(12, 9, 1.0, 0.8)
        params = coercive_params(a=0.3, L4=0.5)
        f0 = smooth_random_field(grid, 0.2, seed=9)
        dt = stability_dt(grid, params) / 2
        calls = []
        real = pde2d.rhs_pq

        def poisoned(*args, **kwargs):
            dp, dq = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 4:
                dq[2, 3] = np.nan
            return dp, dq

        monkeypatch.setattr(pde2d, "rhs_pq", poisoned)
        with np.errstate(invalid="ignore"):
            trace = run(f0, params, 10 * dt, dt, scheme=scheme, record_every=record_every)
        monkeypatch.undo()
        assert trace.stop == Stop(STOP_NONFINITE, 4 * dt, 4)
        fields = [f0]
        for _ in range(3):
            fields.append(step(fields[-1], dt, params, scheme))
        assert trace.final_field.p.tobytes() == fields[-1].p.tobytes()
        assert trace.final_field.q.tobytes() == fields[-1].q.tobytes()
        assert trace.peak_h2 == max(f.max_h2() for f in fields)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_step_raises_on_a_nan(self, scheme):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        fld = smooth_random_field(grid, 0.3, seed=8)
        fld.p[3, 4] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(UnstableStepError):
                step(fld, 1e-3, coercive_params(L4=0.5), scheme)
