import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trace_ode_closed_form_2d
from scipy.ndimage import convolve1d

from qflow.energy import LdGParams
from qflow import splitting
from qflow.pde2d import UnstableStepError
from qflow.qtensor import QTensor2, eigvals_traceless_sym3, physical_interval
from qflow.splitting import (
    EigenPair,
    PeriodicField,
    bulk_ode_rhs,
    bulk_ode_step,
    eigen_ode_integrate,
    eigen_ode_rhs,
    field_l2_distance,
    heat_kernel_weights,
    heat_step,
    hull_bounds,
    make_hull_spanning_field,
    make_smooth_physical_field,
    stationary_pair,
    trotter_solve,
)

P3 = LdGParams(a=-1.0, b=3.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
P2 = LdGParams(a=1.0, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
KERNEL_SIGMAS = splitting.KERNEL_TRUNCATION_SIGMAS


def random_field(n=16, d=3, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n, d, d)) * scale
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    tr = np.einsum("xyii->xy", m) / d
    for i in range(d):
        m[..., i, i] -= tr
    return PeriodicField(m, h=1.0 / n)


class TestHeatKernel:
    def test_weights_nonnegative_sum_to_one(self):
        w = heat_kernel_weights(1e-4, 1.0, 1.0 / 64, 64)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-13

    def test_rejects_oversized_support(self):
        with pytest.raises(ValueError, match="support"):
            heat_kernel_weights(10.0, 1.0, 1.0 / 16, 16)

    def test_constant_field_unchanged(self):
        fld = PeriodicField(np.tile(QTensor2(0.3, -0.1).matrix(), (32, 32, 1, 1)), 1.0 / 32)
        out = heat_step(fld, 1e-3, 1.0)
        assert np.abs(out.data - fld.data).max() < 1e-13

    def test_impulse_convex_combination(self):
        n = 32
        data = np.zeros((n, n, 2, 2))
        A = QTensor2(0.5, 0.2).matrix()
        data[5, 7] = A
        fld = PeriodicField(data, 1.0 / n)
        out = heat_step(fld, 2e-4, 1.0)
        # every output tensor is w*A with w in [0, 1]
        ratios = []
        for idx in np.ndindex(n, n):
            blk = out.data[idx]
            if np.abs(blk).max() > 0:
                w = blk[0, 0] / A[0, 0]
                assert np.abs(blk - w * A).max() < 1e-15
                ratios.append(w)
        assert all(-1e-15 <= w <= 1.0 + 1e-15 for w in ratios)
        assert sum(ratios) == pytest.approx(1.0, abs=1e-12)
        hb = hull_bounds(out)
        hb0 = hull_bounds(fld)
        assert hb.within(hb0, 1e-13)

    def test_fourier_symbol(self):
        # a resolved sinusoidal mode decays by exp(-2 L1 |k|^2 dt)
        n, L1, dt = 128, 1.0, 2e-4
        h = 1.0 / n
        x = np.arange(n) * h
        for m in (1, 2, 3):
            k = 2 * np.pi * m
            data = np.zeros((n, n, 2, 2))
            wave = np.sin(k * x)[:, None] * np.ones(n)[None, :]
            data[..., 0, 0] = wave
            data[..., 1, 1] = -wave
            out = heat_step(PeriodicField(data, h), dt, L1)
            measured = out.data[..., 0, 0].max() / wave.max()
            assert measured == pytest.approx(math.exp(-2 * L1 * k * k * dt), abs=1e-3)


class TestHeatCirculant:
    """The heat step as two matrix products by a cached circulant."""

    @pytest.mark.parametrize("dt, n", [(1e-4, 8), (2e-4, 32), (0.25 / 8, 64), (0.25 / 128, 64)])
    def test_rows_are_cyclic_shifts_of_the_weights(self, dt, n):
        h = 2 * math.pi / n if n == 64 else 1.0 / n
        w = heat_kernel_weights(dt, 1.0, h, n)
        C = splitting._heat_circulant(dt, 1.0, h, n)
        assert C is splitting._heat_circulant(dt, 1.0, h, n)
        assert not C.flags.writeable
        assert np.all(C >= 0.0)
        half = len(w) // 2
        padded = np.concatenate([w, np.zeros(n - len(w))])
        total = math.fsum(w)
        for i in range(n):
            # C[i, (i + k) mod n] is the weight at offset k
            assert np.array_equal(C[i], np.roll(padded, i - half))
            assert math.fsum(C[i]) == total
        assert abs(w.sum() - 1.0) <= 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from([2, 3]), n=st.integers(8, 128),
           frac=st.floats(1e-3, 0.99), seed=st.integers(0, 2**32 - 1))
    def test_matches_two_wrapped_convolutions(self, d, n, frac, seed):
        # dt up to just below the largest step whose kernel support
        # 2 half + 1 fits n
        h, L1 = 1.0 / n, 1.0
        half = (n - 1) // 2
        dt = frac * (half * h / KERNEL_SIGMAS) ** 2 / (4.0 * L1)
        fld = random_field(n=n, d=d, seed=seed)
        out = heat_step(fld, dt, L1).data
        w = heat_kernel_weights(dt, L1, h, n)
        ref = convolve1d(convolve1d(fld.data, w, axis=0, mode="wrap"), w, axis=1, mode="wrap")
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


class TestBulkOde:
    def test_zero_fixed_point(self):
        out = bulk_ode_step(QTensor2(0.0, 0.0).matrix(), 0.5, P2, 2)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_2d_matches_bernoulli_closed_form(self):
        out = QTensor2(math.sqrt(0.5), 0.0).matrix()  # |Q|^2 = 1
        nsteps, dt = 200, 1.0 / 200
        for _ in range(nsteps):
            out = bulk_ode_step(out, dt, P2, 2)
        y = float(np.sum(out * out))
        assert y == pytest.approx(trace_ode_closed_form_2d(1.0, 1.0, 1.0, 1.0), abs=1e-9)
        assert y == pytest.approx(0.0725789, abs=1e-6)

    def test_3d_stationary_pair(self):
        pair = stationary_pair(P3)
        assert pair.lambda1 == pytest.approx(-0.7287136, abs=1e-6)
        assert pair.lambda2 == pytest.approx(1.4574271, abs=1e-6)
        d1, d2 = eigen_ode_rhs(pair, P3)
        assert abs(d1) < 1e-12 and abs(d2) < 1e-12
        Q = np.diag([pair.lambda1, pair.lambda2, -pair.lambda1 - pair.lambda2])
        out = bulk_ode_step(Q, 1.0, P3, 3)
        assert np.abs(out - Q).max() < 1e-8

    def test_output_symmetric_traceless(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        m -= np.trace(m) / 3 * np.eye(3)
        out = bulk_ode_step(m, 0.3, P3, 3)
        assert np.abs(out - out.T).max() < 1e-13
        assert abs(np.trace(out)) < 1e-13

    def test_result_reads_the_lower_triangle(self):
        # a rotated state is symmetric only up to roundoff; the result is
        # built from its lower triangle alone, so it is exactly symmetric and
        # has the bits of the lower triangle mirrored
        rng = np.random.default_rng(8)
        pair = stationary_pair(P3)
        mats = []
        for _ in range(100):
            R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            l1, l2 = rng.uniform(pair.lambda1, pair.lambda2, size=2)
            mats.append(R @ np.diag([l1, l2, -l1 - l2]) @ R.T)
        mats = np.array(mats)
        assert not np.array_equal(mats, np.swapaxes(mats, -1, -2))
        lower = np.tril(mats) + np.swapaxes(np.tril(mats, -1), -1, -2)
        for Q, L in [*zip(mats, lower), (mats, lower)]:  # one matrix, then a batch
            out = bulk_ode_step(Q, 0.1, P3, 3)
            assert np.array_equal(out, np.swapaxes(out, -1, -2))
            assert np.array_equal(out, bulk_ode_step(L, 0.1, P3, 3))

    def test_2d_b_term_structurally_absent(self):
        m = QTensor2(0.4, -0.3).matrix()
        for b in (0.0, 2.0, 11.0):
            p = LdGParams(a=1.0, b=b, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
            rhs = bulk_ode_rhs(m, p, 2)
            assert np.array_equal(rhs, bulk_ode_rhs(m, P2, 2))

    def test_eigen_consistency_with_matrix_ode(self):
        # for diagonal 3D states the matrix RHS diagonal equals the
        # two-eigenvalue system
        rng = np.random.default_rng(2)
        for _ in range(1000):
            l1, l2 = rng.uniform(-1.0, 1.0, size=2)
            Q = np.diag([l1, l2, -l1 - l2])
            rhs = bulk_ode_rhs(Q, P3, 3)
            d1, d2 = eigen_ode_rhs(EigenPair(l1, l2), P3)
            assert abs(rhs[0, 0] - d1) < 1e-12
            assert abs(rhs[1, 1] - d2) < 1e-12
            assert abs(rhs[2, 2] + d1 + d2) < 1e-12


def matrix_form_bulk_rhs(Q, params, d):
    """-a Q + b (Q @ Q - tr(Q^2)/3 I) - c tr(Q^2) Q, b only for d = 3."""
    t2 = np.einsum("...ij,...ij->...", Q, Q)[..., None, None]
    rhs = -params.a * Q - params.c * t2 * Q
    if d == 3 and params.b != 0.0:
        rhs = rhs + params.b * (Q @ Q - t2 / 3.0 * np.eye(3))
    return rhs


class TestEntrywiseKernels:
    """The entrywise bulk RHS and heat step against their matrix forms."""

    P3_NO_B = LdGParams(a=0.7, b=0.0, c=2.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)

    @pytest.mark.parametrize("d, params", [(3, P3), (3, P3_NO_B), (2, P2), (2, P3)])
    def test_bulk_rhs_matches_matrix_form(self, d, params):
        fld = random_field(n=16, d=d, seed=11)
        for Q in (fld.data, fld.data[3, 5]):
            rhs = bulk_ode_rhs(Q, params, d)
            ref = matrix_form_bulk_rhs(Q, params, d)
            assert rhs.shape == Q.shape
            assert np.abs(rhs - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(rhs, np.swapaxes(rhs, -1, -2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_heat_step_exactly_symmetric_traceless(self, d):
        fld = random_field(n=32, d=d, seed=12)
        dt, L1 = 2e-4, 1.0
        out = heat_step(fld, dt, L1).data
        assert np.array_equal(out, np.swapaxes(out, -1, -2))
        assert np.all(sum(out[..., i, i] for i in range(d)) == 0.0)
        # every component of the field convolved, as a d*d-component field
        w = heat_kernel_weights(dt, L1, fld.h, fld.n)
        ref = convolve1d(convolve1d(fld.data, w, axis=0, mode="wrap"), w, axis=1, mode="wrap")
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_same_bits_in_either_memory_order(self):
        # the kernels store entry planes contiguously; a C-ordered input
        # must give the same numbers
        fld = random_field(n=16, d=3, seed=13)
        c_data = np.ascontiguousarray(fld.data)
        f_data = np.asfortranarray(fld.data)
        for fn in (lambda Q: bulk_ode_step(Q, 0.05, P3, 3),
                   lambda Q: heat_step(PeriodicField(Q, fld.h), 1e-3, 1.0).data,
                   lambda Q: PeriodicField(Q, fld.h).eigenvalues()):
            assert np.array_equal(fn(c_data), fn(f_data))

    def test_eigen_rhs_on_arrays_equals_rhs_on_floats(self):
        rng = np.random.default_rng(14)
        l1, l2 = rng.uniform(-1.0, 1.0, size=(2, 50))
        d1, d2 = eigen_ode_rhs(EigenPair(l1, l2), P3)
        for i in range(50):
            assert (d1[i], d2[i]) == eigen_ode_rhs(EigenPair(float(l1[i]), float(l2[i])), P3)


class TestStackedBulkStep:
    """A field's bulk step runs RK4 on one stack of its entries in a
    workspace; a single matrix runs on Python floats."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from([2, 3]), with_b=st.booleans(), nsub=st.integers(1, 3),
           layout=st.sampled_from(["C", "fortran"]),
           grid=st.sampled_from([(0, 0), (3, 0), (1, 1), (7,), (3, 5), (6, 6)]),
           seed=st.integers(0, 2**32 - 1))
    def test_each_cell_has_the_bits_of_its_matrix(self, d, with_b, nsub, layout, grid, seed):
        rng = np.random.default_rng(seed)
        # not symmetric: both paths read the lower triangle
        data = rng.normal(size=grid + (d, d)) * rng.uniform(0.05, 1.0)
        if layout == "fortran":
            data = np.asfortranarray(data)
        params = LdGParams(a=rng.uniform(-2.0, 2.0), b=rng.uniform(0.5, 4.0) if with_b else 0.0,
                           c=rng.uniform(0.1, 2.0), L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        dt = rng.uniform(0.01, 0.2)
        # both paths run the same number of substeps
        with mock.patch.object(splitting, "_substeps", lambda T, rate: nsub):
            out = bulk_ode_step(data, dt, params, d)
            rhs = bulk_ode_rhs(data, params, d)
            assert out.shape == rhs.shape == data.shape
            for cell in np.ndindex(grid):
                assert out[cell].tobytes() == bulk_ode_step(data[cell], dt, params, d).tobytes()
                assert rhs[cell].tobytes() == bulk_ode_rhs(data[cell], params, d).tobytes()

    def test_peak_memory_does_not_grow_with_substeps(self):
        # the shipped trotter-convergence field, at the step size of n = 64
        data = make_hull_spanning_field(64, 2.0 * math.pi / 64, P3, 3).data
        peaks = []
        for nsub in (1, 3, 48):
            with mock.patch.object(splitting, "_substeps", lambda T, rate: nsub):
                bulk_ode_step(data, 0.25 / 64, P3, 3)
                tracemalloc.start()
                try:
                    bulk_ode_step(data, 0.25 / 64, P3, 3)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert max(peaks) - min(peaks) <= 16 * 1024
        # the workspace, the result and the norms: under 48 planes of 32 KB
        assert max(peaks) < 48 * data[..., 0, 0].nbytes


class TestTraceOdeClosedForm:
    def test_zero(self):
        assert trace_ode_closed_form_2d(0.0, 1.0, 1.0, 5.0) == 0.0

    def test_a_zero(self):
        assert trace_ode_closed_form_2d(1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)

    def test_reference_value(self):
        val = trace_ode_closed_form_2d(1.0, 1.0, 1.0, 1.0)
        e2 = math.exp(-2.0)
        assert val == pytest.approx(e2 / (2.0 - e2), rel=1e-12)
        assert val == pytest.approx(0.0725789, abs=1e-7)

    def test_matches_quadrature(self):
        from scipy.integrate import solve_ivp

        for a, c, y0 in ((0.5, 2.0, 0.3), (-0.4, 1.0, 0.1), (0.0, 3.0, 2.0)):
            sol = solve_ivp(
                lambda t, y: -2 * a * y - 2 * c * y * y, (0, 1.5), [y0],
                rtol=1e-11, atol=1e-13,
            )
            assert trace_ode_closed_form_2d(y0, a, c, 1.5) == pytest.approx(
                float(sol.y[0, -1]), rel=1e-8
            )


class TestNormPreservation:
    def test_2d_norm_bound(self):
        # a < 0: |Q(0)| <= sqrt(-a/c) implies |Q(t)| <= sqrt(-a/c)
        p = LdGParams(a=-1.0, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        cap = math.sqrt(-p.a / p.c)
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = QTensor2(*rng.normal(size=2))
            nrm = math.sqrt(2 * (q.p**2 + q.q**2))
            if nrm > cap:
                scale = 0.999 * cap / nrm
                q = QTensor2(q.p * scale, q.q * scale)
            out = q.matrix()
            for _ in range(20):
                out = bulk_ode_step(out, 0.1, p, 2)
            assert math.sqrt(float(np.sum(out * out))) <= cap + 1e-9

    def test_3d_norm_bound(self):
        # |Q0|^2 <= (2/3) s+^2 implies the same for all t
        pair = stationary_pair(P3)
        s_plus = -3.0 * pair.lambda1
        cap2 = (2.0 / 3.0) * s_plus**2
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            m -= np.trace(m) / 3 * np.eye(3)
            nrm2 = float(np.sum(m * m))
            m *= math.sqrt(0.999 * cap2 / nrm2)
            out = m
            for _ in range(20):
                out = bulk_ode_step(out, 0.1, P3, 3)
            assert float(np.sum(out * out)) <= cap2 + 1e-8

    def test_3d_eigenvalue_magnitude_bound(self):
        pair = stationary_pair(P3)
        s_plus = -3.0 * pair.lambda1
        cap2 = (2.0 / 3.0) * s_plus**2
        rng = np.random.default_rng(5)
        l1 = rng.uniform(-1, 1, size=200)
        l2 = rng.uniform(-1, 1, size=200)
        q2 = 2 * (l1**2 + l2**2 + l1 * l2)
        keep = q2 <= cap2
        o1, o2 = eigen_ode_integrate(l1[keep], l2[keep], P3, 5.0)
        bound = (2.0 / 3.0) * s_plus + 1e-8
        assert np.all(np.abs(o1) <= bound)
        assert np.all(np.abs(o2) <= bound)
        assert np.all(np.abs(-o1 - o2) <= bound)


class TestIntervalPreservation:
    def test_interval_and_order(self):
        interval = physical_interval(P3, 3)
        lo, hi = interval.lo, interval.hi
        grid = np.linspace(lo, hi, 20)
        l1g, l2g = np.meshgrid(grid, grid, indexing="ij")
        third = -l1g - l2g
        keep = (third >= lo) & (third <= hi)
        l1s, l2s = l1g[keep], l2g[keep]
        o1, o2 = eigen_ode_integrate(l1s, l2s, P3, 10.0)
        o3 = -o1 - o2
        for arr in (o1, o2, o3):
            assert arr.min() >= lo - 1e-8
            assert arr.max() <= hi + 1e-8
        ordered = l1s <= l2s
        assert np.all(o1[ordered] <= o2[ordered] + 1e-12)

    def test_rotational_equivariance(self):
        rng = np.random.default_rng(6)
        pair = stationary_pair(P3)
        for _ in range(20):
            R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            l1, l2 = rng.uniform(pair.lambda1, pair.lambda2, size=2)
            Q0 = np.diag([l1, l2, -l1 - l2])
            left = bulk_ode_step(R @ Q0 @ R.T, 1.0, P3, 3)
            right = R @ bulk_ode_step(Q0, 1.0, P3, 3) @ R.T
            assert np.abs(left - right).max() < 1e-10


class TestTrotter:
    def test_constant_field_matches_pure_ode(self):
        # heat acts trivially on constants, so the composition is the ODE flow
        pair = stationary_pair(P3)
        q0 = np.diag([0.3 * pair.lambda1, 0.5 * pair.lambda2,
                      -0.3 * pair.lambda1 - 0.5 * pair.lambda2])
        fld = PeriodicField(np.tile(q0, (16, 16, 1, 1)), 2 * np.pi / 16)
        res = trotter_solve(fld, 0.25, 8, P3)
        direct = q0.copy()
        for _ in range(8):
            direct = bulk_ode_step(direct, 0.25 / 8, P3, 3)
        assert np.abs(res.field.data - direct).max() < 1e-10

    def test_self_convergence_order(self):
        fld = make_smooth_physical_field(32, 2 * np.pi / 32, P3, 3, seed=7)
        sols = {n: trotter_solve(fld, 0.25, n, P3).field for n in (8, 16, 32, 64)}
        errs = [field_l2_distance(sols[n], sols[2 * n]) for n in (8, 16, 32)]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.5

    def test_physical_interval_preserved(self):
        # the invariant eigenvalue interval: a margin-0.7 field stays inside it
        fld = make_smooth_physical_field(24, 2 * np.pi / 24, P3, 3, seed=8)
        interval = physical_interval(P3, 3)
        res = trotter_solve(fld, 0.5, 32, P3)
        for hb in res.hulls:
            assert hb.lambda_min >= interval.lo - 1e-8
            assert hb.lambda_max <= interval.hi + 1e-8

    def test_hull_certificate_spanning_field(self):
        # data whose hull equals the physical interval: the initial hull is
        # then itself invariant, substep by substep
        fld = make_hull_spanning_field(24, 2 * np.pi / 24, P3, seed=8)
        hull0 = hull_bounds(fld)
        interval = physical_interval(P3, 3)
        assert hull0.lambda_min == pytest.approx(interval.lo, abs=1e-10)
        assert hull0.lambda_max == pytest.approx(interval.hi, abs=1e-10)
        res = trotter_solve(fld, 0.5, 32, P3)
        for hb in res.hulls:
            assert hb.within(hull0, 1e-8)

    def test_2d_uses_zeta(self):
        p = LdGParams(a=1.0, b=0.0, c=1.0, L1=1.0, L2=0.3, L3=-0.3, L4=0.0)
        fld = random_field(n=16, d=2, seed=9, scale=0.2)
        fld = PeriodicField(fld.data, 2 * np.pi / 16)
        res = trotter_solve(fld, 0.1, 4, p)
        assert np.all(np.isfinite(res.field.data))

    def test_rejects_nonzero_l4(self):
        p = LdGParams(a=1.0, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.5)
        with pytest.raises(ValueError, match="L4"):
            trotter_solve(random_field(n=8, d=2, seed=10), 0.1, 2, p)

    def test_rejects_l2l3_for_3d(self):
        p = LdGParams(a=1.0, b=0.0, c=1.0, L1=1.0, L2=0.5, L3=0.0, L4=0.0)
        with pytest.raises(ValueError, match="L2"):
            trotter_solve(random_field(n=8, d=3, seed=11), 0.1, 2, p)


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@st.composite
def hull_fields(draw):
    """(n, n, 3, 3) fields of traceless symmetric blocks, n from 1 to 12,
    scaled by 2**k, |k| <= 330: random, uniform, zero, uniaxial (double
    roots), with inf or NaN entries, and the adversarial pair of an oblate
    cell that holds the largest u and a prolate one that may hold lambda_max
    with 2 v just above or below U."""
    kind = draw(st.sampled_from(["random", "uniform", "zero", "uniaxial", "nonfinite",
                                 "adversarial"]))
    # sizes and scales from a drawn seed: drawn directly, they cluster at n = 1, k = 0
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 13)), int(rng.integers(-330, 331))
    if kind == "zero":
        return np.zeros((n, n, 3, 3))
    data = random_field(n=n, d=3, seed=seed, scale=1.0).data
    if kind == "uniform":
        data = np.broadcast_to(data[0, 0], data.shape).copy()
    elif kind == "uniaxial":
        # rotated R diag(-s, -s, 2s) R^T, and unrotated ones whose double root is exact
        s = rng.normal(size=(n, n))
        R = np.linalg.qr(rng.normal(size=(n, n, 3, 3)))[0]
        diag = s[..., None, None] * np.diag([-1.0, -1.0, 2.0])
        data = np.where(rng.random((n, n))[..., None, None] < 0.5, R @ diag @ np.swapaxes(R, -1, -2),
                        diag)
    elif kind == "nonfinite":
        for _ in range(draw(st.integers(1, 3))):
            x, y, i, j = rng.integers(0, n, 2).tolist() + rng.integers(0, 3, 2).tolist()
            data[x, y, i, j] = data[x, y, j, i] = draw(st.sampled_from([math.nan, math.inf,
                                                                        -math.inf]))
    elif kind == "adversarial" and n > 1:
        # u = sqrt(tr(m^2)/6) of every other cell stays below 0.4 U, so the
        # pair alone decides lambda_max
        U = float(np.sqrt(np.einsum("...ij,...ij->...", data, data).max() / 6.0)) * 2.5
        v = 0.5 * U * (1.0 + draw(st.sampled_from([-1e-6, -1e-7, -4e-16, 0.0, 4e-16, 1e-7, 1e-6,
                                                   0.2])))
        cells = rng.choice(n * n, 2, replace=False)
        flat = data.reshape(n * n, 3, 3)
        flat[cells[0]] = np.diag([U, U, -2.0 * U])
        flat[cells[1]] = np.diag([-v, -v, 2.0 * v])
    if draw(st.booleans()):
        data = np.asfortranarray(data)
    return data * 2.0**k


class TestHullBounds:
    def test_nan_block_is_not_certified(self):
        m = np.zeros((4, 4, 3, 3))
        m[2, 1] = np.nan
        hb = hull_bounds(PeriodicField(m, 0.25))
        assert math.isnan(hb.lambda_min) and math.isnan(hb.lambda_max)
        assert not hb.within(hull_bounds(PeriodicField(np.zeros_like(m), 0.25)), 1e-8)

    def test_spanning_field_outside_the_interval_raises(self, monkeypatch):
        # a blend toward a state past the interval's ends is refused, also
        # under python -O, with the hull and the interval in the message
        pair = stationary_pair(P3)
        monkeypatch.setattr(splitting, "stationary_pair",
                            lambda params: EigenPair(1.01 * pair.lambda1, 1.01 * pair.lambda2))
        with pytest.raises(ValueError, match=r"hull \[-0\.7360.*, 1\.4720.*\] outside the "
                                             r"physical interval \[-0\.7287.*, 1\.4574.*\]"):
            make_hull_spanning_field(16, 2 * math.pi / 16, P3, seed=0)

    def test_trotter_stops_on_a_nan_initial_block(self):
        fld = make_hull_spanning_field(16, 2 * math.pi / 16, P3, seed=0)
        fld.data[3, 5] = np.nan
        with pytest.raises(UnstableStepError, match="initial field"):
            trotter_solve(fld, 0.25, 4, P3)

    def test_trotter_stops_on_a_nan_after_a_substep(self, monkeypatch):
        def nan_at_one_cell(data, dt, params, d):
            out = bulk_ode_step(data, dt, params, d)
            out[3, 5] = np.nan
            return out

        monkeypatch.setattr(splitting, "bulk_ode_step", nan_at_one_cell)
        fld = make_hull_spanning_field(16, 2 * math.pi / 16, P3, seed=0)
        with pytest.raises(UnstableStepError, match="bulk-ODE substep 1"):
            trotter_solve(fld, 0.25, 4, P3)

    def test_overflowing_rate_is_a_numerical_failure(self):
        # |a| + b|Q| + c|Q|^2, or T times it, overflows to inf; it used to
        # raise OverflowError converting the substep count to an integer
        huge_c = LdGParams(a=-1.0, b=3.0, c=1e308, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
        fld = make_hull_spanning_field(16, 2 * math.pi / 16, P3, seed=0)
        fld = PeriodicField(fld.data * 1e3, fld.h)
        with pytest.raises(UnstableStepError, match="non-finite bulk-ODE rate"):
            bulk_ode_step(fld.data, 0.25 / 4, huge_c, 3)
        with pytest.raises(UnstableStepError, match="non-finite bulk-ODE rate"):
            trotter_solve(fld, 0.25, 4, huge_c)
        with pytest.raises(UnstableStepError, match="non-finite bulk-ODE rate"):
            eigen_ode_integrate([1e3], [-1e3], huge_c, 1.0)
        with pytest.raises(UnstableStepError, match="non-finite bulk-ODE rate"):
            eigen_ode_integrate([0.5], [-0.2], P3, 1e308)
        # a NaN in either eigenvalue reaches the rate bound
        for pair in (([math.nan], [0.5]), ([0.5], [math.nan])):
            with pytest.raises(UnstableStepError, match="non-finite bulk-ODE rate"):
                eigen_ode_integrate(*pair, P3, 1.0)

    def test_zero_field(self):
        fld = PeriodicField(np.zeros((8, 8, 2, 2)), 1.0)
        hb = hull_bounds(fld)
        assert hb.lambda_min == 0.0 and hb.lambda_max == 0.0

    def test_physical_by_construction(self):
        fld = make_smooth_physical_field(16, 1.0, P3, 3, seed=12)
        interval = physical_interval(P3, 3)
        hb = hull_bounds(fld)
        assert hb.lambda_min >= interval.lo and hb.lambda_max <= interval.hi

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hull_fields())
    def test_equals_the_full_grid_hull(self, data):
        # only the candidate cells get eigenvalues, and the hull keeps the
        # bits of one eigvals_traceless_sym3 call on every cell
        hb = hull_bounds(PeriodicField(data, 1.0))
        lam = eigvals_traceless_sym3(data)
        if not np.all(np.isfinite(data)):
            assert math.isnan(hb.lambda_min) and math.isnan(hb.lambda_max)
            assert np.isnan(lam).any()
        else:
            assert _bits(hb.lambda_min) == _bits(lam.min())
            assert _bits(hb.lambda_max) == _bits(lam.max())

    @pytest.mark.parametrize("U", [2.0**-537, 2.0**511], ids=["j2-underflows", "j2-overflows"])
    def test_off_scale_grid_takes_every_cell(self, U):
        # an oblate cell with u = U beside a prolate one that holds
        # lambda_max = 1.2 U: at 2**-537 the prolate J2 flushes to 0 and the
        # largest J2 is subnormal; at 2**511 the oblate J2 overflows to inf
        # while the prolate one stays finite.  Both grids take every cell.
        data = np.zeros((2, 2, 3, 3))
        data[0, 0] = np.diag([U, U, -2.0 * U])
        data[1, 1] = np.diag([-0.6 * U, -0.6 * U, 1.2 * U])
        hb = hull_bounds(PeriodicField(data, 1.0))
        assert (hb.lambda_min, hb.lambda_max) == (-2.0 * U, 1.2 * U)

    def test_shipped_field_sends_few_cells(self, monkeypatch):
        # the shipped trotter-convergence data (P3, 64 cells, seed 0): a
        # median of 381 of the 4096 cells reach the eigenvalues, at most 591
        cells = []

        def counting(m):
            cells.append(np.size(m) // 9)
            return eigvals_traceless_sym3(m)

        fld = make_hull_spanning_field(64, 2 * math.pi / 64, P3, seed=0)
        monkeypatch.setattr(splitting, "eigvals_traceless_sym3", counting)
        res = trotter_solve(fld, 0.25, 8, P3)
        assert len(cells) == len(res.hulls) == 17
        assert max(cells) < 0.15 * 64 * 64
