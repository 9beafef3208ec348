import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import constant_field

from qflow import energy
from qflow.energy import (
    LdGParams,
    bulk_density,
    derived_constants,
    elastic_density,
    elastic_matrix,
    elastic_matrix_eigenvalues,
    oseen_frank_forward,
    oseen_frank_inverse,
    total_energy,
    trapezoid,
)
from qflow.pde2d import Field2D, Grid2D
from qflow.qtensor import QTensor2, QTensor3


def elastic_density_loops(m, g, params):
    """Brute-force index-summation oracle for the elastic density."""
    d = m.shape[0]
    val = 0.0
    for k in range(d):
        for i in range(d):
            for j in range(d):
                val += params.L1 * g[k, i, j] * g[k, i, j]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                val += params.L2 * g[j, i, k] * g[k, i, j]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                val += params.L3 * g[j, i, j] * g[k, i, k]
    for l in range(d):
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    val += params.L4 * m[l, k] * g[k, i, j] * g[l, i, j]
    return val


def random_traceless_sym_grad(rng, d):
    """Random gradient array dkQij, symmetric traceless in (i, j)."""
    g = rng.normal(size=(d, d, d))
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    tr = np.einsum("kii->k", g) / d
    for i in range(d):
        g[:, i, i] -= tr
    return g


class TestDerivedConstants:
    def test_reference_values(self):
        dc = derived_constants(LdGParams(a=0, b=0, c=1, L1=1, L2=0, L3=0, L4=1))
        assert dc.zeta == 2.0
        assert dc.nu == 1.0
        assert dc.eta1 == pytest.approx(4.0 / (1.0 + 4.0 * math.sqrt(2.0)) ** 2, rel=1e-12)
        assert dc.eta1 == pytest.approx(0.0902655, abs=1e-7)
        assert dc.eta2 == pytest.approx((4.0 / 144.0) / 60.0, rel=1e-12)
        assert dc.eta2 == pytest.approx(4.6296e-4, abs=1e-7)

    def test_l4_zero_gives_inf(self):
        dc = derived_constants(LdGParams(a=0, b=0, c=1, L1=1, L2=0.5, L3=0.5, L4=0))
        assert dc.zeta == 3.0
        assert dc.nu == 1.5
        assert math.isinf(dc.eta1) and math.isinf(dc.eta2)

    def test_nu_is_min(self):
        dc = derived_constants(LdGParams(a=0, b=0, c=1, L1=1, L2=2, L3=3, L4=2))
        assert dc.zeta == 7.0
        assert dc.nu == 3.0

    def test_eta2_below_eta1(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            L1 = rng.uniform(0.1, 2.0)
            L2 = rng.uniform(-0.5 * L1, 2.0)
            L3 = rng.uniform(-0.5 * L1, 2.0)
            L4 = rng.uniform(0.1, 3.0)
            dc = derived_constants(LdGParams(a=0, b=0, c=1, L1=L1, L2=L2, L3=L3, L4=L4))
            assert dc.eta2 <= dc.eta1

    def test_rejects_bad_bulk(self):
        with pytest.raises(ValueError):
            derived_constants(LdGParams(a=0, b=-1, c=1, L1=1, L2=0, L3=0, L4=0))
        with pytest.raises(ValueError):
            derived_constants(LdGParams(a=0, b=0, c=0, L1=1, L2=0, L3=0, L4=0))

    def test_rejects_non_coercive_when_strict(self):
        bad = LdGParams(a=0, b=0, c=1, L1=0, L2=1, L3=-1, L4=0)
        with pytest.raises(ValueError):
            derived_constants(bad, strict=True)
        derived_constants(bad, strict=False)


class TestElasticMatrix:
    def test_reference_spectrum(self):
        eigs = elastic_matrix_eigenvalues(LdGParams(0, 0, 1, 1, 2, 3, 0))
        assert eigs == pytest.approx([6.0, 6.0, 8.0, 8.0], abs=1e-12)

    def test_identity_case(self):
        eigs = elastic_matrix_eigenvalues(LdGParams(0, 0, 1, 1, 0, 0, 0))
        assert eigs == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-13)

    def test_non_coercive_case(self):
        eigs = elastic_matrix_eigenvalues(LdGParams(0, 0, 1, 0, 1, -1, 0))
        assert eigs == pytest.approx([-2.0, -2.0, 2.0, 2.0], abs=1e-12)

    def test_spectrum_formula_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            L1, L2, L3 = rng.uniform(-1, 2, size=3)
            p = LdGParams(0, 0, 1, L1, L2, L3, 0)
            expected = np.sort([2 * (L1 + L2)] * 2 + [2 * (L1 + L3)] * 2)
            assert np.abs(elastic_matrix_eigenvalues(p) - expected).max() < 1e-10

    def test_quadratic_form_bound(self):
        rng = np.random.default_rng(2)
        p = LdGParams(0, 0, 1, 1.0, 0.3, -0.2, 0)
        B = elastic_matrix(p)
        chi = rng.normal(size=(10000, 4))
        form = np.einsum("ni,ij,nj->n", chi, B, chi)
        assert np.all(form >= (2 * p.nu - 1e-10) * np.einsum("ni,ni->n", chi, chi))


class TestBulkDensity:
    def test_zero(self):
        assert bulk_density(QTensor2(0, 0), LdGParams(1, 0, 1, 1, 0, 0, 0)) == 0.0

    def test_2d_value(self):
        # tr(Q^2) = 2 for p=1, q=0: a/2*2 + c/4*4 = 2
        val = bulk_density(QTensor2(1, 0), LdGParams(1, 0, 1, 1, 0, 0, 0))
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_3d_cubic_term(self):
        q = QTensor3(-1 / 3, -1 / 3, 0, 0, 0)
        val = bulk_density(q, LdGParams(0, 3, 1e-300, 1, 0, 0, 0))
        # tr(Q^3) = 2/9, so -(b/3) tr(Q^3) = -2/9
        assert val == pytest.approx(-2.0 / 9.0, abs=1e-12)

    def test_2d_independent_of_b(self):
        q = QTensor2(0.3, -0.7)
        vals = [
            bulk_density(q, LdGParams(0.5, b, 2.0, 1, 0, 0, 0)) for b in (0.0, 1.0, 17.0)
        ]
        assert vals[0] == vals[1] == vals[2]


class TestElasticDensity:
    def test_zero_gradient(self):
        p = LdGParams(0, 0, 1, 1, 1, 1, 1)
        assert elastic_density(QTensor2(1, 2), np.zeros((2, 2, 2)), p) == 0.0

    def test_single_entry_l1(self):
        # d1 p = 1: gradient entries d1Q11 = 1, d1Q22 = -1, |grad Q|^2 = 2
        g = np.zeros((2, 2, 2))
        g[0, 0, 0] = 1.0
        g[0, 1, 1] = -1.0
        val = elastic_density(QTensor2(0, 0), g, LdGParams(0, 0, 1, 1, 0, 0, 0))
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_single_entry_l2_matches_loops(self):
        g = np.zeros((2, 2, 2))
        g[0, 0, 0] = 1.0
        g[0, 1, 1] = -1.0
        p = LdGParams(0, 0, 1, 0, 1, 0, 0)
        expected = elastic_density_loops(np.zeros((2, 2)), g, p)
        assert elastic_density(QTensor2(0, 0), g, p) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_index_contraction_oracle(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(50):
            p = LdGParams(0, 0, 1, *rng.normal(size=4))
            if d == 2:
                m = QTensor2(*rng.normal(size=2)).matrix()
            else:
                m = QTensor3(*rng.normal(size=5)).matrix()
            g = random_traceless_sym_grad(rng, d)
            ours = elastic_density(m, g, p)
            ref = elastic_density_loops(m, g, p)
            assert ours == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_coercivity_pointwise_l4_zero(self):
        # with L4 = 0 and coercive params the density dominates nu |grad Q|^2
        rng = np.random.default_rng(12)
        p = LdGParams(0, 0, 1, 1.0, 0.4, -0.3, 0)
        for _ in range(200):
            g = random_traceless_sym_grad(rng, 2)
            dens = elastic_density(np.zeros((2, 2)), g, p)
            assert dens >= p.nu * np.sum(g * g) - 1e-12


class TestTotalEnergy:
    def test_zero_field(self):
        grid = Grid2D.from_extent(8, 8, 1.0, 1.0)
        assert total_energy(Field2D.zeros(grid), LdGParams(1, 0, 1, 1, 1, 1, 1)) == 0.0

    def test_constant_field_bulk_only(self):
        grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
        fld = constant_field(grid, 0.3, 0.0)
        p = LdGParams(a=0.7, b=0, c=1.3, L1=1, L2=0.2, L3=0.1, L4=0.5)
        expected = bulk_density(QTensor2(0.3, 0.0), p)  # area = 1
        assert total_energy(fld, p) == pytest.approx(expected, rel=1e-12)

    def test_grid_refinement_oracle(self, monkeypatch):
        # p = sin(pi x) sin(pi y): compare a coarse grid against a 10x finer one
        p = LdGParams(a=1e-9, b=0, c=1e-9, L1=1, L2=0, L3=0, L4=0)
        densities, trapezoid = [], energy.trapezoid

        def recording(f, d):
            densities.append(f)
            return trapezoid(f, d)

        monkeypatch.setattr(energy, "trapezoid", recording)

        def energy_at(n):
            grid = Grid2D.from_extent(n, n, 1.0, 1.0)
            x, y = grid.nodes()
            pf = np.sin(np.pi * x)[:, None] * np.sin(np.pi * y)[None, :]
            densities.clear()
            value = total_energy(Field2D(grid, pf, np.zeros_like(pf)), p)
            # the bits of np.trapezoid on the density, one axis after the other
            inner = np.trapezoid(densities[0], dx=grid.hy, axis=1)
            assert value.hex() == float(np.trapezoid(inner, dx=grid.hx, axis=0)).hex()
            return value

        coarse, fine = energy_at(64), energy_at(640)
        assert abs(coarse - fine) <= 1e-3 * abs(fine)
        # analytic value: zeta int |grad p|^2 = 2 * pi^2/2 = pi^2
        assert fine == pytest.approx(np.pi**2, rel=1e-4)


class TestTrapezoid:
    """trapezoid halves its sums with s *= 0.5.  x * 0.5 and x / 2.0 round
    the same real x/2, so they agree bit for bit on every double: finite,
    subnormal, infinite and NaN."""

    DOUBLES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(f=st.lists(DOUBLES, min_size=2, max_size=40), d=DOUBLES)
    @example(f=[5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308, 1e-310],
             d=1.0)
    @example(f=[math.inf, -math.inf, math.nan, -math.nan, 1.7976931348623157e308, -0.0, 0.0],
             d=1.7976931348623157e308)
    @example(f=[1.0, 3.0, 0.1], d=math.nan)
    def test_halving_equals_division_by_two(self, f, d):
        f = np.array(f)
        with np.errstate(all="ignore"):
            assert (f * 0.5).tobytes() == (f / 2.0).tobytes()
            # the expression before the change, np.trapezoid's
            s = f[1:] + f[:-1]
            s *= d
            s /= 2.0
            assert np.float64(trapezoid(f, d)).tobytes() == s.sum().tobytes()
            # a spacing per interval, as the radial quadratures pass
            dx = np.full(len(f) - 1, d)
            s = f[1:] + f[:-1]
            s *= dx
            s /= 2.0
            assert np.float64(trapezoid(f, dx)).tobytes() == s.sum().tobytes()


class TestOseenFrank:
    def test_forward_reference(self):
        of = oseen_frank_forward(LdGParams(0, 0, 1, 1, 0, 1, 1), 1.0)
        assert (of.K1, of.K3) == pytest.approx((2.0, 4.0))

    def test_l4_zero_forces_equal_constants(self):
        of = oseen_frank_forward(LdGParams(0, 0, 1, 0.7, -0.2, 1.4, 0.0), 1.0)
        assert of.K1 == of.K3

    def test_forward_negative_l4(self):
        of = oseen_frank_forward(LdGParams(0, 0, 1, 0.5, 0, 0, -1.0), 2.0)
        assert (of.K1, of.K3) == pytest.approx((12.0, -4.0))

    def test_inverse_reference(self):
        lt1, L3, L4 = oseen_frank_inverse(2.0, 4.0, 1.0)
        assert (lt1, L3, L4) == pytest.approx((1.0, 2.0, 1.0))

    def test_inverse_equal_constants(self):
        lt1, L3, L4 = oseen_frank_inverse(5.0, 5.0, 1.0)
        assert (lt1, L3, L4) == pytest.approx((0.0, 5.0, 0.0))

    def test_roundtrip(self):
        lt1, L3, L4 = oseen_frank_inverse(2.0, 4.0, 1.0)
        of = oseen_frank_forward(LdGParams(0, 0, 1, lt1 / 2.0, 0.0, L3, L4), 1.0)
        assert (of.K1, of.K3) == pytest.approx((2.0, 4.0), abs=1e-14)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            K1, K3 = rng.uniform(-5, 5, size=2)
            s = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            lt1, L3, L4 = oseen_frank_inverse(K1, K3, s)
            of = oseen_frank_forward(LdGParams(0, 0, 1, lt1 / 2.0, 0.0, L3, L4), s)
            scale = max(1.0, abs(K1), abs(K3))
            assert abs(of.K1 - K1) < 1e-12 * scale
            assert abs(of.K3 - K3) < 1e-12 * scale
