import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.energy import LdGParams
from qflow.qtensor import (
    PhysicalityInterval,
    QTensor2,
    QTensor3,
    eigenvalues,
    eigvals_traceless_sym3,
    is_physical,
    physical_interval,
    unit_physicality_interval,
)


def params(a=-1.0, b=0.0, c=1.0):
    return LdGParams(a=a, b=b, c=c, L1=1.0, L2=0.0, L3=0.0, L4=0.0)


class TestEigenvalues:
    def test_diagonal_2d(self):
        assert eigenvalues(QTensor2(1.0, 0.0)) == pytest.approx([-1.0, 1.0])

    def test_characteristic_poly_2d(self):
        # lambda^2 = p^2 + q^2
        assert eigenvalues(QTensor2(3.0, 4.0)) == pytest.approx([-5.0, 5.0])

    def test_diagonal_3d(self):
        q = QTensor3(-1.0 / 3.0, -1.0 / 3.0, 0.0, 0.0, 0.0)
        lam = eigenvalues(q)
        assert lam == pytest.approx([-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0], abs=1e-7)
        assert abs(lam.sum()) < 1e-12

    def test_3d_matches_lapack_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            m -= np.trace(m) / 3.0 * np.eye(3)
            ours = eigvals_traceless_sym3(m)
            ref = np.linalg.eigvalsh(m)
            assert np.abs(ours - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())

    # Worst error measured on 2e5 such matrices at scales 1e-89..1e89: 1.9e-12
    # of the spectral radius, at relative eigenvalue gaps of 1e-3..1e-5 near
    # the 1e-4 below which LAPACK takes over.  J2 and the cofactor J3 scale
    # exactly with the matrix, so the error does not grow with its distance
    # in scale from 1.
    EIG_RTOL = 1e-9

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        lam1=st.floats(-1.0, 1.0),
        lam2=st.floats(-1.0, 1.0),
        gap_exp=st.one_of(st.none(), st.integers(0, 16)),
        scale_exp=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_3d_matches_lapack_near_degenerate(self, lam1, lam2, gap_exp, scale_exp, seed):
        # gap_exp puts lam2 within 10**-gap_exp of lam1 (16: a double root);
        # scales beyond 1e+-90 go to LAPACK, where u**3 and det leave range
        if gap_exp is not None:
            lam2 = lam1 + (0.0 if gap_exp == 16 else 10.0**-gap_exp * lam2)
        lam = 10.0**scale_exp * np.array([lam1, lam2, -(lam1 + lam2)])
        rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        m = rot @ np.diag(lam) @ rot.T
        m = 0.5 * (m + m.T)
        m[2, 2] = -(m[0, 0] + m[1, 1])
        ref = np.linalg.eigvalsh(m)
        ours = eigvals_traceless_sym3(m)
        assert np.abs(ours - ref).max() <= self.EIG_RTOL * np.abs(ref).max()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        lam1=st.floats(-1.0, 1.0),
        lam2=st.floats(-1.0, 1.0),
        gap_exp=st.one_of(st.none(), st.integers(0, 16)),
        scale_exp=st.integers(-84, 84),
        target_exp=st.integers(-84, 84),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_3d_scale_equivariant(self, lam1, lam2, gap_exp, scale_exp, target_exp, seed):
        # eigvals(2**k m) / 2**k = eigvals(m) for m at 10**scale_exp and
        # 2**k m near 10**target_exp, both inside the closed form's range
        if gap_exp is not None:
            lam2 = lam1 + (0.0 if gap_exp == 16 else 10.0**-gap_exp * lam2)
        lam = np.array([lam1, lam2, -(lam1 + lam2)])
        if np.abs(lam).max() == 0.0:
            return
        lam = lam / np.abs(lam).max() * 10.0**scale_exp
        rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        m = rot @ np.diag(lam) @ rot.T
        m = 0.5 * (m + m.T)
        m[2, 2] = -(m[0, 0] + m[1, 1])
        k = round((target_exp - scale_exp) * math.log2(10.0))
        ours = eigvals_traceless_sym3(m)
        scaled = eigvals_traceless_sym3(2.0**k * m) / 2.0**k
        assert np.abs(scaled - ours).max() <= 1e-13 * np.abs(ours).max()

    def test_3d_ascending_without_a_sort(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        rng = np.random.default_rng(7)
        m = rng.normal(size=(32, 3, 3))
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        m[:, 2, 2] = -(m[:, 0, 0] + m[:, 1, 1])
        monkeypatch.setattr(np, "sort", forbidden)
        # well-separated roots: the closed form alone, already in order
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", forbidden)
            lam = eigvals_traceless_sym3(m)
        assert np.all(np.diff(lam, axis=-1) > 0.0)
        assert np.abs(lam - np.linalg.eigvalsh(m)).max() < 1e-12
        # double roots of either sign, rotated, among the separated ones
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for diag in ([-1.0, -1.0, 2.0], [1.0, 1.0, -2.0], [0.0, 0.0, 0.0]):
            m[-1] = rot @ np.diag(diag) @ rot.T
            m[-1, 2, 2] = -(m[-1, 0, 0] + m[-1, 1, 1])
            lam = eigvals_traceless_sym3(m)
            assert np.all(np.diff(lam, axis=-1) >= 0.0)
            assert lam[-1] == pytest.approx(sorted(diag), abs=1e-12)
            assert eigvals_traceless_sym3(m[-1]) == pytest.approx(sorted(diag), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_3d_non_finite_block_gives_nan(self, bad):
        assert np.isnan(eigvals_traceless_sym3(np.full((3, 3), bad))).all()
        # one bad entry in a field of zero and ordinary blocks: only its own
        # block turns NaN, whatever the other blocks take
        m = np.zeros((4, 4, 3, 3))
        m[0, 0] = np.diag([1.0, 2.0, -3.0])
        m[0, 1] = np.diag([1e-95, 0.0, -1e-95])  # off-scale, redone by LAPACK
        m[1, 2, 0, 1] = m[1, 2, 1, 0] = bad
        lam = eigvals_traceless_sym3(m)
        assert np.isnan(lam[1, 2]).all()
        assert not np.isnan(np.delete(lam.reshape(16, 3), 6, axis=0)).any()
        assert lam[0, 0] == pytest.approx([-3.0, 1.0, 2.0], abs=1e-14)
        assert lam[0, 1] == pytest.approx([-1e-95, 0.0, 1e-95], abs=1e-109)
        assert (lam[3, 3] == 0.0).all()

    def test_sum_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = QTensor3(*rng.normal(size=5))
            assert abs(eigenvalues(q).sum()) < 1e-12


class TestPhysicalInterval:
    def test_2d(self):
        iv = physical_interval(params(a=-1.0, c=1.0), 2)
        assert (iv.lo, iv.hi) == pytest.approx((-0.7071067811865476, 0.7071067811865476))

    def test_3d(self):
        iv = physical_interval(params(a=-1.0, b=3.0, c=1.0), 3)
        # (3 + sqrt(33))/12 and (3 + sqrt(33))/6
        root = 3.0 + math.sqrt(33.0)
        assert (iv.lo, iv.hi) == pytest.approx((-root / 12.0, root / 6.0))

    def test_degenerate_radius_rejected(self):
        with pytest.raises(ValueError, match="empty physicality radius"):
            physical_interval(params(a=0.0, c=1.0), 2)

    def test_3d_requires_a_restriction(self):
        with pytest.raises(ValueError):
            physical_interval(params(a=-4.0, b=3.0, c=1.0), 3)

    def test_unit_preset(self):
        iv = unit_physicality_interval(3)
        assert (iv.lo, iv.hi) == pytest.approx((-1 / 3, 2 / 3))


class TestIsPhysical:
    def setup_method(self):
        self.iv = PhysicalityInterval(-0.7071067811865476, 0.7071067811865476, 2)

    def test_zero(self):
        assert is_physical(QTensor2(0.0, 0.0), self.iv)

    def test_inside(self):
        assert is_physical(QTensor2(0.6, 0.0), self.iv)

    def test_outside(self):
        assert not is_physical(QTensor2(0.8, 0.0), self.iv)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            is_physical(QTensor3(0.1, 0.1, 0.0, 0.0, 0.0), self.iv)


class TestInvariants:
    def test_trace_q3_vanishes_2d(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = QTensor2(*rng.normal(size=2)).matrix()
            assert abs(np.trace(m @ m @ m)) < 1e-14 * max(1.0, np.abs(m).max() ** 3)

    def test_trace_cubed_bound_3d(self):
        # |tr(Q^3)| <= |Q|^3 / sqrt(6) on 1e4 random tensors
        rng = np.random.default_rng(8)
        m = rng.normal(size=(10000, 3, 3))
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        m -= (np.trace(m, axis1=-2, axis2=-1) / 3.0)[:, None, None] * np.eye(3)
        t3 = np.einsum("nij,njk,nki->n", m, m, m)
        nrm = np.sqrt(np.einsum("nij,nij->n", m, m))
        assert np.all(np.abs(t3) <= nrm**3 / math.sqrt(6.0) + 1e-12)

    def test_norm_bound_iff_physical_2d(self):
        # for d=2: |Q| <= sqrt(2) hi iff physical, by sampling
        iv = physical_interval(params(a=-1.0, c=1.0), 2)
        rng = np.random.default_rng(9)
        for _ in range(500):
            q = QTensor2(*rng.normal(size=2))
            bounded = math.sqrt(2.0) * q.h <= math.sqrt(2.0) * iv.hi + 1e-12
            assert bounded == is_physical(q, iv)
