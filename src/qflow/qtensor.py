"""Symmetric traceless tensor values in 2D and 3D.

A 2x2 traceless symmetric tensor is stored as the pair (p, q) with matrix
[[p, q], [q, -p]]; a 3x3 one stores its five independent entries, the (3,3)
entry being -(Q11+Q22).  Eigenvalues are closed-form in both cases, which
keeps the physicality tests branch-free and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .energy import LdGParams

# Absolute slack on eigenvalue-interval membership; separates discretization
# drift from a genuine violation.
PHYSICALITY_TOL = 1e-10


@dataclass(frozen=True)
class QTensor2:
    """2x2 symmetric traceless tensor [[p, q], [q, -p]]."""

    p: float
    q: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.p, self.q], [self.q, -self.p]], dtype=float)

    @property
    def h(self) -> float:
        """sqrt(p^2 + q^2); the Frobenius norm is sqrt(2)*h."""
        return math.hypot(self.p, self.q)


@dataclass(frozen=True)
class QTensor3:
    """3x3 symmetric traceless tensor; q33 = -(q11 + q22) by construction."""

    q11: float
    q22: float
    q12: float
    q13: float
    q23: float

    def matrix(self) -> np.ndarray:
        q33 = -(self.q11 + self.q22)
        return np.array(
            [
                [self.q11, self.q12, self.q13],
                [self.q12, self.q22, self.q23],
                [self.q13, self.q23, q33],
            ],
            dtype=float,
        )


QTensor = Union[QTensor2, QTensor3]


@dataclass(frozen=True)
class PhysicalityInterval:
    """Eigenvalue interval [lo, hi] defining physical states in dimension dim."""

    lo: float
    hi: float
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if not self.lo < self.hi:
            raise ValueError("empty physicality interval: lo must be < hi")
        if self.dim == 2 and abs(self.lo + self.hi) > 1e-12 * max(abs(self.lo), abs(self.hi)):
            raise ValueError("2D physicality interval must be symmetric about 0")


def _dim(Q: QTensor) -> int:
    return 2 if isinstance(Q, QTensor2) else 3


def traceless_j2(mt: np.ndarray) -> np.ndarray:
    """J2 = tr(m^2)/2 of traceless symmetric 3x3 matrices, read from the
    lower triangle: mt[i, j] (i <= j) holds the entry m[..., j, i], as the
    planes of m.T do.  Overflows to inf for entries beyond ~1e154."""
    a, b, c = mt[0, 0], mt[1, 1], mt[2, 2]
    d, e, f = mt[0, 1], mt[0, 2], mt[1, 2]
    return 0.5 * (a * a + b * b + c * c) + (d * d + e * e + f * f)


def eigvals_traceless_sym3(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of traceless symmetric 3x3 matrices, ascending.

    Works on a single matrix or an array of shape (..., 3, 3), reading the
    lower triangle as LAPACK's eigvalsh does.  Uses the trigonometric
    solution of lambda^3 - J2 lambda - J3 = 0 with J2 = tr(m^2)/2 and
    J3 = det(m) by cofactor expansion, which is exact for tr(m) = 0, involves
    no iteration and scales exactly with m by a power of two.  With theta in
    [0, pi/3], the roots 2u cos(theta - 2 pi k / 3) ascend for k = 2, 1, 0.
    Near a double root the closed form loses half the digits (sqrt(eps)
    spread of the clustered pair), so those rare entries, including a pair
    that rounding put out of order, are recomputed with the LAPACK symmetric
    solver to keep hull certificates valid at 1e-8 tolerances, and so are
    nonzero matrices whose scale puts u**3 or det(m) outside the normal
    float range.  A matrix with an inf or NaN entry gets NaN eigenvalues.
    """
    m = np.asarray(m, dtype=float)
    # the entries as planes of m.T, contiguous when m is in Fortran order
    mt = m.T
    a, b, c = mt[0, 0], mt[1, 1], mt[2, 2]
    d, e, f = mt[0, 1], mt[0, 2], mt[1, 2]
    # overflow only hits matrices outside the scale range recomputed below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        j2 = traceless_j2(mt)
        j3 = a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e)
        u = np.sqrt(np.maximum(j2, 0.0) / 3.0)
        # cos(3 theta) = J3 / (2 u^3); clip guards roundoff at the extremal cases
        arg = np.where(u > 0.0, j3 / np.maximum(2.0 * u**3, 1e-300), 0.0)
        theta = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
        two_u = np.where(u > 0.0, 2.0 * u, 0.0)
        lam = np.empty((3,) + np.shape(u))
        for i, k in enumerate((2, 1, 0)):
            # + 0.0 turns the -0.0 of a zero matrix into 0.0
            lam[i] = two_u * np.cos(theta - 2.0 * np.pi * k / 3.0) + 0.0
        lam, u = lam.T, u.T
        gap = np.minimum(lam[..., 1] - lam[..., 0], lam[..., 2] - lam[..., 1])
    near_double = (gap < 1e-4 * u) & (u > 0.0)
    # u**3 and det(m) leave the normal float range unless 1e-90 <= u <= 1e90
    # (u even underflows to 0 for a nonzero m below ~1e-154), so finite
    # nonzero matrices of such a scale are recomputed too; an inf or NaN
    # entry makes u inf or NaN, and its eigenvalues NaN
    off_scale = ~((u >= 1e-90) & (u <= 1e90))
    if np.any(off_scale):
        amax = np.abs(m).max(axis=(-2, -1))
        finite = amax < np.inf
        off_scale &= (amax > 0.0) & finite
        lam = np.where(finite[..., None], lam, np.nan)
    redo = near_double | off_scale
    if np.any(redo):
        if lam.ndim == 1:
            return np.linalg.eigvalsh(m)
        lam[redo] = np.linalg.eigvalsh(m[redo])
    return lam


def eigenvalues(Q: QTensor) -> np.ndarray:
    """Eigenvalues sorted ascending.

    QTensor2: exactly (-sqrt(p^2+q^2), +sqrt(p^2+q^2)).  QTensor3: the three
    real roots of the characteristic polynomial; they sum to zero.
    """
    if isinstance(Q, QTensor2):
        lam = math.hypot(Q.p, Q.q)
        return np.array([-lam, lam])
    return eigvals_traceless_sym3(Q.matrix())


def physical_interval(params: "LdGParams", d: int) -> PhysicalityInterval:
    """Invariant eigenvalue interval for the bulk flow in dimension d.

    d = 2: [-sqrt(|a|/2c), +sqrt(|a|/2c)].
    d = 3: [-(b + sqrt(b^2-24ac))/(12c), (b + sqrt(b^2-24ac))/(6c)],
    requiring b > 0, b^2 - 24ac >= 0 and |a| < b^2/(3c).
    """
    a, b, c = params.a, params.b, params.c
    if c <= 0:
        raise ValueError("physicality interval requires c > 0")
    if d == 2:
        radius = math.sqrt(abs(a) / (2.0 * c))
        if radius == 0.0:
            raise ValueError("empty physicality radius (a = 0 gives a degenerate interval)")
        return PhysicalityInterval(lo=-radius, hi=radius, dim=2)
    if d == 3:
        if b <= 0:
            raise ValueError("3D physicality interval requires b > 0")
        if abs(a) >= b * b / (3.0 * c):
            raise ValueError("3D physicality interval requires |a| < b^2/(3c)")
        disc = b * b - 24.0 * a * c
        if disc < 0:
            raise ValueError("b^2 - 24ac < 0: interval endpoints are not real")
        root = b + math.sqrt(disc)
        return PhysicalityInterval(lo=-root / (12.0 * c), hi=root / (6.0 * c), dim=3)
    raise ValueError("d must be 2 or 3")


def unit_physicality_interval(d: int) -> PhysicalityInterval:
    """The normalized preset (-1/d, 1-1/d).

    Offered alongside physical_interval; no equivalence between the two is
    asserted anywhere.
    """
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    return PhysicalityInterval(lo=-1.0 / d, hi=1.0 - 1.0 / d, dim=d)


def is_physical(Q: QTensor, interval: PhysicalityInterval) -> bool:
    """True iff every eigenvalue of Q lies in [lo - tol, hi + tol]."""
    if _dim(Q) != interval.dim:
        raise ValueError("tensor dimension does not match interval.dim")
    lam = eigenvalues(Q)
    return bool(
        lam[0] >= interval.lo - PHYSICALITY_TOL and lam[-1] <= interval.hi + PHYSICALITY_TOL
    )
