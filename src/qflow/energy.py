"""Landau-de Gennes energy densities and the constants derived from them.

The elastic density carries four constants L1..L4; the quadratic part is
coercive in 2D iff L1+L2 > 0 and L1+L3 > 0, with modulus
nu = min(L1+L2, L1+L3).  The cubic L4 term makes the total energy unbounded
below; the smallness thresholds eta1 and eta2 quantify how small the field
must stay for the coercive part to dominate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qtensor import QTensor, QTensor2, QTensor3


@dataclass(frozen=True)
class LdGParams:
    """Bulk coefficients a, b, c and elastic coefficients L1..L4.

    C1 is the interpolation constant entering eta2.  It is a configuration
    input (default 1.0): only its existence is guaranteed, no closed form,
    so every eta2 we report is C1-conditional.
    """

    a: float
    b: float
    c: float
    L1: float
    L2: float
    L3: float
    L4: float
    C1: float = 1.0

    @property
    def zeta(self) -> float:
        return 2.0 * self.L1 + self.L2 + self.L3

    @property
    def nu(self) -> float:
        return min(self.L1 + self.L2, self.L1 + self.L3)

    def is_coercive(self) -> bool:
        return self.L1 + self.L2 > 0.0 and self.L1 + self.L3 > 0.0

    def validate(self, strict: bool = True) -> None:
        """Check the bulk assumptions (b >= 0, c > 0) and, when strict,
        2D coercivity of the quadratic elastic part."""
        if self.b < 0.0:
            raise ValueError("bulk assumption violated: b must be >= 0")
        if self.c <= 0.0:
            raise ValueError("bulk assumption violated: c must be > 0")
        if self.C1 <= 0.0:
            raise ValueError("interpolation constant C1 must be > 0")
        if strict and not self.is_coercive():
            raise ValueError("coercivity violated: need L1+L2 > 0 and L1+L3 > 0")


@dataclass(frozen=True)
class DerivedConstants:
    zeta: float
    nu: float
    eta1: float
    eta2: float


@dataclass(frozen=True)
class OseenFrankConstants:
    K1: float
    K3: float
    s: float


def derived_constants(params: LdGParams, strict: bool = True) -> DerivedConstants:
    """zeta, nu and the smallness thresholds eta1, eta2.

    eta1 = zeta^2 / ((1+4*sqrt(2))^2 L4^2) and
    eta2 = (1/60) min(nu^2/(8 L4^2), zeta^2/(144 L4^2 C1^2), eta1).
    A quotient over 0 (L4 = 0, or L4^2 underflowing) is +inf.
    """
    params.validate(strict=strict)
    zeta, nu = params.zeta, params.nu

    def over(num, den):
        return num / den if den != 0.0 else math.inf
    L4sq = params.L4 * params.L4
    eta1 = over(zeta * zeta, (1.0 + 4.0 * math.sqrt(2.0)) ** 2 * L4sq)
    eta2 = (
        min(
            over(nu * nu, 8.0 * L4sq),
            over(zeta * zeta, 144.0 * L4sq * params.C1 * params.C1),
            eta1,
        )
        / 60.0
    )
    return DerivedConstants(zeta=zeta, nu=nu, eta1=eta1, eta2=eta2)


def elastic_matrix(params: LdGParams) -> np.ndarray:
    """The 4x4 matrix B of the quadratic elastic form in the variables
    chi = (d1 p, d2 p, d1 q, d2 q)."""
    z = params.zeta
    w = params.L3 - params.L2
    return np.array(
        [
            [z, 0.0, 0.0, w],
            [0.0, z, -w, 0.0],
            [0.0, -w, z, 0.0],
            [w, 0.0, 0.0, z],
        ]
    )


def elastic_matrix_eigenvalues(params: LdGParams) -> np.ndarray:
    """Spectrum of B, ascending: {2(L1+L2) x2, 2(L1+L3) x2}."""
    return np.sort(np.linalg.eigvalsh(elastic_matrix(params)))


def _matrix(Q) -> np.ndarray:
    return Q.matrix() if isinstance(Q, (QTensor2, QTensor3)) else np.asarray(Q, dtype=float)


def _traces(Q, d):
    m = _matrix(Q)
    if d is not None and m.shape != (d, d):
        raise ValueError(f"tensor dimension {m.shape} does not match d={d}")
    t2 = float(np.sum(m * m))
    t3 = float(np.trace(m @ m @ m))
    return t2, t3, m


def bulk_from_traces(t2, params: LdGParams, t3=None):
    """The bulk density (a/2) t2 - (b/3) t3 + (c/4) t2^2 of t2 = tr(Q^2) and
    t3 = tr(Q^3), scalars or arrays; t3 = None drops the b term.

    For a 2x2 Q, t2 = 2 h2 with h2 = p^2 + q^2 gives a h2 + c h2^2 bit for
    bit: the factors 2, 1/2 and 1/4 are powers of two.
    """
    val = 0.25 * params.c * t2
    val *= t2
    val += 0.5 * params.a * t2
    return val if t3 is None else val - params.b * t3 / 3.0


def bulk_density(Q, params: LdGParams, d: int | None = None) -> float:
    """(a/2) tr(Q^2) - (b/3) tr(Q^3) + (c/4) tr^2(Q^2).

    For 2x2 traceless symmetric Q, tr(Q^3) = 0 identically, so the b term is
    dropped and the value does not depend on b at all.
    """
    t2, t3, m = _traces(Q, d)
    return bulk_from_traces(t2, params, None if m.shape[0] == 2 else t3)


def elastic_density(Q, gradQ, params: LdGParams) -> float:
    """Pointwise elastic density with Einstein summation.

    L1 |grad Q|^2 + L2 djQik dkQij + L3 djQij dkQik + L4 Qlk dkQij dlQij.
    gradQ[k, i, j] holds the derivative of Q_ij along x_k and must be
    symmetric traceless in (i, j).
    """
    m = _matrix(Q)
    g = np.asarray(gradQ, dtype=float)
    d = m.shape[0]
    if g.shape != (d, d, d):
        raise ValueError(f"gradQ must have shape {(d, d, d)}")
    val = params.L1 * float(np.einsum("kij,kij->", g, g))
    val += params.L2 * float(np.einsum("jik,kij->", g, g))
    div = np.einsum("jij->i", g)
    val += params.L3 * float(div @ div)
    val += params.L4 * float(np.einsum("lk,kij,lij->", m, g, g))
    return val


def trapezoid(f: np.ndarray, d) -> np.ndarray:
    """Trapezoid sum of f along its last axis with spacing d (a scalar, or
    the spacings np.diff of the nodes): np.trapezoid's expression, without
    its argument handling, formed in one array."""
    s = f[..., 1:] + f[..., :-1]
    s *= d
    s *= 0.5  # the bits of s / 2.0: both round the real s / 2
    return s.sum(-1)


def total_energy(field, params: LdGParams) -> float:
    """Trapezoidal quadrature of bulk + elastic density over a Field2D.

    Gradients are central differences in the interior and one-sided
    second-order at the boundary ring (numpy.gradient, edge_order=2).  This
    is the O(h^2) estimator of the continuum energy; the time traces use the
    scheme-matched discrete form from the solver module instead.
    """
    p, q = field.p, field.q
    hx, hy = field.grid.hx, field.grid.hy
    p1, p2 = np.gradient(p, hx, hy, edge_order=2)
    q1, q2 = np.gradient(q, hx, hy, edge_order=2)
    dens = params.zeta * (p1 * p1 + p2 * p2 + q1 * q1 + q2 * q2)
    w = params.L3 - params.L2
    dens += 2.0 * w * p1 * q2 - 2.0 * w * p2 * q1
    if params.L4 != 0.0:
        dens += 2.0 * params.L4 * (
            p * (p1 * p1 + q1 * q1 - p2 * p2 - q2 * q2)
            + 2.0 * q * (p1 * p2 + q1 * q2)
        )
    dens += bulk_from_traces(2.0 * (p * p + q * q), params)
    return float(trapezoid(trapezoid(dens, hy), hx))


def oseen_frank_forward(params: LdGParams, s: float) -> OseenFrankConstants:
    """Splay/bend constants of the reduced director energy.

    K1 = (2L1+L2) s^2 + L3 s^2 - L4 s^3, K3 = (2L1+L2) s^2 + L3 s^2 + L4 s^3.
    K1 = K3 iff L4 = 0: without the cubic term the two constants cannot be
    split.
    """
    if s == 0.0:
        raise ValueError("order parameter s must be nonzero")
    lt1 = 2.0 * params.L1 + params.L2
    base = (lt1 + params.L3) * s * s
    cubic = params.L4 * s**3
    return OseenFrankConstants(K1=base - cubic, K3=base + cubic, s=s)


def oseen_frank_inverse(K1: float, K3: float, s: float) -> tuple[float, float, float]:
    """(Ltilde1, L3, L4) with Ltilde1 = 2L1+L2 reproducing (K1, K3) exactly.

    L3 = K1/s^2, L4 = (K3-K1)/(2 s^3), Ltilde1 = (K3-K1)/(2 s^2).
    """
    if s == 0.0:
        raise ValueError("order parameter s must be nonzero")
    L3 = K1 / (s * s)
    L4 = (K3 - K1) / (2.0 * s**3)
    lt1 = (K3 - K1) / (2.0 * s * s)
    return lt1, L3, L4
