"""Trotter product solver for the simplified flow: heat steps + bulk ODE.

The simplified system (L2+L3 = L4 = 0, or d = 2 with zeta taking the place
of 2 L1) splits into the heat semigroup exp(2 t L1 Lap) acting componentwise
and the pointwise bulk ODE

  dQ/dt = -a Q + b (Q^2 - tr(Q^2)/d I) - c Q tr(Q^2)     (b term absent in 2D).

Whole space is modeled by a periodic torus; the heat step is a convolution
with a sampled Gaussian truncated at six standard deviations and
renormalized, so its weights are nonnegative and sum to one exactly.  That
makes every heat step a convex combination of grid values, which is the
certificate behind hull preservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .energy import LdGParams
from .qtensor import QTensor2, QTensor3, eigvals_traceless_sym3

# Kernel truncation radius in standard deviations.
KERNEL_TRUNCATION_SIGMAS = 6.0

# Bulk ODE substeps keep dt * (|a| + b|Q| + c|Q|^2) below this.
BULK_RATE_CAP = 0.1


@dataclass
class PeriodicField:
    """n x n periodic grid of d x d symmetric traceless tensors."""

    data: np.ndarray
    h: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 4 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("data must have shape (n, n, d, d)")
        d = self.data.shape[2]
        if self.data.shape[3] != d or d not in (2, 3):
            raise ValueError("tensor blocks must be 2x2 or 3x3")
        if self.h <= 0.0:
            raise ValueError("spacing must be positive")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    @property
    def period(self) -> float:
        return self.n * self.h

    def copy(self) -> "PeriodicField":
        return PeriodicField(self.data.copy(), self.h)

    @classmethod
    def constant(cls, n: int, h: float, Q) -> "PeriodicField":
        m = Q.matrix() if isinstance(Q, (QTensor2, QTensor3)) else np.asarray(Q, float)
        return cls(np.tile(m, (n, n, 1, 1)), h)

    def frobenius(self) -> np.ndarray:
        return np.sqrt(np.einsum("xyij,xyij->xy", self.data, self.data))

    def eigenvalues(self) -> np.ndarray:
        """Per-cell eigenvalues, ascending along the last axis."""
        if self.dim == 2:
            p = self.data[..., 0, 0]
            q = self.data[..., 0, 1]
            lam = np.sqrt(p * p + q * q)
            return np.stack([-lam, lam], axis=-1)
        return eigvals_traceless_sym3(self.data)


@dataclass(frozen=True)
class HullBounds:
    lambda_min: float
    lambda_max: float
    per_index: np.ndarray  # (d, 2): min/max over the grid of each sorted eigenvalue

    def within(self, other: "HullBounds", tol: float) -> bool:
        return self.lambda_min >= other.lambda_min - tol and self.lambda_max <= other.lambda_max + tol


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (lambda1, lambda2) of a diagonal 3D state; the third is
    -(lambda1+lambda2)."""

    lambda1: float
    lambda2: float


def hull_bounds(field: PeriodicField) -> HullBounds:
    lam = field.eigenvalues()
    # one reduction per eigenvalue plane: numpy reduces an (n, n, d) block
    # over its first two axes in inner loops of length d, ~25x slower
    per_index = np.array([[lam[..., k].min(), lam[..., k].max()] for k in range(field.dim)])
    return HullBounds(
        lambda_min=float(per_index[:, 0].min()), lambda_max=float(per_index[:, 1].max()),
        per_index=per_index,
    )


def heat_kernel_weights(dt: float, L1: float, h: float, n: int) -> np.ndarray:
    """1D weights of the periodized sampled Gaussian matching exp(2 dt L1 Lap).

    Per-axis variance is 4 L1 dt; the kernel is truncated at 6 sigma and
    renormalized to sum exactly to one (all weights nonnegative).  Rejects
    steps whose kernel support would exceed the period.
    """
    if dt <= 0.0 or L1 <= 0.0:
        raise ValueError("heat step needs dt > 0 and L1 > 0")
    sigma2 = 4.0 * L1 * dt
    half = int(math.ceil(KERNEL_TRUNCATION_SIGMAS * math.sqrt(sigma2) / h))
    if 2 * half + 1 > n:
        raise ValueError(
            f"kernel support {2 * half + 1} exceeds the period ({n} cells); reduce dt"
        )
    k = np.arange(-half, half + 1, dtype=float)
    w = np.exp(-(k * h) ** 2 / (2.0 * sigma2))
    return w / w.sum()


# Index pairs (i, j), i <= j, of the entries of a symmetric d x d tensor,
# diagonal first; _FREE leaves out the last diagonal entry, which is minus
# the sum of the others in a traceless tensor.
_PAIRS = {2: ((0, 0), (1, 1), (0, 1)), 3: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))}
_FREE = {2: ((0, 0), (0, 1)), 3: ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))}


def heat_step(field: PeriodicField, dt: float, L1: float) -> PeriodicField:
    """Componentwise periodic convolution with the Gaussian kernel.

    Only the independent components are convolved; the result is rebuilt
    exactly symmetric and traceless."""
    w = heat_kernel_weights(dt, L1, field.h, field.n)
    d = field.dim
    free = _FREE[d]
    # planes[c, y, x] = data[x, y, j, i]: convolve along x, then along y
    planes = np.stack([field.data.T[i, j] for i, j in free])
    planes = convolve1d(planes, w, axis=2, mode="wrap")
    planes = convolve1d(planes, w, axis=1, mode="wrap")
    out = np.empty(field.data.shape, order="F")
    o = out.T
    for (i, j), plane in zip(free, planes):
        o[i, j] = o[j, i] = plane
    o[d - 1, d - 1] = -planes[: d - 1].sum(axis=0)
    return PeriodicField(out, field.h)


def _as_matrix_batch(Q, d):
    if isinstance(Q, (QTensor2, QTensor3)):
        return Q.matrix(), "tensor"
    arr = np.asarray(Q, dtype=float)
    if arr.shape[-2:] != (d, d):
        raise ValueError(f"expected trailing {d}x{d} blocks")
    return arr, "array"


def bulk_ode_rhs(Q: np.ndarray, params: LdGParams, d: int) -> np.ndarray:
    """-a Q + b (Q^2 - tr(Q^2)/d I) - c Q tr(Q^2); b dropped for d = 2 where
    the matrix combination vanishes structurally (tr(Q^3) = 0).

    One formula on the entries q[i][j] = Q[..., j, i], i <= j: Python floats
    for a single matrix, planes over the leading axes for a batch.  The
    result is exactly symmetric and in Fortran order (contiguous planes)."""
    Q = np.asarray(Q, dtype=float)
    q = Q.T.tolist() if Q.ndim == 2 else Q.T
    pairs = _PAIRS[d]
    x = [q[i][j] for i, j in pairs]
    # diagonal of Q^2, whose sum is tr(Q^2)
    if d == 2:
        q11, q22, q12 = x
        s12 = q12 * q12
        diag = [q11 * q11 + s12, s12 + q22 * q22]
    else:
        q11, q22, q33, q12, q13, q23 = x
        s12, s13, s23 = q12 * q12, q13 * q13, q23 * q23
        diag = [q11 * q11 + s12 + s13, s12 + q22 * q22 + s23, s13 + s23 + q33 * q33]
    t2 = sum(diag[1:], diag[0])
    s = -params.a - params.c * t2
    rhs = [s * v for v in x]
    if d == 3 and params.b != 0.0:
        t3 = t2 / 3.0
        # Q^2 - tr(Q^2)/3 I on the same entries
        dev = [p - t3 for p in diag] + [
            q12 * (q11 + q22) + q13 * q23,
            q13 * (q11 + q33) + q12 * q23,
            q23 * (q22 + q33) + q12 * q13,
        ]
        rhs = [v + params.b * w for v, w in zip(rhs, dev)]
    out = np.empty(Q.shape, order="F")
    o = out.T
    for (i, j), v in zip(pairs, rhs):
        o[i, j] = o[j, i] = v
    return out


def bulk_ode_step(Q, dt: float, params: LdGParams, d: int) -> "QTensor2 | QTensor3 | np.ndarray":
    """RK4 step of the bulk ODE; symmetry and tracelessness are preserved
    structurally.  Substeps keep dt (|a| + b|Q| + c|Q|^2) <= 0.1."""
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    arr, kind = _as_matrix_batch(Q, d)
    nrm = float(np.sqrt(np.einsum("...ij,...ij->...", arr, arr).max())) if arr.size else 0.0
    rate = abs(params.a) + params.b * nrm + params.c * nrm * nrm
    nsub = max(1, int(math.ceil(dt * rate / BULK_RATE_CAP)))
    hsub = dt / nsub
    # every stage then keeps the Fortran order of bulk_ode_rhs
    out = np.asfortranarray(arr)
    for _ in range(nsub):
        k1 = bulk_ode_rhs(out, params, d)
        k2 = bulk_ode_rhs(out + 0.5 * hsub * k1, params, d)
        k3 = bulk_ode_rhs(out + 0.5 * hsub * k2, params, d)
        k4 = bulk_ode_rhs(out + hsub * k3, params, d)
        out = out + hsub / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if kind == "tensor":
        if d == 2:
            return QTensor2(p=float(out[0, 0]), q=float(out[0, 1]))
        return QTensor3.from_matrix(out)
    return out


def eigen_ode_rhs(pair: EigenPair, params: LdGParams):
    """RHS of the two-eigenvalue system of the diagonal 3D bulk ODE; the pair
    may hold floats or arrays of one shape."""
    u1, u2 = pair.lambda1, pair.lambda2
    s11, s22, s12 = u1 * u1, u2 * u2, u1 * u2
    common = 2.0 * params.c * (s11 + s22 + s12) + params.a
    d1 = -u1 * common + params.b * (s11 - 2.0 * s22 - 2.0 * s12) / 3.0
    d2 = -u2 * common + params.b * (s22 - 2.0 * s11 - 2.0 * s12) / 3.0
    return d1, d2


def eigen_ode_integrate(lambda1, lambda2, params: LdGParams, T: float,
                        rate_cap: float = BULK_RATE_CAP):
    """Vectorized RK4 integration of the eigenvalue system to time T."""
    l1 = np.asarray(lambda1, dtype=float).copy()
    l2 = np.asarray(lambda2, dtype=float).copy()

    nrm = float(max(np.abs(l1).max(), np.abs(l2).max(), 1e-12)) * math.sqrt(6.0)
    rate = abs(params.a) + params.b * nrm + params.c * nrm * nrm
    nsub = max(1, int(math.ceil(T * rate / rate_cap)))
    h = T / nsub
    for _ in range(nsub):
        a1, a2 = eigen_ode_rhs(EigenPair(l1, l2), params)
        b1, b2 = eigen_ode_rhs(EigenPair(l1 + 0.5 * h * a1, l2 + 0.5 * h * a2), params)
        c1, c2 = eigen_ode_rhs(EigenPair(l1 + 0.5 * h * b1, l2 + 0.5 * h * b2), params)
        d1, d2 = eigen_ode_rhs(EigenPair(l1 + h * c1, l2 + h * c2), params)
        l1 = l1 + h / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        l2 = l2 + h / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    return l1, l2


@dataclass
class TrotterResult:
    field: PeriodicField
    hulls: list  # HullBounds after every half-substep (ODE, then heat)


def trotter_solve(field0: PeriodicField, T: float, n: int, params: LdGParams) -> TrotterResult:
    """(heat(T/n) o bulk_ode(T/n))^n with hull bounds recorded after every
    half-substep.

    Requires the simplified flow: L4 = 0 always, and L2+L3 = 0 for 3x3
    tensors; for 2x2 tensors zeta/2 stands in for L1 so the heat step
    matches exp(t zeta Lap).
    """
    if n < 1:
        raise ValueError("need n >= 1 substeps")
    if params.L4 != 0.0:
        raise ValueError("Trotter splitting requires L4 = 0")
    d = field0.dim
    if d == 3:
        if params.L2 + params.L3 != 0.0:
            raise ValueError("3D Trotter splitting requires L2 + L3 = 0")
        L1_eff = params.L1
    else:
        L1_eff = 0.5 * params.zeta
    if L1_eff <= 0.0:
        raise ValueError("heat coefficient must be positive")
    dt = T / n
    fld = field0.copy()
    hulls = [hull_bounds(fld)]
    for _ in range(n):
        fld = PeriodicField(bulk_ode_step(fld.data, dt, params, d), fld.h)
        hulls.append(hull_bounds(fld))
        fld = heat_step(fld, dt, L1_eff)
        hulls.append(hull_bounds(fld))
    return TrotterResult(field=fld, hulls=hulls)


def field_l2_distance(f1: PeriodicField, f2: PeriodicField) -> float:
    diff = f1.data - f2.data
    return float(np.sqrt(np.einsum("xyij,xyij->", diff, diff) * f1.h * f1.h))


def trace_ode_closed_form_2d(y0: float, a: float, c: float, t):
    """Exact solution of y' = -2 a y - 2 c y^2 (y = |Q|^2 of the 2D bulk ODE).

    a != 0: y = a y0 e^{-2at} / (a + c y0 (1 - e^{-2at})); a = 0:
    y = y0 / (1 + 2 c y0 t).
    """
    if y0 < 0.0:
        raise ValueError("y0 must be >= 0")
    if c <= 0.0:
        raise ValueError("c must be > 0")
    t = np.asarray(t, dtype=float)
    if a == 0.0:
        return y0 / (1.0 + 2.0 * c * y0 * t)
    e = np.exp(-2.0 * a * t)
    return a * y0 * e / (a + c * y0 * (1.0 - e))


def stationary_pair(params: LdGParams) -> EigenPair:
    """(-s+/3, 2 s+/3) with s+ = (b + sqrt(b^2 - 24 a c))/(4c); a stationary
    point of the eigenvalue system."""
    disc = params.b**2 - 24.0 * params.a * params.c
    if disc < 0.0:
        raise ValueError("b^2 - 24ac < 0: s+ is not real")
    s_plus = (params.b + math.sqrt(disc)) / (4.0 * params.c)
    return EigenPair(lambda1=-s_plus / 3.0, lambda2=2.0 * s_plus / 3.0)


def make_smooth_physical_field(n: int, h: float, params: LdGParams, d: int,
                               seed: int = 0, kmax: int = 3,
                               margin: float = 0.7) -> PeriodicField:
    """Random smooth periodic field scaled so all eigenvalues sit inside the
    physical interval with the given margin."""
    from .qtensor import physical_interval

    rng = np.random.default_rng(seed)
    xs = np.arange(n) * (2.0 * np.pi / n)
    comps = np.zeros((n, n, d, d))
    for _ in range(kmax):
        kx, ky = rng.integers(1, kmax + 1, size=2)
        phase_x, phase_y = rng.uniform(0, 2 * np.pi, size=2)
        mode = np.cos(kx * xs[:, None] + phase_x) * np.cos(ky * xs[None, :] + phase_y)
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        m -= np.trace(m) / d * np.eye(d)
        comps += mode[..., None, None] * m
    field = PeriodicField(comps, h)
    interval = physical_interval(params, d)
    cap = margin * min(-interval.lo, interval.hi)
    lam = field.eigenvalues()
    peak = float(np.abs(lam).max())
    if peak > 0:
        field = PeriodicField(comps * (cap / peak), h)
    return field


def make_hull_spanning_field(n: int, h: float, params: LdGParams, seed: int = 0) -> PeriodicField:
    """Smooth 3x3 physical field whose eigenvalue range spans the whole
    physical interval.

    A smooth bump blends the field into the extremal uniaxial state
    diag(-s+/3, -s+/3, 2s+/3), whose eigenvalues sit exactly at both
    interval endpoints, so the initial hull bounds equal the invariant
    interval itself.  Convexity of the largest eigenvalue keeps the blend
    physical everywhere.
    """
    from .qtensor import physical_interval

    base = make_smooth_physical_field(n, h, params, 3, seed=seed, margin=0.6)
    pair = stationary_pair(params)
    extremal = np.diag([pair.lambda1, pair.lambda1, -2.0 * pair.lambda1])
    xs = np.arange(n)
    # cos^2 bump equal to 1 exactly at the grid node (n//2, n//2)
    cx = np.where(np.abs(xs - n // 2) <= n // 4, np.cos(np.pi * (xs - n // 2) / (n // 2)) ** 2, 0.0)
    chi = cx[:, None] * cx[None, :]
    data = (1.0 - chi)[..., None, None] * base.data + chi[..., None, None] * extremal
    field = PeriodicField(data, h)
    interval = physical_interval(params, 3)
    hb = hull_bounds(field)
    assert hb.lambda_min >= interval.lo - 1e-12 and hb.lambda_max <= interval.hi + 1e-12
    return field
