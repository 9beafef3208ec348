"""Hedgehog reduction on an annulus: radial solver and blow-up machinery.

With Q(t,x) = theta(t,|x|) S(x), S_ij = x_i x_j/|x|^2 - delta_ij/2, the 2D
flow reduces to

  dtheta/dt = L4 (theta'^2/2 + theta theta'/r + theta theta'' + 6 theta^2/r^2)
              + zeta theta'' + zeta theta'/r - 4 zeta theta/r^2
              - a theta - c theta^3/2.

The quasilinear coefficient of theta'' is zeta + L4 theta: the stepper
treats it implicitly with the coefficient frozen at the current state, which
removes the parabolic step restriction even when |L4 theta| >> zeta.  Only
the regime zeta + L4 theta > 0 is integrable; if the coefficient turns
negative anywhere the run aborts as a numerical failure (locally backward
diffusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .energy import LdGParams, derived_constants, trapezoid
from .pde2d import (STOP_BACKWARD_DIFFUSION, STOP_NONFINITE, STOP_REACHED_T, STOP_SMALL,
                    STOP_THRESHOLD, Field2D, Grid2D, Stop, rhs_pq)

# Blow-up threshold on y = int theta^2 r dr.
BLOWUP_Y_THRESHOLD = 1e6

# Comparison-ODE divergence threshold.
COMPARISON_DIVERGENCE = 1e12

# Per-step relative increment cap for the adaptive radial stepper.
STEP_FRACTION = 0.02


@dataclass
class RadialProfile:
    """theta samples on a uniform grid of [R0, R1], endpoints included.

    The flow's boundary condition theta(R0) = theta(R1) = theta_b >= 0 is
    enforced at flow entry (run_radial, blowup_certificate), not at
    construction, so stencil-only evaluations can use arbitrary profiles.
    """

    R0: float
    R1: float
    nr: int
    theta: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.R0 < self.R1:
            raise ValueError("annulus needs 0 < R0 < R1")
        if self.nr < 3:
            raise ValueError("need at least 3 interior points")
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.nr + 2,):
            raise ValueError(f"theta must have {self.nr + 2} samples")

    def check_boundary(self) -> None:
        tb0, tb1 = self.theta[0], self.theta[-1]
        if abs(tb0 - tb1) > 1e-12 * max(1.0, abs(tb0)):
            raise ValueError("boundary values theta(R0) and theta(R1) must agree")
        if tb0 < 0.0:
            raise ValueError("boundary value theta_b must be >= 0")

    @property
    def dr(self) -> float:
        return (self.R1 - self.R0) / (self.nr + 1)

    @property
    def r(self) -> np.ndarray:
        return np.linspace(self.R0, self.R1, self.nr + 2)

    def copy(self) -> "RadialProfile":
        return RadialProfile(self.R0, self.R1, self.nr, self.theta.copy())

    @classmethod
    def from_function(cls, R0, R1, nr, fn) -> "RadialProfile":
        r = np.linspace(R0, R1, nr + 2)
        return cls(R0, R1, nr, np.asarray(fn(r), dtype=float))

    @classmethod
    def sine_bump(cls, R0, R1, nr, amplitude) -> "RadialProfile":
        """theta(r) = amplitude * sin(pi (r - R0)/(R1 - R0)); zero boundary."""
        return cls.from_function(
            R0, R1, nr, lambda r: amplitude * np.sin(np.pi * (r - R0) / (R1 - R0))
        )


def _rhs_parts(theta, d1, d2, r, r2, zeta_r, half_c, params: LdGParams, *out):
    """The radial RHS expl + D d2 + adv d1 - 4 zeta theta/r^2 from theta and
    its derivatives d1, d2 at the radii r, and its parts (D, adv, expl, rhs).

    D = zeta + L4 theta is the quasilinear diffusivity, adv = zeta/r +
    L4 theta/r and expl = L4 (d1^2/2 + 6 theta^2/r^2) - a theta -
    (c/2) theta^3; the stepper takes D d2 + adv d1 - 4 zeta theta/r^2
    implicitly and expl explicitly.  r2 = r**2, zeta_r = zeta/r and
    half_c = 0.5 c are passed in, so that the stepper forms them once.

    out is (D, adv, expl, rhs, scratch), five float arrays shaped as theta
    that the parts are written into (scratch holds products on the way);
    without it they are allocated.  Each part is computed in the operation
    order of the formula above, one ufunc at a time.
    """
    if not out:
        out = np.empty((5,) + theta.shape)
    D, adv, expl, rhs, tmp = out
    zeta, L4 = params.zeta, params.L4
    np.multiply(L4, theta, out=D)
    np.divide(D, r, out=adv)
    np.add(zeta_r, adv, out=adv)
    np.add(zeta, D, out=D)
    # expl = L4 (0.5 d1 d1 + 6 theta theta / r2) - a theta - half_c (theta theta theta)
    np.multiply(0.5, d1, out=expl)
    np.multiply(expl, d1, out=expl)
    np.multiply(6.0, theta, out=tmp)
    np.multiply(tmp, theta, out=tmp)
    np.divide(tmp, r2, out=tmp)
    np.add(expl, tmp, out=expl)
    np.multiply(L4, expl, out=expl)
    np.multiply(params.a, theta, out=tmp)
    np.subtract(expl, tmp, out=expl)
    np.multiply(theta, theta, out=tmp)
    np.multiply(tmp, theta, out=tmp)
    np.multiply(half_c, tmp, out=tmp)
    np.subtract(expl, tmp, out=expl)
    # rhs = expl + D d2 + adv d1 - 4 zeta theta / r2
    np.multiply(D, d2, out=rhs)
    np.add(expl, rhs, out=rhs)
    np.multiply(adv, d1, out=tmp)
    np.add(rhs, tmp, out=rhs)
    np.multiply(4.0 * zeta, theta, out=tmp)
    np.divide(tmp, r2, out=tmp)
    np.subtract(rhs, tmp, out=rhs)
    return D, adv, expl, rhs


def theta_rhs(profile: RadialProfile, params: LdGParams) -> np.ndarray:
    """dtheta/dt on interior points with central differences: the bits of
    the RHS the stepper evaluates on the same profile."""
    if params.zeta <= 0.0:
        raise ValueError("radial flow needs zeta > 0")
    th = profile.theta
    dr = profile.dr
    d1 = (th[2:] - th[:-2]) / (2.0 * dr)
    d2 = (th[2:] - 2.0 * th[1:-1] + th[:-2]) / (dr * dr)
    r = profile.r[1:-1]
    return _rhs_parts(th[1:-1], d1, d2, r, r**2, params.zeta / r, 0.5 * params.c, params)[3]


def _signed_part(theta: np.ndarray, L4: float) -> np.ndarray:
    # theta_minus for L4 < 0, theta_plus for L4 > 0
    if L4 < 0.0:
        return np.maximum(-theta, 0.0)
    return np.maximum(theta, 0.0)


def criterion_value(R0: float, R1: float) -> float:
    return R0 * R0 * math.pi**2 / (9.0 * (R1 - R0) ** 2)


def blowup_functional(profile: RadialProfile, params: LdGParams) -> float:
    """F(0): the monitored functional of the comparison argument, built from
    the signed part matching the sign of L4."""
    r = profile.r
    phi = _signed_part(profile.theta, params.L4)
    dphi = np.gradient(phi, r, edge_order=2)
    integrand = (
        -abs(params.L4) * phi * (0.5 * dphi * dphi - 2.0 * phi * phi / (r * r))
        - params.zeta * (0.5 * dphi * dphi + 2.0 * phi * phi / (r * r))
        - 0.5 * params.a * phi * phi
        - params.c * phi**4 / 8.0
    )
    return float(trapezoid(integrand * r, np.diff(r)))


@dataclass(frozen=True)
class BlowupCertificate:
    M0: float
    F0: float
    y0: float
    criterion_value: float
    criterion_ok: bool
    predicted_blowup_time: float | None
    conclusive: bool
    reason: str


def blowup_certificate(profile: RadialProfile, params: LdGParams) -> BlowupCertificate:
    """Geometric criterion, M0, F(0) and the fate of the comparison ODE.

    M0 = 2|L4| R0 / sqrt(R1^4 - R0^4) * [pi^2/(9 (R1-R0)^2) - 1/R0^2]; the
    sign-split quantity is theta_minus for L4 < 0 and theta_plus for L4 > 0.
    With M0 > 0 and y0 > 0 the reason says whether the exact comparison
    solution diverges (predicted when it crosses COMPARISON_DIVERGENCE) or
    which bound it keeps; anything else is inconclusive.
    """
    if params.L4 == 0.0:
        raise ValueError("blow-up certificate needs L4 != 0 (no cubic mechanism)")
    profile.check_boundary()
    R0, R1 = profile.R0, profile.R1
    crit = criterion_value(R0, R1)
    bracket = math.pi**2 / (9.0 * (R1 - R0) ** 2) - 1.0 / (R0 * R0)
    M0 = 2.0 * abs(params.L4) * R0 / math.sqrt(R1**4 - R0**4) * bracket
    r = profile.r
    phi = _signed_part(profile.theta, params.L4)
    y0 = float(trapezoid(phi * phi * r, np.diff(r)))
    F0 = blowup_functional(profile, params)
    predicted, reason = None, "inconclusive"
    if M0 > 0.0 and y0 > 0.0:
        y_end, _, t_cross, _ = _comparison_path(M0, params.a, F0, y0)
        if y_end == math.inf:
            predicted, reason = t_cross, "comparison ODE diverges"
        elif y_end > 0.0:
            reason = f"comparison ODE settles at its equilibrium y* = {y_end!r}"
        else:
            reason = "comparison ODE decreases for all t"
    return BlowupCertificate(
        M0=M0, F0=F0, y0=y0, criterion_value=crit, criterion_ok=crit > 1.0,
        predicted_blowup_time=predicted, conclusive=predicted is not None,
        reason=reason,
    )


def _cubic_roots(p: float, q: float):
    """The roots of u^3 + p u + q in closed form, and whether one is double.

    With a double root the roots are (simple, double).  The cubic is first
    scaled by a power of two to |p|, |q| < 1, which is exact.  Three real
    roots come from the trigonometric form, the one of least magnitude from
    the product of the roots instead; otherwise Cardano's A, B give the
    real root as -q / (A^2 - Q + B^2) = A + B, free of cancellation, and
    the complex pair (Numerical Recipes, 5.6).
    """
    if q == 0.0:  # u (u^2 + p)
        s = math.sqrt(-p) if p <= 0.0 else 1j * math.sqrt(p)
        return np.array([0.0, s, -s], dtype=complex), False
    e = math.frexp(max(math.sqrt(abs(p)), float(np.cbrt(abs(q)))))[1]
    p, q = math.ldexp(p, -2 * e), math.ldexp(q, -3 * e)
    Q, R = -p / 3.0, q / 2.0
    d = R * R - Q * Q * Q
    double = d == 0.0
    if d < 0.0:
        sq = math.sqrt(Q)
        phi = math.acos(max(-1.0, min(1.0, R / (Q * sq))))
        u = sorted((-2.0 * sq * math.cos((phi + k * math.pi) / 3.0) for k in (0, 2, -2)), key=abs)
        u[0] = -q / (u[1] * u[2])
    else:
        A = -math.copysign(float(np.cbrt(abs(R) + math.sqrt(d))), R)
        B = Q / A
        x = -q / (A * A - Q + B * B)
        im = 0.5 * math.sqrt(3.0) * (A - B)
        u = [x, -0.5 * x] if double else [x, complex(-0.5 * x, im), complex(-0.5 * x, -im)]
    return np.array(u, dtype=complex) * math.ldexp(1.0, e), double


def _comparison_path(M0: float, a: float, F0: float, y0: float):
    """Classify the solution of y' = 2 G(y), y(0) = y0 >= 0, while y >= 0.

    In u = y^{-1/2}, u' = -R(u) with R(u) = 4 F0 u^3 - |a| u + M0 = G(y) u^3,
    so y diverges exactly when u reaches 0; partial fractions over the roots
    rho of R give t(y) = sum_rho Re[log((u0 - rho)/(u - rho)) / R'(rho)],
    plus c (1/(u - rho) - 1/(u0 - rho)) at a double root.

    Returns (y_end, t_zero, t_cross, elapsed): y moves monotonically toward
    y_end, which is +inf (divergence), the nearest equilibrium 1/rho^2 (y0
    if G(y0) = 0) or 0, reached at t_zero if F0 < 0; from t_cross on, y
    stays above COMPARISON_DIVERGENCE (+inf: never); elapsed(y) is t(y).
    """
    A = abs(a)
    # drop a leading coefficient too small to divide by: it acts only at y < 1e-200
    F0 = F0 if 4.0 * abs(F0) * 1e300 >= max(A, abs(M0)) else 0.0
    A = A if F0 or A * 1e300 >= abs(M0) else 0.0
    s0 = math.sqrt(y0)
    u0 = 1.0 / s0 if y0 > 0.0 else math.inf
    lead = 4.0 * F0 if F0 else -A
    if F0:
        rho, double = _cubic_roots(-A / lead, M0 / lead)
    else:
        rho, double = np.array([M0 / A] if A else [], dtype=complex), False
    if double:  # R = lead (u - rho1) (u - rho2)^2
        r1, r2 = rho.real
        dR = lead * (r1 - r2) ** 2 * np.array([1.0, -1.0])
        pole = 1.0 / (lead * (r2 - r1))
    else:
        # R'(rho_i) = lead * prod_{j != i} (rho_i - rho_j) also holds at near-double roots
        diffs = np.where(np.eye(rho.size, dtype=bool), 1.0, rho[:, None] - rho)
        dR = lead * diffs.prod(axis=1)

    def gap(u):  # log(u - rho) drops out at u = inf: a cubic's 1/R'(rho) sum to 0
        return np.where(u < math.inf, u - rho, 1.0)

    def elapsed(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = 1.0 / np.sqrt(np.asarray(y, dtype=float))
            if rho.size == 0:  # R = M0
                return (u0 - u) / M0
            if M0 == 0.0 and A == 0.0:  # R = 4 F0 u^3 has a triple root
                return (y - y0) / (8.0 * F0)
            t = (np.log(gap(u0) / gap(u[..., None])) / dR).real.sum(axis=-1)
            if double:
                t = t + pole * (1.0 / (u - r2) - 1.0 / (u0 - r2))
            return t

    G0 = (M0 * s0 - A) * y0 + 4.0 * F0
    with np.errstate(over="ignore"):  # an equilibrium past the float range is inf
        sqrt_eq = 1.0 / rho.real[(rho.imag == 0.0) & (rho.real > 0.0)]
    s_end = s0
    if G0 > 0.0:
        s_end = float(min(sqrt_eq[sqrt_eq > s0], default=math.inf))
    elif G0 < 0.0:
        s_end = float(max(sqrt_eq[sqrt_eq < s0], default=0.0))
    y_end = s_end * s_end
    t_zero = float(elapsed(0.0)) if y_end == 0.0 and F0 < 0.0 else math.inf
    t_cross = math.inf
    if y_end > COMPARISON_DIVERGENCE:
        t_cross = float(elapsed(COMPARISON_DIVERGENCE)) if y0 < COMPARISON_DIVERGENCE else 0.0
    return y_end, t_zero, t_cross, elapsed


def comparison_lower_bound(M0: float, a: float, F0: float, y0: float, t):
    """Solve y' = 2 G(y), G(y) = M0 max(y, 0)^{3/2} - |a| y + 4 F0, from
    y(0) = y0 >= 0 exactly and evaluate it at the times t.

    While y > 0, bisection inverts the time map of _comparison_path until
    the midpoint equals an endpoint; once y reaches 0 (F0 < 0) the ODE is
    linear, y' = 2 (-|a| y + 4 F0), and the bound vacuous.  Returns (values,
    crossing time): values are +inf from the time y stays above
    COMPARISON_DIVERGENCE, which is None if that never happens.
    """
    t_eval = np.atleast_1d(np.asarray(t, dtype=float))
    if y0 < 0.0 or np.any(t_eval < 0.0):
        raise ValueError("y0 and the evaluation times must be >= 0")
    y_end, t_zero, t_cross, elapsed = _comparison_path(M0, a, F0, y0)
    # bisect between y0 and a never reached far end; other times start converged
    vals = np.full_like(t_eval, y0)
    moving = (t_eval > 0.0) & (t_eval < min(t_zero, t_cross))
    far = np.where(moving, min(y_end, COMPARISON_DIVERGENCE), y0)
    while True:
        mid = vals + 0.5 * (far - vals)
        live = np.flatnonzero((mid != vals) & (mid != far))
        if live.size == 0:
            break
        before = elapsed(mid[live]) <= t_eval[live]
        vals[live[before]], far[live[~before]] = mid[live[before]], mid[live[~before]]
    late = (t_eval > 0.0) & (t_eval >= t_zero)
    tau = t_eval[late] - t_zero
    x = 2.0 * abs(a) * tau  # y = 8 F0 tau (1 - e^{-x})/x, which is 8 F0 tau at x = 0
    vals[late] = 8.0 * F0 * tau * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)
    vals[t_eval >= t_cross] = np.inf
    crossing = t_cross if t_cross < math.inf else None
    return (float(vals[0]) if np.ndim(t) == 0 else vals), crossing


@dataclass
class RadialTrace:
    """Time series of the radial monitors.

    y = int theta^2 r dr with the sign-split parts y_minus, y_plus; F is the
    comparison functional; rate is the L2(r dr) norm of dtheta/dt; stop
    says why and when the run ended.
    """

    t: np.ndarray
    y: np.ndarray
    y_minus: np.ndarray
    y_plus: np.ndarray
    max_abs_theta: np.ndarray
    F: np.ndarray
    rate: np.ndarray
    stop: Stop


# LAPACK gtsv from scipy, bound by the first solve so that importing qflow
# loads no scipy module
_dgtsv = None


def _load_dgtsv():
    global _dgtsv
    from scipy.linalg.lapack import dgtsv

    _dgtsv = dgtsv
    return dgtsv


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system held in scipy's (1, 1) band layout.

    ab[0, 1:] is the superdiagonal, ab[1] the diagonal and ab[2, :-1] the
    subdiagonal, as for scipy.linalg.solve_banded((1, 1), ab, b), which
    calls the same LAPACK gtsv and returns the same bits; this skips its
    batching and copying layers.  ab and b are overwritten: for float64
    arrays with contiguous rows, the solution is returned in b's memory.
    Raises ValueError if ab or b holds an inf or NaN, as scipy's
    check_finite does, and LinAlgError if the matrix is singular.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    gtsv = _dgtsv if _dgtsv is not None else _load_dgtsv()
    x, info = gtsv(ab[2, :-1], ab[1], ab[0, 1:], b, 1, 1, 1, 1)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


class _Batch(NamedTuple):
    """What one lock-step march gives back.

    outcomes[i] is row i's Stop or the exception that ended it;
    theta[i] is its theta when it stopped.  iterations counts the
    lock-step steps and row_steps the steps summed over the rows.
    """

    outcomes: list
    theta: np.ndarray
    iterations: int
    row_steps: int


def _march(profiles, params: LdGParams, T: float, dt: float, y_threshold: float,
           record=None, theta_small: float = -math.inf) -> _Batch:
    """The adaptive semi-implicit stepper, in lock step over profiles on one grid.

    Every row takes the steps and stops of its own run, bit for bit (README,
    numerical notes).  y = int theta^2 r dr is computed at t = 0 and after
    every accepted step, and record(t, theta, y), if given, is called with
    it; record needs a single profile and must not keep theta, which the
    stepper updates in place.  Without record, y is computed only where
    y <= max theta^2 (R1^2 - R0^2)/2 does not keep it below y_threshold.  A
    step that leaves max|theta| <= theta_small stops the run with
    STOP_SMALL.  A row whose boundary check fails has the ValueError as its
    outcome.
    """
    if params.zeta <= 0.0:
        raise ValueError("radial flow needs zeta > 0")
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("need positive T and dt")
    p0 = profiles[0]
    if any((p.R0, p.R1, p.nr) != (p0.R0, p0.R1, p0.nr) for p in profiles):
        raise ValueError("a lock-step march needs profiles on one grid")
    if record is not None and len(profiles) != 1:
        raise ValueError("record needs a single profile")
    nr, W, m0 = p0.nr, p0.nr + 2, len(profiles)
    dr = p0.dr
    r = p0.r
    dx = np.diff(r)
    zeta = params.zeta
    # The rows are those of th, a C-contiguous (m, W) array, so the
    # interior nodes of all rows are one flat run of m W - 2 entries of
    # th.ravel(); the stencil, the explicit terms and the linear system act
    # on that run, and each row's W - 2 nodes sit at offset k W.  The two
    # ring nodes between rows are computed too and dropped.  Loop
    # invariants per node of the run, for m0 rows (m rows use a prefix):
    # each keeps the operation order of the expression it stands for, so
    # the RHS of every step has the bits of theta_rhs on its row; dr * dr
    # and dr**2 stay apart because libm pow may round differently.
    ri = (r + np.zeros((m0, 1))).ravel()[1:-1]
    ri2 = ri**2
    node_terms = np.array([ri, ri2, zeta / ri, 4.0 * zeta / ri2])
    half_c = 0.5 * params.c
    two_dr = 2.0 * dr
    dr_mul = dr * dr
    dr_pow = dr**2
    # reduceat bounds of the rows' interior segments of the run, with the
    # ring segments between them
    bounds_all = (np.arange(m0)[:, None] * W + np.array([0, nr])).ravel()[:-1]
    # y <= amax^2 * int r dr, with a margin for the rounding of both sums
    amax2_cap = y_threshold / (float(trapezoid(r, dx)) * (1.0 + 1e-9))

    outcomes = [None] * m0
    final = np.array([p.theta for p in profiles], dtype=float)

    live = []
    for i, prof in enumerate(profiles):
        try:
            prof.check_boundary()
        except ValueError as exc:
            outcomes[i] = exc
            continue
        y = float(trapezoid(final[i] * final[i] * r, dx))
        if record is not None:
            record(0.0, final[i], y)
        if y > y_threshold:
            outcomes[i] = Stop(STOP_THRESHOLD, 0.0, 0)
        else:
            live.append(i)

    # Per live row: its profile's index, t, and max|theta| over the row and
    # over its two fixed ends; every live row has taken `steps` steps.
    ids = np.array(live, dtype=np.intp)
    th = final[ids]
    t = np.zeros(ids.size)
    amax = np.abs(th).max(axis=1)
    edge = np.maximum(np.abs(th[:, 0]), np.abs(th[:, -1]))
    alive = np.ones(ids.size, dtype=bool)
    changed = True  # a row stopped since the last compaction
    steps = row_steps = 0

    def halt(k, outcome):
        nonlocal changed
        alive[k] = False
        final[ids[k]] = th[k]
        outcomes[ids[k]] = outcome
        changed = True

    def stop(rows, reason):
        for k in np.flatnonzero(alive & rows):
            halt(k, Stop(reason, float(t[k]), steps))

    def fill():
        # the one-row system of each row, with h = h[k] on its nodes; h is
        # 0 on the ring nodes and so is the coupling of every node pair
        # with a ring node in it (h_pair is minus the pair's smaller h),
        # which leaves a ring node the equation x = theta, uncoupled from
        # its neighbours
        np.copyto(h_in, h[:, None])
        np.minimum(h_run[:-1], h_run[1:], out=h_pair)
        np.negative(h_pair, out=h_pair)
        np.multiply(h_pair, co_up[:-1], out=ab[0, 1:])
        np.multiply(h_run, diag, out=ab[1])
        np.subtract(1.0, ab[1], out=ab[1])
        np.multiply(h_pair, co_down[1:], out=ab[2, :-1])
        np.multiply(h_run, expl, out=b)
        np.add(thi, b, out=b)
        # boundary contributions from the fixed ring values
        np.add(b_first, h * co_down[::W] * th_left, out=b_first)
        np.add(b_last, h * co_up[nr - 1::W] * th_right, out=b_last)

    while True:
        if changed:
            ids, th, t, amax, edge = ids[alive], th[alive], t[alive], amax[alive], edge[alive]
            m = ids.size
            if m == 0:
                break
            alive = np.ones(m, dtype=bool)
            changed = False
            n = m * W - 2
            ri, ri2, zeta_ri, react = node_terms[:, :n]
            bounds = bounds_all[:2 * m - 1]
            # One buffer for the step's linear system over the run, refilled
            # on every step: band rows in scipy's (1, 1) layout, then the
            # right-hand side, which gtsv overwrites with the solution.  Row
            # k's block is the one-row system of its run, and the blocks are
            # uncoupled: gtsv's elimination factor at a block edge is 0/d.
            # (The rows are m W long, so that each is an (m, W) array too,
            # whose first nr columns are the rows' interiors.)
            system = np.zeros((4, m * W))
            ab, b = system[:3, :n], system[3, :n]
            b_first, b_last = b[::W], b[nr - 1::W]
            b_in = system[3].reshape(m, W)[:, :nr]
            # One workspace for the step's per-node arrays over the run,
            # each written in place on every step, and h per node, whose
            # ring entries stay 0.
            work = np.zeros((13, m * W))
            (d1, d2, D, adv, expl, full, scratch, co_d2, co_up, co_down, diag,
             h_run) = work[:12, :n]
            h_in, h_pair = work[11].reshape(m, W)[:, :nr], work[12, :n - 1]
            f = th.ravel()
            thi, th_up, th_down = f[1:-1], f[2:], f[:-2]
            th_in, th_left, th_right = th[:, 1:-1], th[:, 0], th[:, -1]
        # d1 = (th_up - th_down) / two_dr and d2 = (th_up - 2 thi + th_down) / dr_mul
        np.subtract(th_up, th_down, out=d1)
        np.divide(d1, two_dr, out=d1)
        np.multiply(2.0, thi, out=d2)
        np.subtract(th_up, d2, out=d2)
        np.add(d2, th_down, out=d2)
        np.divide(d2, dr_mul, out=d2)
        _rhs_parts(thi, d1, d2, ri, ri2, zeta_ri, half_c, params, D, adv, expl, full, scratch)
        # min over the non-NaN entries: (D <= 0).any(), also true if only a
        # ring node between rows has D <= 0
        if np.fmin.reduce(D) <= 0.0:
            stop(np.fmin.reduceat(D, bounds)[::2] <= 0.0, STOP_BACKWARD_DIFFUSION)
            if changed:
                continue
        scale = np.maximum(amax, 1e-12)
        fmax = np.maximum(np.maximum.reduceat(np.abs(full, out=scratch), bounds)[::2], 1e-15)
        # min(dt, x, T - t) of one run: fmin, like Python's min, passes a NaN x over
        h = np.fmin(STEP_FRACTION * scale / fmax, np.minimum(dt, T - t))
        # co_d2 = D / dr_pow and co_d1 = adv / two_dr (held in scratch);
        # co_up and co_down are the coefficients of theta_{i+1} and
        # theta_{i-1} in row i
        np.divide(D, dr_pow, out=co_d2)
        np.divide(adv, two_dr, out=scratch)
        np.add(co_d2, scratch, out=co_up)
        np.subtract(co_d2, scratch, out=co_down)
        np.multiply(-2.0, co_d2, out=diag)
        np.subtract(diag, react, out=diag)
        fill()
        row_steps += m  # every row takes this step, one whose solve fails too
        try:
            solve_banded(ab, b)  # the solution is returned in b's memory
            new_amax = np.maximum(np.maximum.reduceat(np.abs(b, out=scratch), bounds)[::2],
                                  edge)
            top = float(np.maximum.reduce(new_amax))
            batched = math.isfinite(top)
        except ValueError:  # LinAlgError is one too
            batched = False
        if batched:
            th_in[...] = b_in  # the ring nodes' x are dropped
        else:
            # A non-finite or singular block, or a block that another's
            # overflow reached through the zero couplings (0 * inf = NaN):
            # solve each row's block alone, as its own run does.
            fill()
            for k in range(m):
                blk = slice(k * W, k * W + nr)
                try:
                    th[k, 1:-1] = solve_banded(system[:3, blk], system[3, blk])
                except ValueError:
                    # the explicit term overflowed and the system is not
                    # finite, or (a LinAlgError) it is singular
                    halt(k, Stop(STOP_NONFINITE, float(t[k] + h[k]), steps + 1))
            new_amax = np.abs(th).max(axis=1)
            top = float(np.maximum.reduce(new_amax))
        t += h
        steps += 1
        # max|theta| is inf or NaN exactly when theta holds an inf or NaN
        amax = new_amax
        if not math.isfinite(top):
            stop(~np.isfinite(amax), STOP_NONFINITE)
        if record is not None or not top * top <= amax2_cap:
            for k in np.flatnonzero(alive):
                ak = float(amax[k])
                if record is None and not ak * ak > amax2_cap:
                    continue
                y = float(trapezoid(th[k] * th[k] * r, dx))
                if record is not None:
                    record(float(t[k]), th[k], y)
                if not math.isfinite(y) or y > y_threshold:
                    halt(k, Stop(STOP_THRESHOLD, float(t[k]), steps))
        if not np.minimum.reduce(amax) > theta_small:
            stop(amax <= theta_small, STOP_SMALL)
        if np.maximum.reduce(t) >= T:
            stop(t >= T, STOP_REACHED_T)
    return _Batch(outcomes, final, steps, row_steps)


def _single(batch: _Batch) -> Stop:
    """The stop of a one-row march; its exception is raised."""
    outcome = batch.outcomes[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_radial(profile0: RadialProfile, params: LdGParams, T: float, dt: float) -> RadialTrace:
    """March the radial flow to time T and record every monitor on every step.

    The stepper is adaptive and semi-implicit: dt is the largest step taken,
    and steps shrink so no update moves theta by more than 2% of its current
    amplitude.  The run stops before T in these cases:

    - y = int theta^2 r dr exceeds BLOWUP_Y_THRESHOLD (or is not finite):
      STOP_THRESHOLD at the time of that record, 0.0 when the initial
      profile is already above the threshold;
    - theta or the linear system of a step turns non-finite, or the
      system is singular (STOP_NONFINITE, at the end of that step, which
      stop.steps counts), or the quasilinear diffusivity zeta + L4 theta is
      <= 0 somewhere (STOP_BACKWARD_DIFFUSION): stop.nonfinite is True;
      stop.blown_up stays False and stop.blowup_time None, because the
      threshold was not crossed.

    Callers that only need the flag use run_radial_flag, which takes the
    same steps without the per-step monitors and may stop sooner.
    """
    r = profile0.r
    dx = np.diff(r)
    ts, ys, yms, yps, mxs, Fs, rates = [], [], [], [], [], [], []

    def record(t, th, y):
        prof = RadialProfile(profile0.R0, profile0.R1, profile0.nr, th.copy())
        rhs_full = theta_rhs(prof, params)
        tm = np.maximum(-th, 0.0)
        tp = np.maximum(th, 0.0)
        ts.append(t)
        ys.append(y)
        yms.append(trapezoid(tm * tm * r, dx))
        yps.append(trapezoid(tp * tp * r, dx))
        mxs.append(float(np.abs(th).max()))
        Fs.append(blowup_functional(prof, params))
        # boundary values are pinned, so dtheta/dt vanishes at the endpoints
        full = np.concatenate(([0.0], rhs_full, [0.0]))
        rates.append(math.sqrt(max(trapezoid(full * full * r, dx), 0.0)))

    stop = _single(_march([profile0], params, T, dt, BLOWUP_Y_THRESHOLD, record))
    return RadialTrace(
        t=np.array(ts), y=np.array(ys), y_minus=np.array(yms), y_plus=np.array(yps),
        max_abs_theta=np.array(mxs), F=np.array(Fs), rate=np.array(rates), stop=stop,
    )


def _flag_march(profiles, params: LdGParams, T: float, dt: float) -> _Batch:
    """_march for flags only: no monitors, and the smallness stop where it applies."""
    try:
        eta1 = derived_constants(params, strict=True).eta1
    except ValueError:
        eta1 = math.inf
    # the bound on y of a run in the regime, with a rounding margin
    y_small = 2.0 * eta1 * (profiles[0].R1**2 - profiles[0].R0**2) * (1.0 + 1e-9)
    decided = abs(params.a) <= 2.0 * params.c * eta1 and y_small <= BLOWUP_Y_THRESHOLD
    return _march(profiles, params, T, dt, BLOWUP_Y_THRESHOLD,
                  theta_small=2.0 * math.sqrt(eta1) if decided else -math.inf)


def run_radial_flag(profile0: RadialProfile, params: LdGParams, T: float,
                    dt: float) -> Stop:
    """Take the steps of run_radial but compute only what the flag needs.

    The returned stop's blown_up, nonfinite and blowup_time equal those of
    run_radial(profile0, params, T, dt).stop; its reason may differ.
    Under the smallness experiment's hypotheses (L4 != 0, the strict bulk
    and coercivity assumptions, |a| <= 2 c eta1), max|theta| <= 2 sqrt(eta1),
    boundary values included, holds at all later times once it holds.  A
    run that gets there can then neither abort nor, if 4 eta1 (R1^2 - R0^2)/2
    lies below the threshold, cross it, so it stops with STOP_SMALL.
    """
    return _single(_flag_march([profile0], params, T, dt))


# Bisection levels of threshold_search, and the levels one lock-step batch
# marches (the last the rest): depth 4 measured fastest (README, numerical notes).
SEARCH_LEVELS = 16
SEARCH_DEPTH = 4


@dataclass(frozen=True)
class ThresholdSearch:
    """The runs and bracket of a blow-up threshold bisection.

    runs holds (amplitude, flag) for each run the sequential search takes,
    in its order: amp_lo, amp_hi, then the midpoints.  It ends early at a
    run that aborted, or when the two ends flag the same.  [lo, hi] (in
    either order) is the bracket, lo on amp_lo's side.  iterations counts
    the lock-step steps and row_steps the steps of all rows marched.
    """

    runs: tuple
    lo: float
    hi: float
    iterations: int
    row_steps: int

    @property
    def history(self) -> tuple:
        return self.runs[2:]

    @property
    def aborted(self) -> tuple | None:
        """(amplitude, flag) of the run that ended the search on an abort."""
        return self.runs[-1] if self.runs[-1][1].nonfinite else None

    @property
    def sequential_steps(self) -> int:
        """The steps the runs take one after another, as run_radial_flag."""
        return sum(flag.steps for _, flag in self.runs)


def threshold_search(R0: float, R1: float, nr: int, params: LdGParams, T: float,
                     dt: float, amp_lo: float, amp_hi: float) -> ThresholdSearch:
    """Bisect the sine-bump amplitude for the blow-up threshold, SEARCH_LEVELS times.

    The result is that of the sequential search, which flags amp_lo and
    amp_hi with run_radial_flag and then bisects: the midpoint replaces
    the end whose flag it shares.  Here the midpoints of SEARCH_DEPTH
    levels march as one lock-step batch (2^SEARCH_DEPTH - 1 candidates),
    each to its own stop (why none leaves early: README, numerical notes).
    The sequential path is then read off the batch: an exception of a run
    on it is raised, and the runs off it are never read.
    """
    runs = []
    counts = [0, 0]

    def march(amps):
        batch = _flag_march([RadialProfile.sine_bump(R0, R1, nr, amp) for amp in amps],
                            params, T, dt)
        counts[0] += batch.iterations
        counts[1] += batch.row_steps
        return batch.outcomes

    def take(amp, outcome) -> bool:
        """Add a run of the sequential path; False if the search ends on it."""
        if isinstance(outcome, Exception):
            raise outcome
        runs.append((amp, outcome))
        return not outcome.nonfinite

    def result(lo, hi) -> ThresholdSearch:
        return ThresholdSearch(tuple(runs), lo, hi, *counts)

    lo, hi = amp_lo, amp_hi
    for amp, outcome in zip((lo, hi), march([lo, hi])):
        if not take(amp, outcome):
            return result(lo, hi)
    hi_blows = runs[1][1].blown_up
    if runs[0][1].blown_up == hi_blows:
        return result(lo, hi)
    for level in range(0, SEARCH_LEVELS, SEARCH_DEPTH):
        n = 2**min(SEARCH_DEPTH, SEARCH_LEVELS - level) - 1
        # the subtree in heap order: node j bisects brackets[j]; its child
        # 2j+1 bisects the lower half (taken when j flags as hi does) and
        # 2j+2 the upper half
        brackets, amps = [(lo, hi)], []
        for j in range(n):
            l, h = brackets[j]
            amps.append(0.5 * (l + h))
            brackets += [(l, amps[j]), (amps[j], h)]
        outcomes = march(amps)
        j = 0
        while j < n:
            if not take(amps[j], outcomes[j]):
                return result(lo, hi)
            if outcomes[j].blown_up == hi_blows:
                hi, j = amps[j], 2 * j + 1
            else:
                lo, j = amps[j], 2 * j + 2
    return result(lo, hi)


def dominates_comparison(trace: RadialTrace, params: LdGParams,
                         certificate: BlowupCertificate, rtol: float = 0.01) -> bool:
    """Check the recorded sign-split series against the comparison solution.

    True iff the recorded y (y_minus for L4 < 0, y_plus else) stays above
    the comparison ODE solution started from the same y0, within a relative
    slack rtol at every recorded time.
    """
    rec = trace.y_minus if params.L4 < 0.0 else trace.y_plus
    comp, _ = comparison_lower_bound(certificate.M0, params.a, certificate.F0,
                                     certificate.y0, trace.t)
    slack = rtol * np.maximum(np.abs(comp), max(certificate.y0, 1e-300))
    finite = np.isfinite(comp)
    return bool(np.all(rec[finite] >= comp[finite] - slack[finite]))


def hedgehog_consistency_check(theta, params: LdGParams, sample_points,
                               h_s: float, r_bounds=None) -> float:
    """Max componentwise mismatch between the 2D stencil RHS and the radial one.

    theta is the triple (theta, theta', theta'') of callables.  At each
    sample point x the hedgehog field theta(|y|) S(y) is evaluated on a
    local 5x5 stencil of spacing h_s, the full 2D RHS is formed by the
    solver's central differences at the stencil center, and compared against
    the analytic radial RHS times S(x).  The mismatch is O(h_s^2) for smooth
    theta.  Samples closer than 3 h_s to the annulus boundary are rejected
    when r_bounds = (R0, R1) is given.
    """
    th = theta[0]
    samples = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if samples.shape[1] != 2:
        raise ValueError("sample points must be 2-vectors")
    offsets = (np.arange(5) - 2.0) * h_s
    radii = [math.hypot(x[0], x[1]) for x in samples]
    for rc in radii:
        if rc == 0.0:
            raise ValueError("sample point at the origin")
        if r_bounds is not None:
            R0, R1 = r_bounds
            if rc < R0 + 3.0 * h_s or rc > R1 - 3.0 * h_s:
                raise ValueError(
                    f"sample at r={rc:.6g} is within 3 h_s of the annulus boundary"
                )
    # the radial RHS at every sample in one evaluation; r^2 is the libm
    # pow of each radius, which can round differently from r * r
    r = np.array(radii)
    th_r, dth_r, ddth_r = (np.array([float(fn(rc)) for rc in radii]) for fn in theta)
    vals = _rhs_parts(th_r, dth_r, ddth_r, r, np.array([rc**2 for rc in radii]),
                      params.zeta / r, 0.5 * params.c, params)[3]
    worst = 0.0
    for x, rc, val in zip(samples, radii, vals):
        xs = x[0] + offsets[:, None]
        ys = x[1] + offsets[None, :]
        rr2 = xs * xs + ys * ys
        tt = np.asarray(th(np.sqrt(rr2)), dtype=float)
        p = tt * (xs * xs / rr2 - 0.5)
        q = tt * xs * ys / rr2
        grid = Grid2D(nx=3, ny=3, hx=h_s, hy=h_s, x0=x[0] - 2 * h_s, y0=x[1] - 2 * h_s)
        dp, dq = rhs_pq(Field2D(grid, p, q), params)
        s11 = x[0] * x[0] / (rc * rc) - 0.5
        s12 = x[0] * x[1] / (rc * rc)
        mism = max(abs(dp[1, 1] - val * s11), abs(dq[1, 1] - val * s12))
        worst = max(worst, mism)
    return worst
