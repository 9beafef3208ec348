"""Finite-difference solver for the coupled (p, q) gradient flow on a rectangle.

The field lives on an (nx+2) x (ny+2) node grid whose outer ring holds the
time-independent Dirichlet data; all stencils are second-order central
differences, so the ring doubles as ghost values and one-sided formulas are
never needed.  The evolution is

  dp/dt = zeta Lap p
          + L4 [(d1p)^2 - (d1q)^2 - (d2p)^2 + (d2q)^2 + 2 d1p d2q + 2 d2p d1q]
          + 2 L4 (p d11p + 2 q d12p - p d22p) - a p - 2c (p^2+q^2) p
  dq/dt = zeta Lap q
          + 2 L4 [d1q d2q - d1p d2p + d1p d1q - d2p d2q]
          + 2 L4 (p d11q + 2 q d12q - p d22q) - a q - 2c (p^2+q^2) q

with zeta = 2 L1 + L2 + L3.  The energy monitor uses the discrete Lyapunov
function of this scheme (edge differences + nodal bulk), which for L4 = 0
satisfies the dissipation identity exactly up to the O(dt^2) Euler defect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import LdGParams, derived_constants

# Explicit-Euler stability fraction: dt <= CFL_FRACTION * min(hx,hy)^2 / zeta.
# The cubic term's stiffness is data-dependent; a runtime non-finite guard
# backs this up instead of a sharper bound.
CFL_FRACTION = 0.2

# Blow-up threshold on ||Q||_L2: far above any bounded-regime scale, far
# below overflow.
BLOWUP_L2_THRESHOLD = 1e6

# Relative slack on the recorded smallness flag (max h^2 vs eta1).
SMALLNESS_REL_TOL = 1e-3

SCHEMES = ("explicit-euler", "imex")


class UnstableStepError(RuntimeError):
    """Raised when a step produces non-finite values."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform node grid; interior nx x ny plus a one-cell boundary ring."""

    nx: int
    ny: int
    hx: float
    hy: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid needs nx, ny >= 3")
        if self.hx <= 0.0 or self.hy <= 0.0:
            raise ValueError("grid needs hx, hy > 0")

    @classmethod
    def from_extent(cls, nx, ny, Lx, Ly, x0=0.0, y0=0.0) -> "Grid2D":
        return cls(nx=nx, ny=ny, hx=Lx / (nx + 1), hy=Ly / (ny + 1), x0=x0, y0=y0)

    @property
    def Lx(self) -> float:
        return (self.nx + 1) * self.hx

    @property
    def Ly(self) -> float:
        return (self.ny + 1) * self.hy

    def nodes(self):
        """Node coordinate arrays of shape (nx+2,) and (ny+2,)."""
        x = self.x0 + self.hx * np.arange(self.nx + 2)
        y = self.y0 + self.hy * np.arange(self.ny + 2)
        return x, y


class Field2D:
    """(p, q) component arrays on the node grid, ring included.

    The ring carries the Dirichlet data and is never modified by the
    stepping routines.
    """

    def __init__(self, grid: Grid2D, p: np.ndarray, q: np.ndarray):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        shape = (grid.nx + 2, grid.ny + 2)
        if p.shape != shape or q.shape != shape:
            raise ValueError(f"component arrays must have shape {shape}")
        self.grid = grid
        self.p = p
        self.q = q

    @classmethod
    def zeros(cls, grid: Grid2D) -> "Field2D":
        shape = (grid.nx + 2, grid.ny + 2)
        return cls(grid, np.zeros(shape), np.zeros(shape))

    @classmethod
    def constant(cls, grid: Grid2D, p0: float, q0: float) -> "Field2D":
        shape = (grid.nx + 2, grid.ny + 2)
        return cls(grid, np.full(shape, float(p0)), np.full(shape, float(q0)))

    def copy(self) -> "Field2D":
        return Field2D(self.grid, self.p.copy(), self.q.copy())

    def max_h2(self) -> float:
        """max over nodes of h^2 = p^2 + q^2 (so |Q|_max = sqrt(2 max_h2))."""
        return float(np.max(self.p * self.p + self.q * self.q))

    def l2_norm(self) -> float:
        """||Q||_L2 over the rectangle."""
        return _l2_norm(self.grid, self.p * self.p + self.q * self.q)


def _l2_norm(grid: Grid2D, h2: np.ndarray) -> float:
    """||Q||_L2 by trapezoidal quadrature of tr(Q^2) = 2 h2, h2 = p^2 + q^2,
    with np.trapezoid's expression along each axis."""
    y = 2.0 * h2
    y = (grid.hy * (y[:, 1:] + y[:, :-1]) / 2.0).sum(1)
    val = (grid.hx * (y[1:] + y[:-1]) / 2.0).sum(0)
    return math.sqrt(max(float(val), 0.0))


def smooth_random_field(grid: Grid2D, amplitude: float, seed: int = 0, kmax: int = 2) -> Field2D:
    """Random low-mode sine field with zero boundary, scaled so that
    max |Q| = sqrt(2) max h equals `amplitude`."""
    rng = np.random.default_rng(seed)
    x, y = grid.nodes()
    sx = (x - grid.x0) / grid.Lx
    sy = (y - grid.y0) / grid.Ly
    p = np.zeros((grid.nx + 2, grid.ny + 2))
    q = np.zeros_like(p)
    for kx in range(1, kmax + 1):
        for ky in range(1, kmax + 1):
            mode = np.sin(kx * np.pi * sx)[:, None] * np.sin(ky * np.pi * sy)[None, :]
            p += rng.normal() * mode
            q += rng.normal() * mode
    if amplitude == 0.0:
        return Field2D.zeros(grid)
    peak = math.sqrt(2.0 * float(np.max(p * p + q * q)))
    scale = amplitude / peak
    p *= scale
    q *= scale
    # the modes vanish on the boundary analytically; make the ring exact zeros
    for arr in (p, q):
        arr[0, :] = arr[-1, :] = 0.0
        arr[:, 0] = arr[:, -1] = 0.0
    return Field2D(grid, p, q)


def _slab(F: np.ndarray):
    """at(di, dj): the interior nodes of F shifted by (di, dj), as one
    contiguous run of nx W - 2 entries of F.ravel(), W = ny+2 (see README,
    numerical notes).  The run also crosses the ring columns between rows."""
    W, f = F.shape[1], F.ravel()  # ravel copies unless F is C-contiguous
    n = (F.shape[0] - 2) * W - 2

    def at(di: int = 0, dj: int = 0) -> np.ndarray:
        start = (1 + di) * W + 1 + dj
        return f[start:start + n]

    return at


def _interior(s: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The (nx, ny) interior nodes of a contiguous slab, as a view of it."""
    return np.ndarray((grid.nx, grid.ny), s.dtype, s, 0, ((grid.ny + 2) * s.itemsize, s.itemsize))


def _first_derivs(at, hx: float, hy: float):
    return (at(1, 0) - at(-1, 0)) / (2.0 * hx), (at(0, 1) - at(0, -1)) / (2.0 * hy)


def _second_derivs(at, hx: float, hy: float):
    f2 = 2.0 * at()
    return (at(1, 0) - f2 + at(-1, 0)) / (hx * hx), (at(0, 1) - f2 + at(0, -1)) / (hy * hy)


def _cross_deriv(at, hx: float, hy: float):
    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * hx * hy)


def rhs_pq(field: Field2D, params: LdGParams):
    """(dp/dt, dq/dt) on interior nodes, second-order central differences on
    slabs; with L4 = 0 no first or mixed derivative is formed."""
    grid = field.grid
    hx, hy = grid.hx, grid.hy
    zeta, L4, a, c = params.zeta, params.L4, params.a, params.c
    P, Q = _slab(field.p), _slab(field.q)
    p, q = P(), Q()
    dp11, dp22 = _second_derivs(P, hx, hy)
    dq11, dq22 = _second_derivs(Q, hx, hy)
    h2 = p * p + q * q
    dp = zeta * (dp11 + dp22) - a * p - 2.0 * c * h2 * p
    dq = zeta * (dq11 + dq22) - a * q - 2.0 * c * h2 * q
    if L4 != 0.0:
        dp1, dp2 = _first_derivs(P, hx, hy)
        dq1, dq2 = _first_derivs(Q, hx, hy)
        q2 = 2.0 * q
        dp += L4 * (
            dp1 * dp1 - dq1 * dq1 - dp2 * dp2 + dq2 * dq2
            + 2.0 * dp1 * dq2 + 2.0 * dp2 * dq1
        )
        dp += 2.0 * L4 * (p * dp11 + q2 * _cross_deriv(P, hx, hy) - p * dp22)
        dq += 2.0 * L4 * (dq1 * dq2 - dp1 * dp2 + dp1 * dq1 - dp2 * dq2)
        dq += 2.0 * L4 * (p * dq11 + q2 * _cross_deriv(Q, hx, hy) - p * dq22)
    return _interior(dp, grid).copy(), _interior(dq, grid).copy()


def discrete_energy(field: Field2D, params: LdGParams, *, h2: np.ndarray | None = None) -> float:
    """Scheme-matched discrete energy.

    Quadratic part as a sum over edge differences, bulk as a nodal sum: for
    L4 = 0 the gradient of this functional is exactly -2 hx hy times the
    discrete RHS, so the dissipation identity holds to the Euler O(dt^2)
    defect.  The (L3-L2) cross term is a null Lagrangian (constant in time
    under fixed boundary data) and is omitted; the L4 part is a
    central-difference quadrature, for monitoring only.  A caller may pass
    the nodal h2 = p*p + q*q it already holds.
    """
    hx, hy = field.grid.hx, field.grid.hy
    w = hx * hy
    zeta = params.zeta
    e = 0.0
    for F in (field.p, field.q):
        dx = (F[1:, :] - F[:-1, :]) / hx
        dy = (F[:, 1:] - F[:, :-1]) / hy
        e += zeta * w * (float((dx * dx).sum()) + float((dy * dy).sum()))
    if h2 is None:
        h2 = field.p * field.p + field.q * field.q
    e += w * float((params.a * h2 + params.c * h2 * h2).sum())
    if params.L4 != 0.0:
        P, Q = _slab(field.p), _slab(field.q)
        dp1, dp2 = _first_derivs(P, hx, hy)
        dq1, dq2 = _first_derivs(Q, hx, hy)
        cubic = (
            P() * (dp1 * dp1 + dq1 * dq1 - dp2 * dp2 - dq2 * dq2)
            + 2.0 * Q() * (dp1 * dp2 + dq1 * dq2)
        )
        # the sum runs over a contiguous (nx, ny) array, as on the 2D views
        e += params.L4 * w * float((2.0 * _interior(cubic, field.grid)).sum())
    return e


def stability_dt(grid: Grid2D, params: LdGParams) -> float:
    """Explicit-Euler step bound 0.2 min(hx,hy)^2 / zeta."""
    zeta = params.zeta
    if zeta <= 0.0:
        raise ValueError("stability bound needs zeta > 0")
    try:
        return CFL_FRACTION * min(grid.hx, grid.hy) ** 2 / zeta
    except OverflowError:
        raise ValueError("stability bound overflows: min(hx, hy)^2 is out of range") from None


@functools.lru_cache(maxsize=None)
def _sine_basis(n: int):
    """Orthonormal DST-I matrix S (symmetric, S @ S = I) on n interior nodes
    and the eigenvalues 2 (1 - cos(pi k/(n+1))) of the 1D second-difference
    matrix tridiag(-1, 2, -1), which S diagonalizes."""
    k = np.arange(1, n + 1)
    S = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    return S, 2.0 * (1.0 - np.cos(np.pi * k / (n + 1)))


@functools.lru_cache(maxsize=16)
def _imex_symbol(nx: int, ny: int, mx: float, my: float) -> np.ndarray:
    """Read-only 1 + mx ex_i + my ey_j, the sine-basis symbol of
    I - dt zeta L_h for mx = dt zeta / hx^2 and my = dt zeta / hy^2."""
    lam = 1.0 + mx * _sine_basis(nx)[1][:, None] + my * _sine_basis(ny)[1][None, :]
    lam.flags.writeable = False
    return lam


def _advance(field: Field2D, dp: np.ndarray, dq: np.ndarray, dt: float,
             params: LdGParams, scheme: str) -> Field2D:
    """One step of `step` from the RHS (dp, dq) = rhs_pq(field, params)."""
    out = field.copy()
    if scheme == "imex":
        zeta = params.zeta
        if zeta <= 0.0:
            raise ValueError("imex scheme needs zeta > 0")
        # (I - dt zeta L_h) delta = rhs with delta = 0 on the ring, solved
        # exactly in the sine basis that diagonalizes the 5-point operator
        grid = field.grid
        Sx, Sy = _sine_basis(grid.nx)[0], _sine_basis(grid.ny)[0]
        lam = _imex_symbol(grid.nx, grid.ny, dt * zeta / grid.hx**2, dt * zeta / grid.hy**2)
        dp, dq = Sx @ ((Sx @ np.stack((dp, dq)) @ Sy) / lam) @ Sy
    out.p[1:-1, 1:-1] += dt * dp
    out.q[1:-1, 1:-1] += dt * dq
    if not (np.all(np.isfinite(out.p)) and np.all(np.isfinite(out.q))):
        raise UnstableStepError("non-finite values after step")
    return out


def _check_step_args(dt: float, scheme: str) -> None:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def step(field: Field2D, dt: float, params: LdGParams, scheme: str = "imex") -> Field2D:
    """Advance one time step; the boundary ring is untouched.

    explicit-euler: forward Euler on the whole RHS, caller keeps dt within
    stability_dt.  imex: the zeta-Laplacian is implicit, all L4 and bulk
    terms explicit.  The increment delta = (u_new - u)/dt then solves
    (I - dt zeta L_h) delta = rhs(u) with delta = 0 on the ring, and is
    computed exactly (to roundoff) in the sine basis that diagonalizes the
    5-point Laplacian L_h.
    Raises UnstableStepError if the step produces non-finite values.
    """
    _check_step_args(dt, scheme)
    return _advance(field, *rhs_pq(field, params), dt, params, scheme)


@dataclass
class RunTrace:
    """Per-step monitors of a rectangle run.

    energy is the scheme-matched discrete energy; max_h2 = max(p^2+q^2);
    l2_dqdt is the L2 norm of the instantaneous RHS; defect is the
    dissipation-identity residual |dE + dt ||dQ/dt||^2| accumulated between
    recordings.
    """

    t: np.ndarray
    energy: np.ndarray
    max_h2: np.ndarray
    l2_q: np.ndarray
    l2_dqdt: np.ndarray
    defect: np.ndarray
    smallness: np.ndarray
    eta1: float
    blown_up: bool = False
    nonfinite: bool = False
    blowup_time: float | None = None
    final_field: "Field2D | None" = dc_field(default=None, repr=False)

    def smallness_held(self) -> bool:
        return bool(np.all(self.smallness))


def _dqdt_norm2(dp, dq, w):
    # |dQ/dt|_F^2 = 2 (pdot^2 + qdot^2), midpoint quadrature over interior
    return 2.0 * w * (float((dp * dp).sum()) + float((dq * dq).sum()))


def run(field0: Field2D, params: LdGParams, T: float, dt: float,
        scheme: str = "imex", record_every: int = 1) -> RunTrace:
    """Evolve to time T recording the monitored quantities.

    Terminates early with the blow-up flag when ||Q||_L2 exceeds 1e6 or any
    value turns non-finite.  The smallness flag per record is
    max h^2 <= eta1 (1 + 1e-3)^2.
    """
    params.validate(strict=True)
    _check_step_args(dt, scheme)
    consts = derived_constants(params)
    eta1 = consts.eta1
    small_cap = eta1 * (1.0 + SMALLNESS_REL_TOL) ** 2 if math.isfinite(eta1) else math.inf
    grid = field0.grid
    w = grid.hx * grid.hy
    nsteps = max(1, int(round(T / dt)))

    fld = field0.copy()
    ts, es, mh2s, l2s, rates, defects, smalls = [], [], [], [], [], [], []

    # one h^2 = p^2 + q^2 per record serves the energy, max h^2 and the L2 norm
    def record(t, energy, defect, h2, dp, dq):
        ts.append(t)
        es.append(energy)
        mh2 = float(np.max(h2))
        mh2s.append(mh2)
        l2s.append(_l2_norm(grid, h2))
        rates.append(math.sqrt(_dqdt_norm2(dp, dq, w)))
        defects.append(defect)
        smalls.append(mh2 <= small_cap)

    h2 = fld.p * fld.p + fld.q * fld.q
    energy = discrete_energy(fld, params, h2=h2)
    # the RHS of the field last recorded is the one the next step needs
    rhs = rhs_pq(fld, params)
    record(0.0, energy, 0.0, h2, *rhs)
    blown = False
    nonfinite = False
    blowup_time = None
    acc_dissipation = 0.0
    # overflow on the way to a detected blow-up is expected, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nsteps + 1):
            if rhs is None:
                rhs = rhs_pq(fld, params)
            try:
                new = _advance(fld, *rhs, dt, params, scheme)
            except UnstableStepError:
                nonfinite = True
                blown = True
                blowup_time = n * dt
                break
            rhs = None
            # fld still holds the pre-step field
            ddp = (new.p[1:-1, 1:-1] - fld.p[1:-1, 1:-1]) / dt
            ddq = (new.q[1:-1, 1:-1] - fld.q[1:-1, 1:-1]) / dt
            fld = new
            acc_dissipation += dt * _dqdt_norm2(ddp, ddq, w)
            if n % record_every == 0 or n == nsteps:
                h2 = fld.p * fld.p + fld.q * fld.q
                new_energy = discrete_energy(fld, params, h2=h2)
                defect = abs(new_energy - energy + acc_dissipation)
                rhs = rhs_pq(fld, params)
                record(n * dt, new_energy, defect, h2, *rhs)
                energy = new_energy
                acc_dissipation = 0.0
                if l2s[-1] > BLOWUP_L2_THRESHOLD:
                    blown = True
                    blowup_time = n * dt
                    break
    return RunTrace(
        t=np.array(ts),
        energy=np.array(es),
        max_h2=np.array(mh2s),
        l2_q=np.array(l2s),
        l2_dqdt=np.array(rates),
        defect=np.array(defects),
        smallness=np.array(smalls, dtype=bool),
        eta1=eta1,
        blown_up=blown,
        nonfinite=nonfinite,
        blowup_time=blowup_time,
        final_field=fld,
    )


@dataclass
class ContinuousDependenceResult:
    times: np.ndarray
    distances: np.ndarray
    slope: float
    initial_distance: float

    def bound_margin(self, tol: float = 0.0) -> float:
        """max over t of d(t) / (d0 e^{slope t} (1+tol)) - 1; <= 0 means the
        exponential envelope with the fitted slope holds."""
        envelope = self.initial_distance * np.exp(self.slope * self.times) * (1.0 + tol)
        good = envelope > 0
        if not np.any(good):
            return 0.0
        return float(np.max(self.distances[good] / envelope[good]) - 1.0)


def field_distance(f1: Field2D, f2: Field2D) -> float:
    """||Q1 - Q2||_L2 over the rectangle."""
    dp, dq = f1.p - f2.p, f1.q - f2.q
    return _l2_norm(f1.grid, dp * dp + dq * dq)


def continuous_dependence_experiment(field0: Field2D, perturbation: Field2D,
                                     params: LdGParams, T: float, dt: float,
                                     scheme: str = "imex",
                                     record_every: int = 1) -> ContinuousDependenceResult:
    """Evolve field0 and field0+perturbation, fit the log-distance slope.

    The perturbation must vanish on the boundary ring (both solutions share
    the Dirichlet data) and both initial states must satisfy the eta2
    smallness bound max h^2 <= eta2.
    """
    ring = np.zeros_like(perturbation.p)
    ring[1:-1, 1:-1] = 1.0
    if np.any(perturbation.p * (1 - ring) != 0.0) or np.any(perturbation.q * (1 - ring) != 0.0):
        raise ValueError("perturbation must vanish on the boundary ring")
    eta2 = derived_constants(params).eta2
    f2 = Field2D(field0.grid, field0.p + perturbation.p, field0.q + perturbation.q)
    if math.isfinite(eta2):
        for f in (field0, f2):
            if f.max_h2() > eta2 * (1.0 + 1e-9):
                raise ValueError("initial data exceeds the eta2 smallness bound")

    nsteps = max(1, int(round(T / dt)))
    fa, fb = field0.copy(), f2
    times = [0.0]
    dists = [field_distance(fa, fb)]
    for n in range(1, nsteps + 1):
        fa = step(fa, dt, params, scheme)
        fb = step(fb, dt, params, scheme)
        if n % record_every == 0 or n == nsteps:
            times.append(n * dt)
            dists.append(field_distance(fa, fb))
    times = np.array(times)
    dists = np.array(dists)
    pos = dists > 0.0
    if np.count_nonzero(pos) >= 2:
        coeffs = np.polyfit(times[pos], np.log(dists[pos]), 1)
        slope = float(coeffs[0])
    else:
        slope = float("nan")
    return ContinuousDependenceResult(
        times=times, distances=dists, slope=slope, initial_distance=dists[0]
    )
