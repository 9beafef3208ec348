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

from .energy import LdGParams, bulk_from_traces, derived_constants, trapezoid

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

# Nodes, ring included, of one lock-step stack (see Field2D): about one 64^2
# field.  Past that the stack leaves the cache and a lock step gains nothing
# over one step per field (3 fields: within noise at 48^2, up to 1.24x slower
# at 64^2; README), so the stacks hold 3 fields at 32^2, 1 from 48^2 on.
STACK_NODES = 66 * 66


# Why a rectangle or radial run stopped (Stop.reason); the last two end
# radial runs only.
STOP_REACHED_T = "reached T"
STOP_THRESHOLD = "crossed the blow-up threshold"
STOP_NONFINITE = "non-finite values"
STOP_BACKWARD_DIFFUSION = "locally backward diffusion (zeta + L4 theta <= 0)"
STOP_SMALL = "entered the smallness regime"  # radial.run_radial_flag only


@dataclass(frozen=True)
class Stop:
    """How a run ended: the reason (one of the STOP_* strings), the time it
    stopped at and the number of steps it took.

    blown_up only when the monitored threshold was crossed; nonfinite on an
    abort on non-finite values or backward diffusion.
    """

    reason: str
    t: float
    steps: int

    @property
    def nonfinite(self) -> bool:
        return self.reason in (STOP_NONFINITE, STOP_BACKWARD_DIFFUSION)

    @property
    def blown_up(self) -> bool:
        return self.reason == STOP_THRESHOLD

    @property
    def blowup_time(self) -> float | None:
        return self.t if self.blown_up else None


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
    stepping routines.  A lock-step stack of k fields on one grid has
    k (nx+2) rows, field after field (see `stack`); rhs_pq, step and
    _advance take a stack, the monitors read one field.
    """

    def __init__(self, grid: Grid2D, p: np.ndarray, q: np.ndarray):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        rows = grid.nx + 2
        if p.shape != q.shape or p.shape[1:] != (grid.ny + 2,) or p.shape[0] % rows or not len(p):
            raise ValueError(f"component arrays must have shape ({rows}, {grid.ny + 2}), "
                             f"or k {rows} rows for a stack of k fields")
        self.grid = grid
        self.p = p
        self.q = q

    @classmethod
    def stack(cls, fields) -> "Field2D":
        """The lock-step stack of fields on one grid, in order."""
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise ValueError("stacked fields must share one grid")
        return cls(grid, np.concatenate([f.p for f in fields]),
                   np.concatenate([f.q for f in fields]))

    def members(self) -> list:
        """The fields of a stack, as views of its arrays."""
        rows = self.grid.nx + 2
        return [Field2D(self.grid, self.p[i:i + rows], self.q[i:i + rows])
                for i in range(0, len(self.p), rows)]

    @classmethod
    def zeros(cls, grid: Grid2D) -> "Field2D":
        return cls.constant(grid, 0.0, 0.0)

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
    along each axis."""
    val = trapezoid(trapezoid(2.0 * h2, grid.hy), grid.hx)
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


def _interior(s: np.ndarray, grid: Grid2D, k: int = 1) -> np.ndarray:
    """The (nx, ny) interior nodes of a contiguous slab, as a view of it; the
    (k, nx, ny) interiors of the members for the slab of a k-field stack."""
    row = (grid.ny + 2) * s.itemsize
    shape, strides = (k, grid.nx, grid.ny), ((grid.nx + 2) * row, row, s.itemsize)
    lead = int(k == 1)  # one field: no member axis
    return np.ndarray(shape[lead:], s.dtype, s, 0, strides[lead:])


def _first_derivs(at, hx: float, hy: float):
    return (at(1, 0) - at(-1, 0)) / (2.0 * hx), (at(0, 1) - at(0, -1)) / (2.0 * hy)


def _second_derivs(at, hx: float, hy: float):
    f2 = 2.0 * at()
    return (at(1, 0) - f2 + at(-1, 0)) / (hx * hx), (at(0, 1) - f2 + at(0, -1)) / (hy * hy)


def _cross_deriv(at, hx: float, hy: float):
    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * hx * hy)


def _first_pq(field: Field2D):
    """(d1p, d2p, d1q, d2q) on the slab of field."""
    hx, hy = field.grid.hx, field.grid.hy
    return _first_derivs(_slab(field.p), hx, hy) + _first_derivs(_slab(field.q), hx, hy)


def rhs_pq(field: Field2D, params: LdGParams, *, h2: np.ndarray | None = None,
           first: tuple | None = None):
    """(dp/dt, dq/dt) on interior nodes, second-order central differences on
    slabs; with L4 = 0 no first or mixed derivative is formed.  Shape
    (nx, ny) for one field, (k, nx, ny) for a stack of k.  A caller may pass
    one field's nodal h2 = p*p + q*q and its _first_pq."""
    grid = field.grid
    hx, hy = grid.hx, grid.hy
    zeta, L4, a, c = params.zeta, params.L4, params.a, params.c
    P, Q = _slab(field.p), _slab(field.q)
    p, q = P(), Q()
    dp11, dp22 = _second_derivs(P, hx, hy)
    dq11, dq22 = _second_derivs(Q, hx, hy)
    h2 = p * p + q * q if h2 is None else _slab(h2)()
    dp = zeta * (dp11 + dp22) - a * p - 2.0 * c * h2 * p
    dq = zeta * (dq11 + dq22) - a * q - 2.0 * c * h2 * q
    if L4 != 0.0:
        dp1, dp2, dq1, dq2 = first or _first_pq(field)
        q2 = 2.0 * q
        dp += L4 * (
            dp1 * dp1 - dq1 * dq1 - dp2 * dp2 + dq2 * dq2
            + 2.0 * dp1 * dq2 + 2.0 * dp2 * dq1
        )
        dp += 2.0 * L4 * (p * dp11 + q2 * _cross_deriv(P, hx, hy) - p * dp22)
        dq += 2.0 * L4 * (dq1 * dq2 - dp1 * dp2 + dp1 * dq1 - dp2 * dq2)
        dq += 2.0 * L4 * (p * dq11 + q2 * _cross_deriv(Q, hx, hy) - p * dq22)
    k = len(field.p) // (grid.nx + 2)
    return _interior(dp, grid, k).copy(), _interior(dq, grid, k).copy()


def discrete_energy(field: Field2D, params: LdGParams, *, h2: np.ndarray | None = None,
                    first: tuple | None = None) -> float:
    """Scheme-matched discrete energy.

    Quadratic part as a sum over edge differences, bulk as a nodal sum: for
    L4 = 0 the gradient of this functional is exactly -2 hx hy times the
    discrete RHS, so the dissipation identity holds to the Euler O(dt^2)
    defect.  The (L3-L2) cross term is a null Lagrangian (constant in time
    under fixed boundary data) and is omitted; the L4 part is a
    central-difference quadrature, for monitoring only.  A caller may pass
    the nodal h2 = p*p + q*q and the _first_pq it already holds.
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
    e += w * float(bulk_from_traces(2.0 * h2, params).sum())
    if params.L4 != 0.0:
        P, Q = _slab(field.p), _slab(field.q)
        dp1, dp2, dq1, dq2 = first or _first_pq(field)
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
    grid = field.grid
    if scheme == "imex":
        zeta = params.zeta
        if zeta <= 0.0:
            raise ValueError("imex scheme needs zeta > 0")
        # (I - dt zeta L_h) delta = rhs with delta = 0 on the ring, solved
        # exactly in the sine basis that diagonalizes the 5-point operator;
        # one GEMM per (nx, ny) plane, 2k planes for a stack of k
        Sx, Sy = _sine_basis(grid.nx)[0], _sine_basis(grid.ny)[0]
        lam = _imex_symbol(grid.nx, grid.ny, dt * zeta / grid.hx**2, dt * zeta / grid.hy**2)
        r = np.stack((dp, dq)).reshape(-1, grid.nx, grid.ny)
        dp, dq = (Sx @ ((Sx @ r @ Sy) / lam) @ Sy).reshape((2,) + dp.shape)
    shape = dp.shape[:-2] + (grid.nx + 2, grid.ny + 2)  # a view per member of a stack
    out.p.reshape(shape)[..., 1:-1, 1:-1] += dt * dp
    out.q.reshape(shape)[..., 1:-1, 1:-1] += dt * dq
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
    recordings; stop says why and when the run ended.
    """

    t: np.ndarray
    energy: np.ndarray
    max_h2: np.ndarray
    l2_q: np.ndarray
    l2_dqdt: np.ndarray
    defect: np.ndarray
    smallness: np.ndarray
    stop: Stop
    final_field: "Field2D | None" = dc_field(default=None, repr=False)

    def smallness_held(self) -> bool:
        return bool(np.all(self.smallness))


def _dqdt_norm2(dp, dq, w):
    # |dQ/dt|_F^2 = 2 (pdot^2 + qdot^2), midpoint quadrature over interior
    return 2.0 * w * (float((dp * dp).sum()) + float((dq * dq).sum()))


def _smallness_cap(eta1: float) -> float:
    """The recorded smallness flag reads max h^2 <= eta1 (1 + 1e-3)^2."""
    return eta1 * (1.0 + SMALLNESS_REL_TOL) ** 2 if math.isfinite(eta1) else math.inf


def run(field0: Field2D, params: LdGParams, T: float, dt: float,
        scheme: str = "imex", record_every: int = 1) -> RunTrace:
    """Evolve to time T recording the monitored quantities.

    The stop is STOP_THRESHOLD when ||Q||_L2 exceeds 1e6 (a step between
    records that crosses it is recorded), STOP_NONFINITE when a step turns
    a value non-finite, else STOP_REACHED_T; stop.t is n dt after step n.
    The smallness flag per record is max h^2 <= eta1 (1 + 1e-3)^2.
    """
    params.validate(strict=True)
    _check_step_args(dt, scheme)
    small_cap = _smallness_cap(derived_constants(params).eta1)
    grid = field0.grid
    if len(field0.p) != grid.nx + 2:
        raise ValueError("run takes one field, not a lock-step stack")
    w = grid.hx * grid.hy
    # ||Q||_L2^2 <= 2 max h^2 Lx Ly, as the trapezoid weights sum to the
    # area; below this max h^2 (less a rounding margin) no trapezoid is needed
    quiet_h2 = BLOWUP_L2_THRESHOLD ** 2 / (2.0 * grid.Lx * grid.Ly * (1.0 + 1e-6))
    nsteps = max(1, int(round(T / dt)))

    fld = field0.copy()
    rows = []  # the RunTrace series, one tuple per record

    # one h^2 = p^2 + q^2 per record serves the energy, max h^2 and the L2
    # norm; the energy and the RHS share the four first derivatives
    def record(t, field, h2, energy_before, dissipation):
        first = _first_pq(field) if params.L4 != 0.0 else None
        energy = discrete_energy(field, params, h2=h2, first=first)
        rhs = rhs_pq(field, params, h2=h2, first=first)
        mh2 = float(np.max(h2))
        defect = 0.0 if energy_before is None else abs(energy - energy_before + dissipation)
        rows.append((t, energy, mh2, _l2_norm(grid, h2), math.sqrt(_dqdt_norm2(*rhs, w)), defect,
                     mh2 <= small_cap))
        return energy, rhs

    # the RHS of the field last recorded is the one the next step needs
    energy, rhs = record(0.0, fld, fld.p * fld.p + fld.q * fld.q, None, 0.0)
    stop = Stop(STOP_REACHED_T, nsteps * dt, nsteps)
    acc_dissipation = 0.0
    # overflow on the way to a detected blow-up is expected, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nsteps + 1):
            if rhs is None:
                rhs = rhs_pq(fld, params)
            try:
                new = _advance(fld, *rhs, dt, params, scheme)
            except UnstableStepError:
                stop = Stop(STOP_NONFINITE, n * dt, n)
                break
            rhs = None
            # fld still holds the pre-step field
            ddp = (new.p[1:-1, 1:-1] - fld.p[1:-1, 1:-1]) / dt
            ddq = (new.q[1:-1, 1:-1] - fld.q[1:-1, 1:-1]) / dt
            fld = new
            acc_dissipation += dt * _dqdt_norm2(ddp, ddq, w)
            h2 = fld.p * fld.p + fld.q * fld.q
            if n % record_every and n != nsteps and (
                    float(np.max(h2)) <= quiet_h2 or _l2_norm(grid, h2) <= BLOWUP_L2_THRESHOLD):
                continue
            energy, rhs = record(n * dt, fld, h2, energy, acc_dissipation)
            acc_dissipation = 0.0
            if rows[-1][3] > BLOWUP_L2_THRESHOLD:
                stop = Stop(STOP_THRESHOLD, n * dt, n)
                break
    return RunTrace(*(np.array(series) for series in zip(*rows)), stop=stop, final_field=fld)


@dataclass
class ContinuousDependenceResult:
    """Distances ||Q_i(t) - Q(t)||_L2 of the m perturbed runs from the base
    run, shape (m, n), with each one's fitted log-slope and initial distance,
    shape (m,), and the base run's monitors (as in RunTrace), at the n
    recorded times."""

    times: np.ndarray
    distances: np.ndarray
    slope: np.ndarray
    initial_distance: np.ndarray
    energy: np.ndarray
    max_h2: np.ndarray
    l2_q: np.ndarray
    smallness: np.ndarray


def field_distance(f1: Field2D, f2: Field2D) -> float:
    """||Q1 - Q2||_L2 over the rectangle."""
    dp, dq = f1.p - f2.p, f1.q - f2.q
    return _l2_norm(f1.grid, dp * dp + dq * dq)


def _log_slope(times: np.ndarray, d: np.ndarray) -> float:
    pos = d > 0.0
    if np.count_nonzero(pos) < 2:
        return float("nan")
    return float(np.polyfit(times[pos], np.log(d[pos]), 1)[0])


def continuous_dependence_experiment(field0: Field2D, perturbations, params: LdGParams,
                                     T: float, dt: float, scheme: str = "imex",
                                     record_every: int = 1) -> ContinuousDependenceResult:
    """Evolve field0 and field0 + each perturbation in lock step and fit each
    log-distance slope.

    perturbations is an iterable of Field2D.  Each must vanish on the
    boundary ring (all solutions share the Dirichlet data), and every
    initial state must satisfy the eta2 smallness bound max h^2 <= eta2.
    The fields are marched as stacks of at most STACK_NODES nodes, each
    member with the bits of its own run.
    """
    perturbations = list(perturbations)
    for d in perturbations:
        for F in (d.p, d.q):
            if np.any(F[[0, -1]] != 0.0) or np.any(F[:, [0, -1]] != 0.0):
                raise ValueError("perturbation must vanish on the boundary ring")
    grid = field0.grid
    fields = [field0] + [Field2D(grid, field0.p + d.p, field0.q + d.q) for d in perturbations]
    consts = derived_constants(params)
    if not all(f.max_h2() <= consts.eta2 * (1.0 + 1e-9) for f in fields):
        raise ValueError("initial data exceeds the eta2 smallness bound")
    small_cap = _smallness_cap(consts.eta1)

    per_stack = max(1, STACK_NODES // ((grid.nx + 2) * (grid.ny + 2)))
    stacks = [Field2D.stack(fields[i:i + per_stack]) for i in range(0, len(fields), per_stack)]
    times, dists, monitors = [], [], []

    def observe(t):
        base, *others = (f for s in stacks for f in s.members())
        h2 = base.p * base.p + base.q * base.q
        mh2 = float(np.max(h2))
        times.append(t)
        monitors.append((discrete_energy(base, params, h2=h2), mh2, _l2_norm(grid, h2),
                         mh2 <= small_cap))
        dists.append([field_distance(base, f) for f in others])

    observe(0.0)
    nsteps = max(1, int(round(T / dt)))
    for n in range(1, nsteps + 1):
        stacks = [step(s, dt, params, scheme) for s in stacks]
        if n % record_every == 0 or n == nsteps:
            observe(n * dt)
    times = np.array(times)
    energy, max_h2, l2_q, smallness = (np.array(m) for m in zip(*monitors))
    distances = np.array(dists).T
    slope = np.array([_log_slope(times, d) for d in distances])
    return ContinuousDependenceResult(
        times=times, distances=distances, slope=slope, initial_distance=distances[:, 0],
        energy=energy, max_h2=max_h2, l2_q=l2_q, smallness=smallness,
    )
