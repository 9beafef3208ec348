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

import ctypes
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import LdGParams, derived_constants, trapezoid

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
STOP_SMALL = "entered the smallness regime"  # radial.threshold_search only


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

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid needs nx, ny >= 3")
        if self.hx <= 0.0 or self.hy <= 0.0:
            raise ValueError("grid needs hx, hy > 0")

    @classmethod
    def from_extent(cls, nx, ny, Lx, Ly) -> "Grid2D":
        return cls(nx=nx, ny=ny, hx=Lx / (nx + 1), hy=Ly / (ny + 1))

    @property
    def Lx(self) -> float:
        return (self.nx + 1) * self.hx

    @property
    def Ly(self) -> float:
        return (self.ny + 1) * self.hy

    def nodes(self):
        """Node coordinate arrays of shape (nx+2,) and (ny+2,)."""
        x = self.hx * np.arange(self.nx + 2)
        y = self.hy * np.arange(self.ny + 2)
        return x, y


class Field2D:
    """(p, q) component arrays on the node grid, ring included.

    The ring carries the Dirichlet data and is never modified by the
    stepping routines.  A lock-step stack of k fields on one grid has
    k (nx+2) rows, field after field (see `stack`); rhs_pq and step take
    a stack, the monitors read one field.
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
        shape = (grid.nx + 2, grid.ny + 2)
        return cls(grid, np.zeros(shape), np.zeros(shape))

    def copy(self) -> "Field2D":
        """A copy, each component placed so that its slab (the run of the
        interior nodes that the stencils read) starts on a 64-byte line."""
        out = Field2D(self.grid, *(_aligned(F.size, F.shape[1] + 1).reshape(F.shape)
                                   for F in (self.p, self.q)))
        np.copyto(out.p, self.p)
        np.copyto(out.q, self.q)
        return out

    def max_h2(self) -> float:
        """max over nodes of h^2 = p^2 + q^2 (so |Q|_max = sqrt(2 max_h2))."""
        return float(np.max(self.p * self.p + self.q * self.q))


def _aligned(n: int, lead: int = 0) -> np.ndarray:
    """n new float64 entries, entry lead on a 64-byte line, where numpy's
    arrays start on any 16 bytes (README, numerical notes)."""
    raw = np.empty(n + 7)
    start = -(ctypes.addressof(ctypes.c_char.from_buffer(raw)) + 8 * lead) % 64 // 8
    return raw[start:start + n]


class _Pool:
    """Scratch arrays of `size` entries for the temporaries of one field,
    or one stack: take(shape) hands out, as a C-order view of its first
    entries, the array given back last by give(), or a new _aligned one
    while none is spare, so the pool holds no more arrays than its caller
    has out at once.  run keeps one pool for all its steps; a call outside
    run builds its own."""

    __slots__ = ("size", "spare", "runs")

    def __init__(self, size: int):
        self.size = size
        self.spare = []
        self.runs = {}  # id(allocation): its run of `size` entries

    def take(self, shape) -> np.ndarray:
        spare = self.spare
        if spare:
            a = spare.pop()
            if a.shape == shape:  # a given-back array of this shape is the view
                return a
            run = self.runs[id(a.base)]
        else:
            run = _aligned(self.size)
            self.runs[id(run.base)] = run
        view = run[:math.prod(shape)]
        return view if len(shape) == 1 else view.reshape(shape)

    def give(self, *arrays) -> None:
        self.spare.extend(arrays)  # each a view of its allocation, as take made it


def _l2_norm(grid: Grid2D, t2: np.ndarray, pool: _Pool | None = None) -> float:
    """||Q||_L2 by trapezoidal quadrature of the nodal t2 = tr(Q^2) = 2 h2,
    h2 = p^2 + q^2, along each axis (energy.trapezoid's expression) over a
    C-order array (a copy only when t2 is in another layout), so no bit
    depends on t2's layout.  The neighbour sums along y run over t2 read as
    one flat run; the row sums skip its pairs across rows."""
    t2 = np.ascontiguousarray(t2)
    pool = pool or _Pool(t2.size)
    s = pool.take(t2.shape)
    f, pairs = t2.reshape(-1), s.reshape(-1)[:-1]
    np.add(f[1:], f[:-1], pairs)
    pairs *= grid.hy
    pairs *= 0.5
    val = trapezoid(s[:, :-1].sum(-1), grid.hx)
    pool.give(s)
    return math.sqrt(max(float(val), 0.0))


def smooth_random_field(grid: Grid2D, amplitude: float, seed: int = 0, kmax: int = 2) -> Field2D:
    """Random low-mode sine field with zero boundary, scaled so that
    max |Q| = sqrt(2) max h equals `amplitude`."""
    rng = np.random.default_rng(seed)
    x, y = grid.nodes()
    sx = x / grid.Lx
    sy = y / grid.Ly
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


class _Shared:
    """The values of one field, or of one lock-step stack, that
    discrete_energy, rhs_pq and the L2 norm each read (see README, numerical
    notes): the C-order components p, q and their slabs P, Q; the nodal
    h2 = p^2 + q^2 and t2 = tr(Q^2) = 2 h2; 2q on the slab; with L4 != 0 the
    first derivatives (d1p, d2p, d1q, d2q) and the six products that the
    energy's cubic term and the RHS's L4 terms both form.  All but p, q and
    a caller's h2 are arrays of the pool, a new one unless one is given;
    t2 is formed when first read.  discrete_energy spends t2 (a later read
    forms it again); rhs_pq spends the rest but h2, so it reads them last.
    """

    __slots__ = ("pool", "p", "q", "P", "Q", "h2", "_t2", "q2", "first", "squares", "cross")

    def __init__(self, field: Field2D, L4: float, h2: np.ndarray | None = None,
                 pool: _Pool | None = None):
        self.pool = pool = pool or _Pool(field.p.size)
        take = pool.take
        self.p, self.q = p, q = np.ascontiguousarray(field.p), np.ascontiguousarray(field.q)
        if h2 is None:
            h2 = p * p
            h2 += q * q
        self.h2 = np.ascontiguousarray(h2)
        self._t2 = None
        self.P, self.Q = P, Q = _slab(p), _slab(q)
        n = (len(P()),)
        self.q2 = np.multiply(Q(), 2.0, take(n))
        if L4 != 0.0:
            hx2, hy2 = 2.0 * field.grid.hx, 2.0 * field.grid.hy
            self.first = dp1, dp2, dq1, dq2 = (
                _quotient(P(1, 0), P(-1, 0), hx2, take(n)),
                _quotient(P(0, 1), P(0, -1), hy2, take(n)),
                _quotient(Q(1, 0), Q(-1, 0), hx2, take(n)),
                _quotient(Q(0, 1), Q(0, -1), hy2, take(n)))
            self.squares = tuple(np.multiply(d, d, take(n)) for d in (dp1, dq1, dp2, dq2))
            self.cross = np.multiply(dp1, dp2, take(n)), np.multiply(dq1, dq2, take(n))

    @property
    def t2(self) -> np.ndarray:
        if self._t2 is None:
            self._t2 = np.multiply(self.h2, 2.0, self.pool.take(self.h2.shape))
        return self._t2


def _quotient(a, b, den, out):
    """(a - b) / den, formed in out."""
    d = np.subtract(a, b, out)
    d /= den
    return d


def rhs_pq(field: Field2D, params: LdGParams, *, shared: _Shared | None = None):
    """(dp/dt, dq/dt) on interior nodes, second-order central differences on
    slabs; with L4 = 0 no first or mixed derivative is formed.  Shape
    (nx, ny) for one field, (k, nx, ny) for a stack of k, each an array of
    the pool.  A caller may pass the field's _Shared, whose derivatives and
    products this writes over and gives back.

    Each term is one pool array updated in place, in the order of the
    expressions in the module docstring; the L4 terms in first derivatives
    come first, so that their inputs are scratch for the rest.
    """
    grid = field.grid
    hx, hy = grid.hx, grid.hy
    zeta, L4, a, c = params.zeta, params.L4, params.a, params.c
    s = shared or _Shared(field, L4)
    pool, P, Q = s.pool, s.P, s.Q
    p, q = P(), Q()
    take, give, n = pool.take, pool.give, p.shape

    def scratch():
        return take(n)

    if L4 != 0.0:
        dp1, dp2, dq1, dq2 = s.first
        (xp, dq1sq, dp2sq, dq2sq), (dp1dp2, xq) = s.squares, s.cross
        # L4 [d1p^2 - d1q^2 - d2p^2 + d2q^2 + 2 d1p d2q + 2 d2p d1q]
        xp -= dq1sq
        xp -= dp2sq
        xp += dq2sq
        for u, v in ((dp1, dq2), (dp2, dq1)):
            np.multiply(u, 2.0, dq1sq)
            dq1sq *= v
            xp += dq1sq
        xp *= L4
        # 2 L4 [d1q d2q - d1p d2p + d1p d1q - d2p d2q]
        xq -= dp1dp2
        np.multiply(dp1, dq1, dp1dp2)
        xq += dp1dp2
        np.multiply(dp2, dq2, dp1dp2)
        xq -= dp1dp2
        xq *= 2.0 * L4
        give(dq1sq, dp2sq, dq2sq, dp1dp2, dp1, dp2, dq1, dq2)
        s.first = s.squares = s.cross = None  # spent
    else:
        xp = xq = None

    def second(at, f2, di, dj, den):
        # (at(di, dj) - 2 f + at(-di, -dj)) / den
        d = np.subtract(at(di, dj), f2, scratch())
        d += at(-di, -dj)
        d /= den
        return d

    c2h2 = np.multiply(_slab(s.h2)(), 2.0 * c, scratch())
    rhs = []
    for at, f, x in ((P, p, xp), (Q, q, xq)):
        f2 = s.q2 if f is q else np.multiply(p, 2.0, scratch())
        d11, d22 = second(at, f2, 1, 0, hx * hx), second(at, f2, 0, 1, hy * hy)
        if f is p:
            give(f2)
        # zeta Lap f - a f - 2c h2 f
        acc = np.add(d11, d22, scratch())
        acc *= zeta
        t = np.multiply(f, a, scratch())
        acc -= t
        np.multiply(c2h2, f, t)
        acc -= t
        if L4 != 0.0:
            acc += x
            # 2 L4 (p d11 + 2 q d12 - p d22), d12 the mixed derivative
            d12 = np.subtract(at(1, 1), at(1, -1), t)
            d12 -= at(-1, 1)
            d12 += at(-1, -1)
            d12 /= 4.0 * hx * hy
            d12 *= s.q2
            d11 *= p
            d11 += d12
            d22 *= p
            d11 -= d22
            d11 *= 2.0 * L4
            acc += d11
        give(d11, d22, t)
        rhs.append(acc)
    k = len(field.p) // (grid.nx + 2)
    out = []
    for acc in rhs:
        out.append(take(_interior(acc, grid, k).shape))
        np.copyto(out[-1], _interior(acc, grid, k))
        give(acc)
    give(*(x for x in (c2h2, xp, xq, s.q2, s._t2) if x is not None))
    s.q2 = s._t2 = None  # spent
    return tuple(out)


def discrete_energy(field: Field2D, params: LdGParams, *, shared: _Shared | None = None) -> float:
    """Scheme-matched discrete energy.

    Quadratic part as a sum over edge differences, bulk as a nodal sum: for
    L4 = 0 the gradient of this functional is exactly -2 hx hy times the
    discrete RHS, so the dissipation identity holds to the Euler O(dt^2)
    defect.  The (L3-L2) cross term is a null Lagrangian (constant in time
    under fixed boundary data) and is omitted; the L4 part is a
    central-difference quadrature, for monitoring only.  A caller may pass
    the field's _Shared, whose t2 this writes over; every temporary is an
    array of its pool.  Every sum runs over a C-order array, so no bit
    depends on the fields' memory layout.  Takes one field, not a stack.
    """
    _one_field(field, "discrete_energy")
    hx, hy = field.grid.hx, field.grid.hy
    w = hx * hy
    zeta = params.zeta
    s = shared or _Shared(field, params.L4)
    pool = s.pool
    take, give = pool.take, pool.give

    def squares_sum(F, h, along_y):
        # sum of ((F[i+1] - F[i]) / h)^2 over the neighbours along x or y;
        # along y over F read as one flat run, less its pairs across rows
        if along_y:
            run = take(F.shape)
            f = F.reshape(-1)
            np.subtract(f[1:], f[:-1], run.reshape(-1)[:-1])
            d = take((F.shape[0], F.shape[1] - 1))
            np.copyto(d, run[:, :-1])
            give(run)
        else:
            d = np.subtract(F[1:], F[:-1], take((F.shape[0] - 1, F.shape[1])))
        d /= h
        d *= d
        total = float(d.sum())
        give(d)
        return total

    # bulk_from_traces(t2, params), over the spent t2
    t2, s._t2 = s.t2, None
    bulk = np.multiply(t2, 0.25 * params.c, take(t2.shape))
    bulk *= t2
    t2 *= 0.5 * params.a
    bulk += t2
    bulk_sum = float(bulk.sum())
    give(bulk, t2)
    e = 0.0
    for F in (s.p, s.q):
        e += zeta * w * (squares_sum(F, hx, False) + squares_sum(F, hy, True))
    e += w * bulk_sum
    if params.L4 != 0.0:
        # p (d1p^2 + d1q^2 - d2p^2 - d2q^2) + 2 q (d1p d2p + d1q d2q)
        dp1sq, dq1sq, dp2sq, dq2sq = s.squares
        n = dp1sq.shape
        cubic = np.add(dp1sq, dq1sq, take(n))
        cubic -= dp2sq
        cubic -= dq2sq
        cubic *= s.P()
        x = np.add(*s.cross, take(n))
        x *= s.q2
        cubic += x
        give(x)
        # twice the interior, contiguous: the sum runs as on the 2D views
        x = take((field.grid.nx, field.grid.ny))
        np.copyto(x, _interior(cubic, field.grid))
        x *= 2.0
        e += params.L4 * w * float(x.sum())
        give(cubic, x)
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


def _increment(grid: Grid2D, rhs, dt: float, params: LdGParams, scheme: str,
               pool: _Pool) -> None:
    """dt times the increment (u_new - u)/dt of one step, written over the
    RHS rhs = (dp, dq) of rhs_pq; imex takes one pool array besides."""
    if scheme == "imex":
        zeta = params.zeta
        if zeta <= 0.0:
            raise ValueError("imex scheme needs zeta > 0")
        # (I - dt zeta L_h) delta = rhs with delta = 0 on the ring, solved
        # exactly in the sine basis that diagonalizes the 5-point operator:
        # Sx (Sx rhs Sy / lam) Sy, one GEMM per (nx, ny) plane, k planes
        # per component for a stack of k
        Sx, Sy = _sine_basis(grid.nx)[0], _sine_basis(grid.ny)[0]
        lam = _imex_symbol(grid.nx, grid.ny, dt * zeta / grid.hx**2, dt * zeta / grid.hy**2)
        t = pool.take(rhs[0].shape)
        for d in rhs:
            np.matmul(Sx, d, t)
            np.matmul(t, Sy, d)
            for plane in d.reshape(-1, *lam.shape):  # a stack's broadcast would buffer
                plane /= lam
            np.matmul(Sx, d, t)
            np.matmul(t, Sy, d)
        pool.give(t)
    for d in rhs:
        d *= dt


def _one_field(field: Field2D, caller: str) -> None:
    if len(field.p) != field.grid.nx + 2:
        raise ValueError(f"{caller} takes one field, not a lock-step stack")


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _check_step_args(dt: float, scheme: str, record_every: int = 1) -> None:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")


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
    shared = _Shared(field, params.L4)
    rhs = rhs_pq(field, params, shared=shared)
    _increment(field.grid, rhs, dt, params, scheme, shared.pool)
    del shared  # its pool's spare arrays go before the new field comes
    out = field.copy()
    shape = rhs[0].shape[:-2] + (field.grid.nx + 2, field.grid.ny + 2)  # a view per member of a stack
    for F, delta in zip((out.p, out.q), rhs):
        F.reshape(shape)[..., 1:-1, 1:-1] += delta
    if not _finite(out.p, out.q):
        raise UnstableStepError("non-finite values after step")
    return out


@dataclass
class RunTrace:
    """Per-step monitors of a rectangle run.

    energy is the scheme-matched discrete energy; max_h2 = max(p^2+q^2);
    l2_dqdt is the L2 norm of the instantaneous RHS; defect is the
    dissipation-identity residual |dE + dt ||dQ/dt||^2| accumulated between
    recordings; stop says why and when the run ended.  peak_h2 is the
    largest max h^2 over every step, recorded or not, and small_cap the
    smallness flag's bound on it.
    """

    t: np.ndarray
    energy: np.ndarray
    max_h2: np.ndarray
    l2_q: np.ndarray
    l2_dqdt: np.ndarray
    defect: np.ndarray
    smallness: np.ndarray
    stop: Stop
    peak_h2: float
    small_cap: float
    final_field: Field2D = dc_field(repr=False)

    def smallness_held(self) -> bool:
        """The smallness flag held at every step, recorded or not."""
        return bool(self.peak_h2 <= self.small_cap)


def _dqdt_norm2(dp, dq, w, pool):
    # |dQ/dt|_F^2 = 2 (pdot^2 + qdot^2), midpoint quadrature over interior
    d = pool.take(dp.shape)
    total = float(np.multiply(dp, dp, d).sum()) + float(np.multiply(dq, dq, d).sum())
    pool.give(d)
    return 2.0 * w * total


def _smallness_cap(eta1: float) -> float:
    """The recorded smallness flag reads max h^2 <= eta1 (1 + 1e-3)^2."""
    return eta1 * (1.0 + SMALLNESS_REL_TOL) ** 2 if math.isfinite(eta1) else math.inf


def run(field0: Field2D, params: LdGParams, T: float, dt: float,
        scheme: str = "imex", record_every: int = 1) -> RunTrace:
    """Evolve to time T recording the monitored quantities.

    The stop is STOP_THRESHOLD when ||Q||_L2 exceeds 1e6 (a step between
    records that crosses it is recorded), STOP_NONFINITE when a step turns
    a value non-finite, else STOP_REACHED_T; stop.t is n dt after step n.
    The smallness flag per record is max h^2 <= eta1 (1 + 1e-3)^2; the
    trace's peak_h2 is the largest max h^2 over every step.
    """
    params.validate(strict=True)
    _check_step_args(dt, scheme, record_every)
    small_cap = _smallness_cap(derived_constants(params).eta1)
    _one_field(field0, "run")
    fld = field0.copy()
    rows, stop, peak_h2 = _march(fld, params, max(1, int(round(T / dt))), dt, scheme,
                                 record_every, small_cap)
    return RunTrace(*(np.array(series) for series in zip(*rows)), stop=stop, peak_h2=peak_h2,
                    small_cap=small_cap, final_field=fld)


def _march(fld: Field2D, params: LdGParams, nsteps: int, dt: float, scheme: str,
           record_every: int, small_cap: float):
    """run's steps, in place on fld: the RunTrace rows, one per record, the
    stop and the peak max h^2; the pool of their temporaries goes with it."""
    grid = fld.grid
    w = grid.hx * grid.hy
    # ||Q||_L2^2 <= 2 max h^2 Lx Ly, as the trapezoid weights sum to the
    # area; below this max h^2 (less a rounding margin) no trapezoid is needed
    quiet_h2 = BLOWUP_L2_THRESHOLD ** 2 / (2.0 * grid.Lx * grid.Ly * (1.0 + 1e-6))
    pool = _Pool(fld.p.size)
    interior = fld.p[1:-1, 1:-1], fld.q[1:-1, 1:-1]
    finite0 = _finite(fld.p, fld.q)  # each later field is tested before it is kept
    rows = []

    # one _Shared per step serves the L2 norm, the energy and the RHS
    def record(t, shared, mh2, energy_before, dissipation):
        l2 = _l2_norm(grid, shared.t2, pool)
        energy = discrete_energy(fld, params, shared=shared)
        rhs = rhs_pq(fld, params, shared=shared)
        defect = 0.0 if energy_before is None else abs(energy - energy_before + dissipation)
        rows.append((t, energy, mh2, l2, math.sqrt(_dqdt_norm2(*rhs, w, pool)), defect,
                     mh2 <= small_cap))
        return energy, rhs

    # h2 of the field, ring included; each step rewrites its interior.  The
    # RHS of the field last recorded is the one the next step needs
    h2 = fld.p * fld.p
    h2 += fld.q * fld.q
    peak_h2 = float(h2.max())
    shared = _Shared(fld, params.L4, h2, pool)
    energy, rhs = record(0.0, shared, peak_h2, None, 0.0)
    stop = Stop(STOP_REACHED_T, nsteps * dt, nsteps)
    acc_dissipation = 0.0
    # overflow on the way to a detected blow-up is expected, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nsteps + 1):
            if rhs is None:
                rhs = rhs_pq(fld, params, shared=shared)
            # the new interiors, formed over the RHS from contiguous copies
            # of the old; the field takes them once they are known finite
            new, rhs = rhs, None
            _increment(grid, new, dt, params, scheme, pool)
            old = []
            for a, f in zip(new, interior):
                old.append(pool.take(a.shape))
                np.copyto(old[-1], f)
                a += old[-1]
            t, u = (np.multiply(a, a, pool.take(a.shape)) for a in new)
            t += u
            np.copyto(h2[1:-1, 1:-1], t)
            pool.give(t, u)
            mh2 = float(h2.max())
            # a finite max h^2 means finite p and q; p^2 can overflow while
            # p is finite, so an infinite one takes the exact test
            if not math.isfinite(mh2) and not (finite0 and _finite(*new)):
                stop = Stop(STOP_NONFINITE, n * dt, n)
                break
            peak_h2 = max(peak_h2, mh2)
            for a, b in zip(new, old):  # old is spent: it takes (new - old) / dt
                _quotient(a, b, dt, b)
            acc_dissipation += dt * _dqdt_norm2(*old, w, pool)
            for f, a in zip(interior, new):
                np.copyto(f, a)
            pool.give(*new, *old)
            shared = _Shared(fld, params.L4, h2, pool)
            if n % record_every and n != nsteps and (
                    mh2 <= quiet_h2 or _l2_norm(grid, shared.t2, pool) <= BLOWUP_L2_THRESHOLD):
                continue
            energy, rhs = record(n * dt, shared, mh2, energy, acc_dissipation)
            acc_dissipation = 0.0
            if rows[-1][3] > BLOWUP_L2_THRESHOLD:
                stop = Stop(STOP_THRESHOLD, n * dt, n)
                break
    return rows, stop, peak_h2


@dataclass
class ContinuousDependenceResult:
    """Distances ||Q_i(t) - Q(t)||_L2 of the m perturbed runs from the base
    run, shape (m, n), with each one's fitted log-slope, shape (m,), and the
    base run's monitors (as in RunTrace), at the n recorded times."""

    times: np.ndarray
    distances: np.ndarray
    slope: np.ndarray
    energy: np.ndarray
    max_h2: np.ndarray
    l2_q: np.ndarray
    smallness: np.ndarray


def field_distance(f1: Field2D, f2: Field2D) -> float:
    """||Q1 - Q2||_L2 over the rectangle, of two fields, not stacks."""
    _one_field(f1, "field_distance")
    _one_field(f2, "field_distance")
    t2 = f1.p - f2.p
    t2 *= t2
    dq = f1.q - f2.q
    dq *= dq
    t2 += dq
    t2 *= 2.0  # tr((Q1 - Q2)^2)
    return _l2_norm(f1.grid, t2)


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
    _check_step_args(dt, scheme, record_every)
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
        shared = _Shared(base, params.L4)
        mh2 = float(shared.h2.max())
        l2 = _l2_norm(grid, shared.t2, shared.pool)  # before the energy writes over t2
        times.append(t)
        monitors.append((discrete_energy(base, params, shared=shared), mh2, l2,
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
        times=times, distances=distances, slope=slope, energy=energy, max_h2=max_h2,
        l2_q=l2_q, smallness=smallness,
    )
