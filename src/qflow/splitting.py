"""Trotter product solver for the simplified flow: heat steps + bulk ODE.

The simplified system (L2+L3 = L4 = 0, or d = 2 with zeta taking the place
of 2 L1) splits into the heat semigroup exp(2 t L1 Lap) acting componentwise
and the pointwise bulk ODE

  dQ/dt = -a Q + b (Q^2 - tr(Q^2)/d I) - c Q tr(Q^2)     (b term absent in 2D).

Whole space is modeled by a periodic torus; the heat step is a convolution
with a sampled Gaussian truncated at six standard deviations and
renormalized, so its weights are nonnegative and sum to one exactly.  That
makes every heat step a convex combination of grid values, which is the
certificate behind hull preservation.  The convolution runs as two matrix
products by the periodic circulant of the weights, each of whose rows holds
every weight exactly once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import LdGParams
from .pde2d import UnstableStepError
from .qtensor import eigvals_traceless_sym3, physical_interval, traceless_j2

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

    def copy(self) -> "PeriodicField":
        return PeriodicField(self.data.copy(), self.h)

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
    """Smallest and largest eigenvalue over a field's grid."""

    lambda_min: float
    lambda_max: float

    def within(self, other: "HullBounds", tol: float) -> bool:
        return self.lambda_min >= other.lambda_min - tol and self.lambda_max <= other.lambda_max + tol


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (lambda1, lambda2) of a diagonal 3D state; the third is
    -(lambda1+lambda2)."""

    lambda1: float
    lambda2: float


# A cell with J2 < (max J2 / 4)(1 - HULL_CANDIDATE_MARGIN) holds neither
# extreme of the hull.  The margin, 5e-7 relative in u, lies far above the
# ~1e-15 relative error of J2 and of either eigenvalue path.
HULL_CANDIDATE_MARGIN = 1e-6
# Below the smallest normal float J2 rounds by absolute steps (its squares go
# subnormal, or flush to 0 under ~1.5e-162), which the margin does not bound;
# at the floor the margin is ~1e9 subnormal steps.
HULL_J2_FLOOR = float(np.finfo(float).tiny)


def hull_bounds(field: PeriodicField) -> HullBounds:
    """The smallest and the largest eigenvalue over the grid.

    On 3x3 blocks only the cells that can hold an extreme get eigenvalues.
    With u = sqrt(J2/3), the roots 2u cos(theta - 2 pi k/3), theta in
    [0, pi/3], put a block's largest eigenvalue in [u, 2u] and its smallest
    in [-2u, -u].  So the hull reaches past +-U, the grid's largest u, and a
    cell with 2u < U holds neither extreme.  eigvals_traceless_sym3 works
    matrix by matrix, so the candidates keep the bits they have in a call on
    the whole grid, and so does the hull.  Every cell is evaluated on 2x2
    blocks, and when max J2 is not finite (an inf or NaN entry, whose hull
    is NaN, or an overflow) or lies below HULL_J2_FLOOR."""
    if field.dim == 2:
        lam = field.eigenvalues()
    else:
        m = field.data
        # planes[i, j] holds m[..., j, i] over the flattened grid (a view for
        # Fortran-order data); gathered, they give eigvals a Fortran-order block
        planes = np.asfortranarray(m).T.reshape(3, 3, -1)
        with np.errstate(over="ignore"):
            j2 = traceless_j2(planes)
        top = j2.max()
        if HULL_J2_FLOOR <= top < math.inf:
            m = planes[:, :, np.flatnonzero(j2 >= 0.25 * (1.0 - HULL_CANDIDATE_MARGIN) * top)].T
        lam = eigvals_traceless_sym3(m)
    return HullBounds(lambda_min=float(lam.min()), lambda_max=float(lam.max()))


def heat_kernel_weights(dt: float, L1: float, h: float, n: int) -> np.ndarray:
    """1D weights of the periodized sampled Gaussian matching exp(2 dt L1 Lap).

    Per-axis variance is 4 L1 dt; the kernel is truncated at 6 sigma and
    renormalized to sum exactly to one (all weights nonnegative).  Rejects
    steps whose kernel support would exceed the period.
    """
    if dt <= 0.0 or L1 <= 0.0 or h <= 0.0:
        raise ValueError("heat step needs dt > 0, L1 > 0 and h > 0")
    sigma2 = 4.0 * L1 * dt
    reach = KERNEL_TRUNCATION_SIGMAS * math.sqrt(sigma2) / h
    # an overflowing reach exceeds any period, and has no integer ceiling
    support = 2 * math.ceil(reach) + 1 if math.isfinite(reach) else math.inf
    if support > n:
        raise ValueError(f"kernel support {support} exceeds the period ({n} cells); reduce dt")
    half = support // 2
    k = np.arange(-half, half + 1, dtype=float)
    w = np.exp(-(k * h) ** 2 / (2.0 * sigma2))
    return w / w.sum()


# Index pairs (i, j), i <= j, of the independent entries of a symmetric
# d x d tensor, diagonal first; _FREE leaves out the last diagonal entry,
# which the heat step sets to minus the sum of the others.
_PAIRS = {2: ((0, 0), (1, 1), (0, 1)), 3: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))}
_FREE = {d: pairs[: d - 1] + pairs[d:] for d, pairs in _PAIRS.items()}


def _entries(Q: np.ndarray, d: int) -> list:
    """The independent entries q[i][j] = Q[j, i] of one d x d matrix in
    _PAIRS[d] order, as Python floats, read from the lower triangle (as
    LAPACK eigvalsh reads it)."""
    q = Q.T.tolist()
    return [q[i][j] for i, j in _PAIRS[d]]


def _stack_entries(Q: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """Write the independent entries of the (..., d, d) array Q, read as
    _entries reads them, into the rows of the (k, N) stack out; row p holds
    Q.T[i, j] flattened, a contiguous copy for Fortran-order Q."""
    rows = out.reshape(out.shape[:1] + Q.shape[-3::-1])
    for p, (i, j) in enumerate(_PAIRS[d]):
        rows[p] = Q.T[i, j]
    return out


def _assemble(x, shape: tuple) -> np.ndarray:
    """The exactly symmetric (..., d, d) array, in Fortran order (contiguous
    planes), whose entries in _PAIRS[d] order are x: a list of floats or of
    planes, or a (k, N) stack of flattened planes as _stack_entries writes."""
    out = np.empty(shape, order="F")
    o = out.T
    if isinstance(x, np.ndarray):
        x = x.reshape(x.shape[:1] + o.shape[2:])
    for (i, j), v in zip(_PAIRS[shape[-1]], x):
        o[i, j] = o[j, i] = v
    return out


# one entry per step size and grid; a trotter-convergence run uses five
@functools.lru_cache(maxsize=32)
def _heat_circulant(dt: float, L1: float, h: float, n: int) -> np.ndarray:
    """n x n periodic circulant C of heat_kernel_weights(dt, L1, h, n):
    C @ v is the periodic convolution of v with the weights.

    C[i, (i + k) mod n] is the weight at offset k, so each row is a cyclic
    shift of the weights padded with zeros; they never overlap because the
    support is at most n.  Read-only, as it is shared by every call."""
    w = heat_kernel_weights(dt, L1, h, n)
    half = len(w) // 2
    row = np.zeros(n)
    row[np.arange(-half, half + 1) % n] = w
    C = row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    C.flags.writeable = False
    return C


def heat_step(field: PeriodicField, dt: float, L1: float) -> PeriodicField:
    """Componentwise periodic convolution with the Gaussian kernel.

    Only the independent components are convolved; the result is rebuilt
    exactly symmetric and traceless."""
    C = _heat_circulant(dt, L1, field.h, field.n)
    d = field.dim
    # planes[c, y, x] = data[x, y, j, i]: C.T convolves along x, C along y
    planes = C @ np.stack([field.data.T[i, j] for i, j in _FREE[d]]) @ C.T
    x = [*planes[: d - 1], -planes[: d - 1].sum(axis=0), *planes[d - 1:]]
    return PeriodicField(_assemble(x, field.data.shape), field.h)


def bulk_ode_rhs(Q, params: LdGParams, d: int, *, out=None, scratch=None):
    """-a Q + b (Q^2 - tr(Q^2)/d I) - c Q tr(Q^2); b dropped for d = 2 where
    the matrix combination vanishes structurally (tr(Q^3) = 0).

    Takes the list of independent entries of one matrix that _entries reads,
    and gives the rates back as such a list.  With out, Q is a (k, N) stack
    of entries as _stack_entries writes them: the rates are written into the
    (k, N) array out and the intermediates into the (_SCRATCH[d], N) array
    scratch.  A (..., d, d) array is also taken: its lower triangle is read,
    and the rates come back as an exactly symmetric array in Fortran order.
    Every path gives each entry the bits of the list path."""
    if out is not None:
        return _stack_rhs(Q, params, d, out, scratch)
    if isinstance(Q, list):
        return _list_rhs(Q, params, d)
    arr = np.asarray(Q, dtype=float)
    if arr.ndim == 2:
        return _assemble(_list_rhs(_entries(arr, d), params, d), arr.shape)
    x = _stack_entries(arr, d, np.empty((len(_PAIRS[d]), arr.size // (d * d))))
    return _assemble(_stack_rhs(x, params, d, np.empty_like(x),
                                np.empty((_SCRATCH[d], x.shape[1]))), arr.shape)


def _list_rhs(x: list, params: LdGParams, d: int) -> list:
    """bulk_ode_rhs on a list of entries, one Python operation per value."""
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
    return rhs


# Scratch planes of _stack_rhs: Q^2's diagonal, s12 and tr(Q^2) for d = 2;
# for d = 3 the six entries of Q^2 - tr(Q^2)/3 I, three squares or products,
# tr(Q^2) and tr(Q^2)/3.
_SCRATCH = {2: 4, 3: 11}


def _stack_rhs(x: np.ndarray, params: LdGParams, d: int, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """bulk_ode_rhs on a (k, N) stack, every ufunc writing into out or
    scratch.  Each value is formed by the operations of _list_rhs in their
    order (a + b and b + a round alike, as do a b and b a), so a cell gets
    the bits the list path gives its matrix."""
    if d == 2:
        diag, s12, t2 = scratch[:2], scratch[2], scratch[3]
        np.multiply(x[2], x[2], out=s12)
        np.multiply(x[:2], x[:2], out=diag)
        np.add(diag, s12, out=diag)                # q11^2 + s12, s12 + q22^2
        np.add(diag[0], diag[1], out=t2)
    else:
        dev, sq, t2, t3 = scratch[:6], scratch[6:9], scratch[9], scratch[10]
        diag = dev[:3]
        np.multiply(x[3:], x[3:], out=sq)          # s12, s13, s23
        np.multiply(x[:2], x[:2], out=diag[:2])
        np.add(diag[:2], sq[0], out=diag[:2])      # q11^2 + s12, s12 + q22^2
        np.add(diag[:2], sq[1:], out=diag[:2])     # + s13, + s23
        np.add(sq[1], sq[2], out=diag[2])          # s13 + s23
        np.multiply(x[2], x[2], out=t2)
        np.add(diag[2], t2, out=diag[2])           # + q33^2
        np.add(diag[0], diag[1], out=t2)
        np.add(t2, diag[2], out=t2)
    b_term = d == 3 and params.b != 0.0
    if b_term:
        np.divide(t2, 3.0, out=t3)
    s = np.multiply(t2, params.c, out=t2)
    np.subtract(-params.a, s, out=s)               # -a - c tr(Q^2)
    np.multiply(x, s, out=out)
    if b_term:
        np.subtract(diag, t3, out=diag)
        off = dev[3:]
        np.add(x[:2], x[1:3], out=off[::2])        # q11 + q22, q22 + q33
        np.add(x[0], x[2], out=off[1])             # q11 + q33
        np.multiply(x[3:], off, out=off)           # q12 (q11 + q22), q13 (..), q23 (..)
        np.multiply(x[3:5], x[5], out=sq[1::-1])   # q13 q23, q12 q23 (reversed)
        np.multiply(x[3], x[4], out=sq[2])         # q12 q13
        np.add(off, sq, out=off)
        np.multiply(dev, params.b, out=dev)
        np.add(out, dev, out=out)
    return out


def bulk_rate_bound(params: LdGParams, nrm: float) -> float:
    """|a| + b |Q| + c |Q|^2: a bound on the bulk ODE's rate at |Q| <= nrm."""
    return abs(params.a) + params.b * nrm + params.c * nrm * nrm


def _substeps(T: float, rate: float) -> int:
    """RK4 substeps over time T that keep substep * rate <= BULK_RATE_CAP.
    Raises UnstableStepError when T * rate / BULK_RATE_CAP is not finite."""
    if not math.isfinite(count := T * rate / BULK_RATE_CAP):
        raise UnstableStepError(f"non-finite bulk-ODE rate bound {rate} times T = {T}")
    return max(1, int(math.ceil(count)))


def _rk4(f, x: list, h: float, nsub: int) -> list:
    """nsub classical RK4 steps of size h for x' = f(x), where x and f(x)
    are lists of floats or arrays combined entry by entry."""
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(nsub):
        k1 = f(x)
        k2 = f([v + half * k for v, k in zip(x, k1)])
        k3 = f([v + half * k for v, k in zip(x, k2)])
        k4 = f([v + h * k for v, k in zip(x, k3)])
        x = [v + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
             for v, r1, r2, r3, r4 in zip(x, k1, k2, k3, k4)]
    return x


def bulk_ode_step(Q, dt: float, params: LdGParams, d: int) -> np.ndarray:
    """RK4 step of the bulk ODE on the independent entries of the (..., d, d)
    array Q (6 for 3x3, 3 for 2x2), read once from its lower triangle.  The
    result is exactly symmetric; its trace stays zero up to roundoff, as the
    last diagonal entry is evolved on its own.  Substeps keep dt (|a| + b|Q| + c|Q|^2)
    <= 0.1; a rate that overflows raises UnstableStepError.

    One matrix runs on Python floats.  A field runs on one (k, N) stack of
    its entries in a workspace allocated once per step: every ufunc writes
    into it, and the stage sum accumulates k1 + 2 k2 + 2 k3 + k4 left to
    right, as the list form does, so each cell keeps the bits of its matrix."""
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    arr = np.asarray(Q, dtype=float)
    if arr.shape[-2:] != (d, d):
        raise ValueError(f"expected trailing {d}x{d} blocks")
    nrm = float(np.sqrt(np.einsum("...ij,...ij->...", arr, arr).max())) if arr.size else 0.0
    nsub = _substeps(dt, bulk_rate_bound(params, nrm))
    h = dt / nsub
    if arr.ndim == 2:
        return _assemble(_rk4(lambda y: bulk_ode_rhs(y, params, d), _entries(arr, d), h, nsub),
                         arr.shape)
    k, n = len(_PAIRS[d]), arr.size // (d * d)
    work = np.empty((4 * k + _SCRATCH[d], n))
    # the entries, the stage input, the stage rate and the stage sum
    x, y, r, acc = work[:4 * k].reshape(4, k, n)
    scratch = work[4 * k:]
    _stack_entries(arr, d, x)
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(nsub):
        bulk_ode_rhs(x, params, d, out=acc, scratch=scratch)    # k1 starts the sum
        for stage, c in enumerate((half, half, h)):
            np.multiply(r if stage else acc, c, out=y)
            np.add(x, y, out=y)                                 # x + c k
            if stage:                                           # + 2 k2, + 2 k3
                np.multiply(r, 2.0, out=r)
                np.add(acc, r, out=acc)
            bulk_ode_rhs(y, params, d, out=r, scratch=scratch)
        np.add(acc, r, out=acc)                                 # + k4
        np.multiply(acc, sixth, out=acc)
        np.add(x, acc, out=x)
    return _assemble(x, arr.shape)


def _eigen_rates(u: np.ndarray, params: LdGParams) -> np.ndarray:
    """Rates of the stacked pair u = (lambda1, lambda2), shape (2, ...), of
    the diagonal 3D bulk ODE, stacked the same way."""
    s = u * u
    s12 = u[0] * u[1]
    common = 2.0 * params.c * (s[0] + s[1] + s12) + params.a
    # y - u common has the bits of -u common + y, with one ufunc call fewer
    return params.b * (s - 2.0 * s[::-1] - 2.0 * s12) / 3.0 - u * common


def eigen_ode_rhs(pair: EigenPair, params: LdGParams):
    """RHS (d lambda1, d lambda2) of the two-eigenvalue system of the
    diagonal 3D bulk ODE; the pair may hold floats or arrays of one shape."""
    return tuple(_eigen_rates(np.array([pair.lambda1, pair.lambda2], dtype=float), params))


def eigen_ode_integrate(lambda1, lambda2, params: LdGParams, T: float):
    """Vectorized RK4 integration of the eigenvalue system to time T, on the
    pair stacked as one (2, ...) array."""
    lam = np.array([lambda1, lambda2], dtype=float)
    nrm = float(max(np.abs(lam).max(), 1e-12)) * math.sqrt(6.0)
    nsub = _substeps(T, bulk_rate_bound(params, nrm))
    [lam] = _rk4(lambda y: [_eigen_rates(y[0], params)], [lam], T / nsub, nsub)
    return lam[0], lam[1]


@dataclass
class TrotterResult:
    field: PeriodicField
    hulls: list  # HullBounds after every half-substep (ODE, then heat)


def heat_coefficient(params: LdGParams, d: int) -> float:
    """The L1 of trotter_solve's heat steps on d x d tensors."""
    return params.L1 if d == 3 else 0.5 * params.zeta


def trotter_solve(field0: PeriodicField, T: float, n: int, params: LdGParams) -> TrotterResult:
    """(heat(T/n) o bulk_ode(T/n))^n with hull bounds recorded after every
    half-substep.  Raises UnstableStepError when a hull is not finite.

    Requires the simplified flow: L4 = 0 always, and L2+L3 = 0 for 3x3
    tensors; for 2x2 tensors zeta/2 stands in for L1 so the heat step
    matches exp(t zeta Lap).
    """
    if n < 1:
        raise ValueError("need n >= 1 substeps")
    if params.L4 != 0.0:
        raise ValueError("Trotter splitting requires L4 = 0")
    d = field0.dim
    if d == 3 and params.L2 + params.L3 != 0.0:
        raise ValueError("3D Trotter splitting requires L2 + L3 = 0")
    L1_eff = heat_coefficient(params, d)
    if L1_eff <= 0.0:
        raise ValueError("heat coefficient must be positive")
    dt = T / n
    hulls = []

    def certify(fld, after):
        hb = hull_bounds(fld)
        # a NaN or inf entry gives NaN or inf eigenvalues, never a hull
        if not (math.isfinite(hb.lambda_min) and math.isfinite(hb.lambda_max)):
            raise UnstableStepError(f"non-finite eigenvalues {after}")
        hulls.append(hb)

    fld = field0.copy()
    certify(fld, "in the initial field")
    for i in range(1, n + 1):
        fld = PeriodicField(bulk_ode_step(fld.data, dt, params, d), fld.h)
        certify(fld, f"after bulk-ODE substep {i}")
        fld = heat_step(fld, dt, L1_eff)
        certify(fld, f"after heat substep {i}")
    return TrotterResult(field=fld, hulls=hulls)


def field_l2_distance(f1: PeriodicField, f2: PeriodicField) -> float:
    diff = f1.data - f2.data
    return float(np.sqrt(np.einsum("xyij,xyij->", diff, diff) * f1.h * f1.h))


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


def make_hull_spanning_field(n: int, h: float, params: LdGParams, d: int = 3,
                             seed: int = 0) -> PeriodicField:
    """Smooth d x d physical field whose eigenvalue range spans the whole
    physical interval.

    A smooth bump blends the field into an extremal state whose eigenvalues
    sit exactly at both interval endpoints, so the initial hull bounds equal
    the invariant interval itself: diag(r, -r) with r the interval's hi for
    d = 2, the uniaxial diag(-s+/3, -s+/3, 2s+/3) for d = 3.  Convexity of
    the largest eigenvalue keeps the blend physical everywhere.
    """
    base = make_smooth_physical_field(n, h, params, d, seed=seed, margin=0.6)
    interval = physical_interval(params, d)
    if d == 2:
        extremal = np.diag([interval.hi, -interval.hi])
    else:
        pair = stationary_pair(params)
        extremal = np.diag([pair.lambda1, pair.lambda1, -2.0 * pair.lambda1])
    xs = np.arange(n)
    # cos^2 bump equal to 1 exactly at the grid node (n//2, n//2)
    cx = np.where(np.abs(xs - n // 2) <= n // 4, np.cos(np.pi * (xs - n // 2) / (n // 2)) ** 2, 0.0)
    chi = cx[:, None] * cx[None, :]
    data = (1.0 - chi)[..., None, None] * base.data + chi[..., None, None] * extremal
    field = PeriodicField(data, h)
    hb = hull_bounds(field)
    if not (hb.lambda_min >= interval.lo - 1e-12 and hb.lambda_max <= interval.hi + 1e-12):
        raise ValueError(f"hull-spanning field has hull [{hb.lambda_min!r}, {hb.lambda_max!r}] "
                         f"outside the physical interval [{interval.lo!r}, {interval.hi!r}]")
    return field
