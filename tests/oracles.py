"""Closed forms and fields that the tests compare the library against."""

import numpy as np

from qflow.pde2d import Field2D, Grid2D


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


def constant_field(grid: Grid2D, p0: float, q0: float) -> Field2D:
    """The field equal to (p0, q0) on every node, ring included."""
    shape = (grid.nx + 2, grid.ny + 2)
    return Field2D(grid, np.full(shape, float(p0)), np.full(shape, float(q0)))


# Index pairs (i, j), i <= j, of the independent entries of a symmetric
# d x d matrix, diagonal first, in the order of splitting's entry stacks.
PAIRS = {2: ((0, 0), (1, 1), (0, 1)), 3: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))}


def entries(Q: np.ndarray, d: int) -> list:
    """The independent entries q[i][j] = Q[j, i] of one d x d matrix in
    PAIRS[d] order, as Python floats, read from the lower triangle (as
    LAPACK eigvalsh reads it)."""
    q = Q.T.tolist()
    return [q[i][j] for i, j in PAIRS[d]]


def list_bulk_rhs(x: list, params, d: int) -> list:
    """-a Q + b (Q^2 - tr(Q^2)/d I) - c Q tr(Q^2) on the entry list of one
    matrix, one Python operation per value (b only for d = 3)."""
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


def list_eigen_rates(x: list, params) -> list:
    """Rates of the eigenvalue pair (lambda1, lambda2) of the diagonal 3D
    bulk ODE, one Python operation per value."""
    l1, l2 = x
    s1, s2, s12 = l1 * l1, l2 * l2, l1 * l2
    common = 2.0 * params.c * (s1 + s2 + s12) + params.a
    return [params.b * (s1 - 2.0 * s2 - 2.0 * s12) / 3.0 - l1 * common,
            params.b * (s2 - 2.0 * s1 - 2.0 * s12) / 3.0 - l2 * common]


def list_rk4(f, x: list, h: float, nsub: int) -> list:
    """nsub classical RK4 steps of size h for x' = f(x) on a list of floats,
    the stage sum taken as (k1 + 2 k2 + 2 k3 + k4) left to right."""
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(nsub):
        k1 = f(x)
        k2 = f([v + half * k for v, k in zip(x, k1)])
        k3 = f([v + half * k for v, k in zip(x, k2)])
        k4 = f([v + h * k for v, k in zip(x, k3)])
        x = [v + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
             for v, r1, r2, r3, r4 in zip(x, k1, k2, k3, k4)]
    return x


def symmetric_from_entries(x: list, d: int) -> np.ndarray:
    """The exactly symmetric d x d matrix with the entries x in PAIRS[d] order."""
    out = np.empty((d, d))
    for (i, j), v in zip(PAIRS[d], x):
        out[i, j] = out[j, i] = v
    return out


def list_bulk_step(Q: np.ndarray, dt: float, params, d: int, nsub: int) -> np.ndarray:
    """The bulk ODE step of one matrix over dt in nsub RK4 substeps, on
    Python floats."""
    x = list_rk4(lambda y: list_bulk_rhs(y, params, d), entries(Q, d), dt / nsub, nsub)
    return symmetric_from_entries(x, d)


def list_eigen_integrate(lambda1: float, lambda2: float, params, T: float, nsub: int) -> list:
    """The eigenvalue pair integrated to time T in nsub RK4 substeps, on
    Python floats."""
    return list_rk4(lambda y: list_eigen_rates(y, params), [lambda1, lambda2], T / nsub, nsub)
