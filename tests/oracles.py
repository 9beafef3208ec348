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
