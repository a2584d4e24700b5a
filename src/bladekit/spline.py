"""The running integral of a periodic cubic spline, in numpy.

The interpolant is the C2 cubic through (x_i, y_i), i = 0..m, with
``x_m = x_0 + period`` and ``y_m = y_0``, whose value, slope and curvature
agree across x_m and x_0.  Its slopes solve the cyclic tridiagonal system

    h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1}
        = 3 (h_i D_{i-1} + h_{i-1} D_i),     indices mod m,

with ``h_i = x_{i+1} - x_i`` and ``D_i = (y_{i+1} - y_i) / h_i``, solved by
parallel cyclic reduction (Hockney & Jesshope, *Parallel Computers*, 1981):
each step combines every row with its neighbours ``stride`` rows away to
eliminate them, so row i then couples to the slopes 2*stride away.  A
stride past the period wraps onto the same unknowns, which keeps every
combined row a true equation.  The library reads the spline only through
its running integral, one quartic piece per knot interval.
"""

from __future__ import annotations

import numpy as np


def _reduction_steps() -> int:
    """Cyclic-reduction steps after which the off-diagonal coupling is below
    rounding.  In every row of the slope system the off-diagonals sum to
    half the diagonal, so the coupling ratio starts at 1/2, and one step
    takes a ratio d to at most d**2 / (1 - d**2)."""
    d, steps = 0.5, 0
    while d >= np.finfo(float).eps / 2:
        d, steps = d * d / (1 - d * d), steps + 1
    return steps


_PCR_STEPS = _reduction_steps()      # 7


def periodic_slopes(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Slopes at the knots of the periodic C2 cubic with steps h and divided
    differences d, one of each per knot interval."""
    h_prev = np.roll(h, 1)
    m = len(h)
    # At stride k row i reads  b_i s_i - p_i s_{i-k} - q_i s_{i+k} = r_i.
    # The rows (p, q, r, b) are stored twice over, so that rows i - k and
    # i + k, indices mod m, are plain slices.
    rows = np.empty((4, 2 * m))
    rows[:, :m] = (-h, -h_prev, 3 * (h * np.roll(d, 1) + h_prev * d), 2 * (h_prev + h))
    rows[:, m:] = rows[:, :m]
    p, q, r, b = rows[:, :m]
    stride = 1
    for _ in range(_PCR_STEPS):
        k = stride % m
        lo = rows[:, m - k:2 * m - k]
        hi = rows[:, k:m + k]
        left = (p / lo[3]) * lo[:3]          # row i - k scaled to cancel s_{i-k}
        right = (q / hi[3]) * hi[:3]         # row i + k scaled to cancel s_{i+k}
        b -= left[1] + right[0]
        r += left[2] + right[2]
        p[:], q[:] = left[0], right[1]
        rows[:, m:] = rows[:, :m]
        stride *= 2
    return r / b


_POWERS = np.array([[4.0], [3.0], [2.0], [1.0]])     # integrates t**3 .. t**0


def horner(c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope of ``c[0]*t**k + ... + c[k]``, by one Horner pass."""
    p = c[0]
    dp = np.zeros_like(t)
    for ck in c[1:]:
        dp = dp * t + p
        p = p * t + ck
    return p, dp


def periodic_potential(x, y) -> tuple[np.ndarray, float]:
    """The running integral from x[0] of the periodic C2 cubic through (x, y),
    y[-1] equal to y[0]: its (5, m) quartic pieces, piece i
    ``c[0, i]*t**4 + ... + c[4, i]`` in ``t = s - x[i]``, so ``c[4, i]`` is
    its value at knot i; and its value over one period, the circulation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    d = np.diff(y) / h
    s0 = periodic_slopes(h, d)
    s1 = np.roll(s0, -1)
    c = (s0 + s1 - 2 * d) / h
    pieces = np.array([c / h, (d - s0) / h - c, s0, y[:-1]]) / _POWERS
    knots = np.concatenate([[0.0], np.cumsum(horner(pieces, h)[0] * h)])
    return np.vstack([pieces, knots[:-1]]), float(knots[-1])
