"""Analytic functions of the plane pulled back from the circle domain.

A blade's flow lives outside the unit circle of its canonical variable
zeta; `SeriesMap` is the map ``z(zeta)`` with a Newton inverse that returns
each point's zeta together with the map's z'(zeta) there.  A `Pullback` is
``S(zeta(z)) + log*ln(zeta(z))`` for a Laurent series S: a blade plane's
complex potential is one, the canonical potential carried through the
blade's map.  It is evaluated at points that have already been inverted, so
one inversion per map and point set serves every function over that map:
its value, and its exact z-derivative from the z'(zeta) of the inversion.
Point sets close to one already inverted are stacked into one array and
inverted from a start near their answer (`SeriesMap.invert`'s ``start``).

Newton evaluates z and z' together from one table of powers of 1/zeta, and
sums only the powers whose tail bound ``sum_k |c_k| rho**k`` (rho the
largest |1/zeta| of the point set; Henrici, *Applied and Computational
Complex Analysis*, vol. 1, 1974) is not negligible against the whole sum.
Off the circle that is a few dozen of the map's n/2 terms; on it, all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BladekitError, OutsideDomain
from .harmonic import AnalyticSeries, _polynomial, evaluate_series

_INVERT_MAXITER = 60    # Newton steps of `SeriesMap.invert`
_INVERT_TOL = 1e-13     # its residual |z(zeta) - z|, relative to max(|z|, 1)
# a dropped tail's bound, relative to the bound of the whole sum: 2**-7 of
# the rounding unit 2**-53 of that sum, so truncation adds no visible error
_TAIL_RTOL = 2.0 ** -60


class SeriesMap:
    """Analytic map ``z(zeta)`` from the circle exterior, with Newton inverse."""

    def __init__(self, series: AnalyticSeries):
        if series.high > 1:
            raise BladekitError("map series may carry at most a linear term")
        self.series = series
        self.deriv = series.derivative()
        self._center = series.coefficient(0)
        self._slope = series.coefficient(1)
        if abs(self._slope) < 1e-12:
            raise BladekitError("map must be nondegenerate at infinity")

    @cached_property
    def _rows(self) -> np.ndarray:
        """z - slope*zeta and z' as coefficient rows of w**j, w = 1/zeta: c_{-j}
        at w**j; slope at w**0 and -j*c_{-j} at w**(j+1).  Built at the first
        evaluation, so a solve that never inverts its map pays nothing."""
        powers = np.arange(self.series.low, self.series.high + 1)
        c = np.zeros(max(-self.series.low, 0) + 1, dtype=complex)
        c[-powers[powers <= 0]] = self.series.coefficients[powers <= 0]
        rows = np.zeros((2, len(c) + 1), dtype=complex)
        rows[0, :-1] = c
        rows[1, 0] = self._slope
        rows[1, 2:] = -np.arange(1, len(c)) * c[1:]
        return rows

    def terms(self, rho: float) -> int:
        """How many powers of w = 1/zeta, from w**0 up, `values` sums at |w| <= ``rho``.

        The deepest powers are dropped while the bound of their sum, for z
        and for z' alike, stays below ``_TAIL_RTOL`` of the bound of the
        whole sum (which for z counts ``|slope|/rho``).  Outside
        ``0 < rho < 1`` every power is kept.
        """
        width = self._rows.shape[1]
        if not 0.0 < rho < 1.0:
            return width
        bounds = np.abs(self._rows) * rho ** np.arange(width)
        tails = np.cumsum(bounds[:, ::-1], axis=1)[:, ::-1]    # [:, j]: powers >= j
        whole = tails[:, :1] + [[abs(self._slope) / rho], [0.0]]
        return int(np.count_nonzero(np.any(tails > _TAIL_RTOL * whole, axis=0)))

    def values(self, zeta):
        """``(z(zeta), z'(zeta))`` from one table of powers, truncated by `terms`."""
        zeta = np.asarray(zeta, dtype=complex)
        x = zeta.ravel()
        w = 1.0 / x
        rows = self._rows[:, :self.terms(float(np.max(np.abs(w), initial=0.0)))]
        z, dz = _polynomial(rows, w)
        return (z + self._slope * x).reshape(zeta.shape), dz.reshape(zeta.shape)

    def invert(self, z, start=None):
        """Solve ``z(zeta) = z`` for points on or outside the unit circle.

        Returns ``(zeta, z'(zeta))``, both shaped like z.  Newton starts from
        ``start`` when given, else from the map's linear part; a start
        inside the circle is moved onto it.  Iterates may graze the circle
        (the series is a finite Laurent polynomial, well defined there);
        solutions ending up more than a small grace band inside signal a
        point interior to the blade, and those within it are projected onto
        the circle, where their z' is evaluated again.
        """
        z = np.asarray(z, dtype=complex)
        zeta = (z - self._center) / self._slope if start is None else np.asarray(start, complex)
        small = np.abs(zeta) < 1.0
        zeta = np.where(small, np.exp(1j * np.angle(np.where(small, zeta, 1.0))), zeta)
        scale = np.maximum(np.abs(z), 1.0)
        converged = False
        for _ in range(_INVERT_MAXITER):
            zz, dz = self.values(zeta)
            fz = zz - z
            if np.all(np.abs(fz) <= _INVERT_TOL * scale):
                converged = True
                break
            step = fz / dz
            mag = np.abs(step)
            step = np.where(mag > 1.0, step / np.maximum(mag, 1e-300), step)
            zeta = zeta - step
        if not converged:
            zz, dz = self.values(zeta)
            if not np.all(np.abs(zz - z) <= 1e3 * _INVERT_TOL * scale):
                raise OutsideDomain("map inversion did not converge")
        r = np.abs(zeta)
        if np.any(r < 1.0 - 1e-6):
            raise OutsideDomain("point maps inside the canonical circle")
        inside = r < 1.0
        if np.any(inside):
            zeta = np.where(inside, zeta / np.where(r > 0, r, 1.0), zeta)
            dz[inside] = self.values(zeta[inside])[1]
        return zeta, dz


@dataclass(frozen=True)
class Pullback:
    """Analytic ``F(z) = S(zeta(z)) + log*ln(zeta(z))`` over a map.

    ``zeta(z)`` inverts ``map``, and ln is the principal branch.  A blade
    plane's log is the circulation over 2*pi.
    """

    series: AnalyticSeries
    map: SeriesMap
    log: complex = 0.0

    def value(self, zeta):
        """``F`` at points ``zeta`` already obtained from ``map.invert``."""
        return evaluate_series(self.series, zeta) + self.log * np.log(zeta)

    def derivative(self, zeta, dz):
        """``F'`` at inverted points ``zeta``, where the map's z'(zeta) is ``dz``."""
        return (evaluate_series(self.series.derivative(), zeta) + self.log / zeta) / dz
