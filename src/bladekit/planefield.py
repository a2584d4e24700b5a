"""Analytic functions of the plane pulled back from the circle domain.

A blade's flow lives outside the unit circle of its canonical variable
zeta; `SeriesMap` is the map ``z(zeta)`` with a Newton inverse.  A
`Pullback` is ``S(zeta(z)) + log*ln(zeta(z))`` for a Laurent series S: a
blade plane's complex potential is one, the canonical potential carried
through the blade's map.  It is evaluated at points that have already been
inverted, so one inversion per map and point set serves every function over
that map: its value, and where asked its exact z-derivative from the
map's z'(zeta), which the caller evaluates once per map.  A point set
close to one already inverted is inverted from a start near its answer
(`SeriesMap.invert`'s ``start``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, OutsideDomain
from .harmonic import AnalyticSeries, evaluate_series, evaluate_series_unchecked as _raw_eval

_INVERT_MAXITER = 60    # Newton steps of `SeriesMap.invert`
_INVERT_TOL = 1e-13     # its residual |z(zeta) - z|, relative to max(|z|, 1)


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

    def invert(self, z, start=None):
        """Solve ``z(zeta) = z`` for points on or outside the unit circle.

        Newton starts from ``start`` when given, else from the map's linear
        part; a start inside the circle is moved onto it.  Iterates may
        graze the circle (the series is a finite Laurent polynomial, well
        defined there); solutions ending up more than a small grace band
        inside signal a point interior to the blade.
        """
        z = np.asarray(z, dtype=complex)
        zeta = (z - self._center) / self._slope if start is None else np.asarray(start, complex)
        small = np.abs(zeta) < 1.0
        zeta = np.where(small, np.exp(1j * np.angle(np.where(small, zeta, 1.0))), zeta)
        scale = np.maximum(np.abs(z), 1.0)
        converged = False
        for _ in range(_INVERT_MAXITER):
            fz = _raw_eval(self.series, zeta) - z
            if np.all(np.abs(fz) <= _INVERT_TOL * scale):
                converged = True
                break
            step = fz / _raw_eval(self.deriv, zeta)
            mag = np.abs(step)
            step = np.where(mag > 1.0, step / np.maximum(mag, 1e-300), step)
            zeta = zeta - step
        if not converged:
            fz = _raw_eval(self.series, zeta) - z
            if not np.all(np.abs(fz) <= 1e3 * _INVERT_TOL * scale):
                raise OutsideDomain("map inversion did not converge")
        r = np.abs(zeta)
        if np.any(r < 1.0 - 1e-6):
            raise OutsideDomain("point maps inside the canonical circle")
        return np.where(r < 1.0, zeta / np.where(r > 0, r, 1.0), zeta)


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
