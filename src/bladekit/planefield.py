"""Analytic functions of the plane pulled back from the circle domain.

A blade's flow lives outside the unit circle of its canonical variable
zeta; `SeriesMap` is the map ``z(zeta)``, and `invert` its Newton inverse,
which returns each point's zeta together with the map's z'(zeta) there.
`invert` takes several maps at once, each with its own point set of one
common size: their evaluations are stacked into one set of array
operations per Newton step, and each map runs as if alone, with its own
truncation, its own stop and its own errors.  A section's two blade maps
are inverted together at the same points; `SeriesMap.invert` is the sweep
of one map.  Point sets close to one already inverted are stacked into one
array and inverted from a start near their answer (``start``).

A `Pullback` is ``S(zeta(z)) + log*ln(zeta(z))`` for a Laurent series S: a
blade plane's complex potential is one, the canonical potential carried
through the blade's map.  It is evaluated at points that have already been
inverted, its value and its exact z-derivative from the z'(zeta) of the
inversion together.  S and S' are summed one series at a time by
`harmonic.evaluate_series_unchecked`, as is every Laurent series off the
circle other than a map.

Newton evaluates z and z' together from one table of powers of 1/zeta, and
sums only the powers whose tail bound ``sum_k |c_k| rho**k`` (rho the
largest |1/zeta| of the map's point set; Henrici, *Applied and
Computational Complex Analysis*, vol. 1, 1974) is not negligible against
the whole sum.  Off the circle that is a few dozen of the map's n/2
terms; on it, all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BladekitError, OutsideDomain
from .harmonic import AnalyticSeries, _block_size, _polynomial, evaluate_series_unchecked

_INVERT_MAXITER = 60    # Newton steps of `invert`
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
        bounds, powers = self._bounds
        if not 0.0 < rho < 1.0:
            return len(powers)
        # [:, j]: the bound of the powers >= j
        tails = np.cumsum((bounds * rho ** powers)[:, ::-1], axis=1)[:, ::-1]
        whole = tails[:, 0] + (abs(self._slope) / rho, 0.0)
        return int(np.count_nonzero(np.any(tails > _TAIL_RTOL * whole[:, None], axis=0)))

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """|`_rows`| and the powers of w they stand at, for `terms`."""
        return np.abs(self._rows), np.arange(self._rows.shape[1])

    def values(self, zeta):
        """``(z(zeta), z'(zeta))`` from one table of powers, truncated by `terms`."""
        zeta = np.asarray(zeta, dtype=complex)
        z, dz = _map_values((self,), zeta.reshape(1, -1))
        return z.reshape(zeta.shape), dz.reshape(zeta.shape)

    def invert(self, z, start=None):
        """Solve ``z(zeta) = z`` for points on or outside the unit circle:
        `invert` of this map alone.  Returns ``(zeta, z'(zeta))``, both shaped like z."""
        return invert((self,), (z,), (start,))[0]


def _map_values(maps, x):
    """``(z, z')`` of each map i at its row ``x[i]`` of points, as `SeriesMap.values`.

    Each map keeps the terms its own row's tail bound keeps (`SeriesMap.terms`).
    Maps whose term counts share a baby-step block size are summed in one
    `_polynomial`, each one's rows zero-padded to the longest, which only adds
    zero top blocks; maps of different block sizes are summed apart.
    """
    w = 1.0 / x
    rho = np.max(np.abs(w), axis=1, initial=0.0)
    m = [smap.terms(r) for smap, r in zip(maps, rho.tolist())]
    groups = {}
    for i, mi in enumerate(m):
        groups.setdefault(_block_size(mi), []).append(i)
    z, dz = np.empty_like(x), np.empty_like(x)
    for idx in groups.values():
        rows = np.zeros((len(idx), 2, max(m[i] for i in idx)), dtype=complex)
        for j, i in enumerate(idx):
            rows[j, :, :m[i]] = maps[i]._rows[:, :m[i]]
        sel = slice(None) if len(idx) == len(maps) else idx
        z[sel], dz[sel] = _polynomial(rows, w[sel]).transpose(1, 0, 2)
    slopes = np.array([smap._slope for smap in maps])
    return z + slopes[:, None] * x, dz


def invert(maps, z, start=None) -> list:
    """Solve ``z_i(zeta) = z[i]`` for each map i, for points on or outside the unit circle.

    ``z`` holds one point set per map, all of one shape, and ``start``,
    when given, one start (or None) per map.  Returns a ``(zeta, z'(zeta))``
    pair per map, each shaped like its points.  All maps step in one Newton
    sweep, with their evaluations stacked (`_map_values`), and each runs as
    if alone: it starts from its ``start`` when given, else from its linear
    part, a start inside the circle moved onto it, and it stops once all of
    its own points have converged.  Iterates may graze the circle (the
    series is a finite Laurent polynomial, well defined there); solutions
    ending up more than a small grace band inside signal a point interior
    to the blade, and those within it are projected onto the circle, where
    their z' is evaluated again.  The maps' failures raise in map order.
    """
    z = np.array([np.asarray(zi, dtype=complex) for zi in z])
    shape = z.shape[1:]
    z = z.reshape(len(maps), -1)
    start = (None,) * len(maps) if start is None else start
    zeta = np.array([(zi - smap._center) / smap._slope if s is None
                     else np.asarray(s, dtype=complex).ravel()
                     for smap, zi, s in zip(maps, z, start)])
    small = np.abs(zeta) < 1.0
    if small.any():
        zeta = np.where(small, np.exp(1j * np.angle(np.where(small, zeta, 1.0))), zeta)
    scale = np.maximum(np.abs(z), 1.0)
    dz = np.empty_like(z)
    failed = np.zeros(len(maps), dtype=bool)
    # the maps still iterating, and their rows
    live, live_maps, live_z, live_zeta, live_tol = (np.arange(len(maps)), maps, z, zeta,
                                                    _INVERT_TOL * scale)
    for _ in range(_INVERT_MAXITER):
        zz, live_dz = _map_values(live_maps, live_zeta)
        fz = zz - live_z
        done = np.all(np.abs(fz) <= live_tol, axis=1)
        if done.any():
            zeta[live[done]], dz[live[done]] = live_zeta[done], live_dz[done]
            going = ~done
            live, live_z, live_zeta, live_tol, fz, live_dz = (
                a[going] for a in (live, live_z, live_zeta, live_tol, fz, live_dz))
            live_maps = [maps[i] for i in live]
            if not len(live):
                break
        step = fz / live_dz
        mag = np.abs(step)
        far = mag > 1.0
        if far.any():
            step = np.where(far, step / np.maximum(mag, 1e-300), step)
        live_zeta = live_zeta - step
    else:
        zz, live_dz = _map_values(live_maps, live_zeta)
        zeta[live], dz[live] = live_zeta, live_dz
        failed[live] = ~np.all(np.abs(zz - live_z) <= 1e3 * _INVERT_TOL * scale[live], axis=1)
    out = []
    for i, smap in enumerate(maps):
        if failed[i]:
            raise OutsideDomain("map inversion did not converge")
        r = np.abs(zeta[i])
        if np.any(r < 1.0 - 1e-6):
            raise OutsideDomain("point maps inside the canonical circle")
        inside = r < 1.0
        zi, dzi = zeta[i], dz[i]
        if np.any(inside):
            zi = np.where(inside, zi / np.where(r > 0, r, 1.0), zi)
            dzi[inside] = smap.values(zi[inside])[1]
        out.append((zi.reshape(shape), dzi.reshape(shape)))
    return out


@dataclass(frozen=True)
class Pullback:
    """Analytic ``F(z) = S(zeta(z)) + log*ln(zeta(z))`` over a map.

    ``zeta(z)`` inverts ``map``, and ln is the principal branch.  A blade
    plane's log is the circulation over 2*pi.  S and S' are each summed by
    `harmonic.evaluate_series_unchecked`; S' is formed once.
    """

    series: AnalyticSeries
    map: SeriesMap
    log: complex = 0.0

    @cached_property
    def _dseries(self) -> AnalyticSeries:
        """S', formed once."""
        return self.series.derivative()

    def evaluate(self, zeta, dz):
        """``(F, F')`` at points ``zeta`` already obtained from ``map.invert``,
        where the map's z'(zeta) is ``dz``.

        The points get no second domain check: `invert` placed them.
        """
        zeta = np.asarray(zeta, dtype=complex)
        return (evaluate_series_unchecked(self.series, zeta) + self.log * np.log(zeta),
                self.derivative(zeta, dz))

    def derivative(self, zeta, dz):
        """``F'`` at inverted points ``zeta`` where the map's z'(zeta) is ``dz``:
        the slope `evaluate` returns, without the logarithm F needs."""
        zeta = np.asarray(zeta, dtype=complex)
        return (evaluate_series_unchecked(self._dseries, zeta) + self.log / zeta) / dz
