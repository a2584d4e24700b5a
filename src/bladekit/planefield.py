"""Closed algebra of planar fields built from analytic pieces.

Velocity components of the h-spline fields are real and imaginary parts of
sums of a few term shapes:

* ``S(z)``            -- an analytic function,
* ``conj(z) * S(z)``  -- the transversal-constant correction shape,
* ``c * log(zeta(z))``-- circulation terms of circle-domain pullbacks.

Every shape has exact x- and y-derivatives inside the same algebra, which is
what lets residual checks run with analytic derivatives next to finite
differences.  Analytic functions are either explicit Laurent series or
compositions ``S(zeta(z))`` with a series map ``z(zeta)`` inverted by Newton
iteration (with series ratios appearing under differentiation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, OutsideDomain
from .harmonic import (
    AnalyticSeries,
    evaluate_series,
    evaluate_series_unchecked as _raw_eval,
    integrate_series,
)

PLAIN = "plain"
ZBAR = "zbar"
LOG = "log"


class SeriesMap:
    """Analytic map ``z(zeta)`` from the circle exterior, with Newton inverse."""

    def __init__(self, series: AnalyticSeries, label: str = "map"):
        if series.high > 1:
            raise BladekitError("map series may carry at most a linear term")
        self.series = series
        self.deriv = series.derivative()
        self.label = label
        self._center = series.coefficient(0)
        self._slope = series.coefficient(1)
        if abs(self._slope) < 1e-12:
            raise BladekitError("map must be nondegenerate at infinity")

    def forward(self, zeta):
        return evaluate_series(self.series, zeta)

    def invert(self, z, maxiter: int = 60, tol: float = 1e-13):
        """Solve ``z(zeta) = z`` for points on or outside the unit circle.

        Iterates may graze the circle (the series is a finite Laurent
        polynomial, well defined there); solutions ending up more than a
        small grace band inside signal a point interior to the blade.
        """
        z = np.asarray(z, dtype=complex)
        zeta = (z - self._center) / self._slope
        small = np.abs(zeta) < 1.0
        zeta = np.where(small, np.exp(1j * np.angle(np.where(small, zeta, 1.0))), zeta)
        scale = np.maximum(np.abs(z), 1.0)
        converged = False
        for _ in range(maxiter):
            fz = _raw_eval(self.series, zeta) - z
            if np.all(np.abs(fz) <= tol * scale):
                converged = True
                break
            step = fz / _raw_eval(self.deriv, zeta)
            mag = np.abs(step)
            step = np.where(mag > 1.0, step / np.maximum(mag, 1e-300), step)
            zeta = zeta - step
        if not converged:
            fz = _raw_eval(self.series, zeta) - z
            if not np.all(np.abs(fz) <= 1e3 * tol * scale):
                raise OutsideDomain("map inversion did not converge")
        r = np.abs(zeta)
        if np.any(r < 1.0 - 1e-6):
            raise OutsideDomain("point maps inside the canonical circle")
        return np.where(r < 1.0, zeta / np.where(r > 0, r, 1.0), zeta)


@dataclass(frozen=True)
class SeriesSource:
    """Analytic function given directly by a Laurent series in z."""

    series: AnalyticSeries

    def value(self, z):
        return evaluate_series(self.series, z)

    def derivative(self):
        return SeriesSource(self.series.derivative())

    def antiderivative(self, z_ref: complex):
        return [(1.0, SeriesSource(integrate_series(self.series, z_ref)))]


@dataclass(frozen=True)
class PullbackSource:
    """Composition ``num(zeta(z)) / den(zeta(z))`` over a series map."""

    num: AnalyticSeries
    map: SeriesMap
    den: AnalyticSeries | None = None

    def value(self, z):
        zeta = self.map.invert(z)
        out = evaluate_series(self.num, zeta)
        if self.den is not None:
            out = out / evaluate_series(self.den, zeta)
        return out

    def derivative(self):
        if self.den is None:
            return PullbackSource(self.num.derivative(), self.map, self.map.deriv)
        dnum = self.num.derivative() * self.den - self.num * self.den.derivative()
        return PullbackSource(dnum, self.map, self.den * self.den * self.map.deriv)

    def antiderivative(self, z_ref: complex):
        """Terms of ``int num(zeta(z)) dz``; circulation shows up as a log term."""
        if self.den is not None:
            raise BladekitError("cannot integrate a series ratio")
        integrand = self.num * self.map.deriv
        residue = integrand.coefficient(-1)
        body = integrand - AnalyticSeries(np.array([residue]), low=-1)
        zeta_ref = self.map.invert(np.array([complex(z_ref)]))[0]
        anti = integrate_series(body.trimmed(1e-15), zeta_ref)
        terms = [(1.0, PullbackSource(anti, self.map))]
        if abs(residue) > 1e-14 * max(np.max(np.abs(integrand.coefficients)), 1e-300):
            terms.append((residue, LogSource(self.map, zeta_ref)))
        return terms


@dataclass(frozen=True)
class LogSource:
    """``log(zeta(z)) - log(zeta_ref)`` on a branch away from the cut."""

    map: SeriesMap
    zeta_ref: complex

    def value(self, z):
        zeta = self.map.invert(z)
        return np.log(zeta) - np.log(self.zeta_ref)

    def derivative(self):
        one_over = AnalyticSeries(np.array([1.0 + 0.0j]), low=0)
        zeta_series = AnalyticSeries(np.array([1.0 + 0.0j]), low=1)
        return PullbackSource(one_over, self.map, zeta_series * self.map.deriv)

    def antiderivative(self, z_ref: complex):
        raise BladekitError("log terms are never integrated")


@dataclass(frozen=True)
class ComplexTerm:
    coeff: complex
    kind: str
    source: object

    def value(self, z):
        if self.kind == PLAIN or self.kind == LOG:
            return self.coeff * self.source.value(z)
        if self.kind == ZBAR:
            return self.coeff * np.conj(z) * self.source.value(z)
        raise BladekitError(f"unknown term kind {self.kind!r}")

    def dx(self) -> list["ComplexTerm"]:
        d = self.source.derivative()
        if self.kind in (PLAIN, LOG):
            return [ComplexTerm(self.coeff, PLAIN, d)]
        if self.kind == ZBAR:
            return [ComplexTerm(self.coeff, ZBAR, d), ComplexTerm(self.coeff, PLAIN, self.source)]
        raise BladekitError(f"unknown term kind {self.kind!r}")

    def dy(self) -> list["ComplexTerm"]:
        d = self.source.derivative()
        if self.kind in (PLAIN, LOG):
            return [ComplexTerm(self.coeff * 1.0j, PLAIN, d)]
        if self.kind == ZBAR:
            return [ComplexTerm(self.coeff * 1.0j, ZBAR, d), ComplexTerm(self.coeff * -1.0j, PLAIN, self.source)]
        raise BladekitError(f"unknown term kind {self.kind!r}")


@dataclass(frozen=True)
class ComplexPlaneField:
    """Finite sum of analytic-backed terms, closed under d/dx and d/dy."""

    terms: tuple = ()

    @staticmethod
    def from_series(series: AnalyticSeries, coeff: complex = 1.0) -> "ComplexPlaneField":
        return ComplexPlaneField((ComplexTerm(complex(coeff), PLAIN, SeriesSource(series)),))

    @staticmethod
    def from_source(source, coeff: complex = 1.0, kind: str = PLAIN) -> "ComplexPlaneField":
        return ComplexPlaneField((ComplexTerm(complex(coeff), kind, source),))

    @staticmethod
    def zbar_multiple(coeff: complex) -> "ComplexPlaneField":
        one = AnalyticSeries(np.array([1.0 + 0.0j]), low=0)
        return ComplexPlaneField((ComplexTerm(complex(coeff), ZBAR, SeriesSource(one)),))

    def __add__(self, other: "ComplexPlaneField") -> "ComplexPlaneField":
        return ComplexPlaneField(self.terms + other.terms)

    def __sub__(self, other: "ComplexPlaneField") -> "ComplexPlaneField":
        return self + other * (-1.0)

    def __mul__(self, c) -> "ComplexPlaneField":
        c = complex(c)
        return ComplexPlaneField(tuple(ComplexTerm(t.coeff * c, t.kind, t.source) for t in self.terms))

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for t in self.terms:
            out = out + t.value(z)
        return out

    def dx(self) -> "ComplexPlaneField":
        return ComplexPlaneField(tuple(s for t in self.terms for s in t.dx()))

    def dy(self) -> "ComplexPlaneField":
        return ComplexPlaneField(tuple(s for t in self.terms for s in t.dy()))

    def antiderivative(self, z_ref: complex) -> "ComplexPlaneField":
        """Term-wise antiderivative; only PLAIN terms can be integrated."""
        out = []
        for t in self.terms:
            if t.kind != PLAIN:
                raise BladekitError(f"cannot integrate a {t.kind} term")
            for c, src in t.source.antiderivative(z_ref):
                kind = LOG if isinstance(src, LogSource) else PLAIN
                out.append(ComplexTerm(t.coeff * c, kind, src))
        return ComplexPlaneField(tuple(out))


@dataclass(frozen=True)
class ScalarPlaneField:
    """Real field: Re or Im of a complex field, plus a real constant."""

    complex_field: ComplexPlaneField
    part: str = "re"
    const: float = 0.0

    def __post_init__(self):
        if self.part not in ("re", "im"):
            raise BladekitError("part must be 're' or 'im'")

    def __call__(self, x, y):
        z = np.asarray(x, dtype=float) + 1.0j * np.asarray(y, dtype=float)
        w = self.complex_field.value(z)
        base = w.real if self.part == "re" else w.imag
        return base + self.const

    def plus_const(self, delta: float) -> "ScalarPlaneField":
        return ScalarPlaneField(self.complex_field, self.part, self.const + float(delta))

    def __add__(self, other: "ScalarPlaneField") -> "ScalarPlaneField":
        a = self._as_re()
        b = other._as_re()
        return ScalarPlaneField(a.complex_field + b.complex_field, "re", a.const + b.const)

    def _as_re(self) -> "ScalarPlaneField":
        if self.part == "re":
            return self
        # Im F = Re(-i F)
        return ScalarPlaneField(self.complex_field * (-1.0j), "re", self.const)

    def dx(self) -> "ScalarPlaneField":
        return ScalarPlaneField(self.complex_field.dx(), self.part, 0.0)

    def dy(self) -> "ScalarPlaneField":
        return ScalarPlaneField(self.complex_field.dy(), self.part, 0.0)


def real_part(field: ComplexPlaneField, const: float = 0.0) -> ScalarPlaneField:
    return ScalarPlaneField(field, "re", const)


def imag_part(field: ComplexPlaneField, const: float = 0.0) -> ScalarPlaneField:
    return ScalarPlaneField(field, "im", const)
