"""Spectral machinery on the unit circle.

Everything here works with samples at the equispaced angles
``gamma_k = 2*pi*k/n`` (n a power of two) and with finite Laurent series.
A series is stored as a contiguous coefficient window ``[low, high]`` of
integer powers of zeta; the classical cases are `interior` (powers >= 0,
analytic in the disk) and `exterior` (powers <= 0, analytic outside the
circle and bounded at infinity).

The conjugation convention is the interior one: ``cos k*gamma -> sin k*gamma``,
``sin k*gamma -> -cos k*gamma`` for k >= 1, constants map to zero.  The
exterior Schwarz problem is solved by index reversal (``zeta -> 1/zeta``)
rather than by a second sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, MultivaluedAntiderivative, OutsideDomain

_BOUNDARY_ATOL = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class BoundarySamples:
    """Real or complex samples at the n equispaced circle angles."""

    values: np.ndarray
    n: int = 0

    def __post_init__(self):
        values = np.asarray(self.values)
        if not np.all(np.isfinite(values)):
            raise BladekitError("boundary samples must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", len(values))
        if self.n < 8 or not _is_power_of_two(self.n):
            raise BladekitError(
                f"sample count must be a power of two >= 8, got {self.n}"
            )

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)


@dataclass(frozen=True)
class AnalyticSeries:
    """Finite Laurent series ``sum_k c_k zeta**k`` for k in [low, low+len-1].

    `interior` series hold powers >= 0, `exterior` series powers <= 0 so
    they stay bounded at infinity.  Mixed windows arise internally, e.g.
    as antiderivatives of exterior series, and are tagged `laurent`.
    """

    coefficients: np.ndarray
    low: int = 0

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise BladekitError("series needs a one-dimensional coefficient array")
        if not np.all(np.isfinite(coeffs)):
            raise BladekitError("series coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def interior(coeffs) -> "AnalyticSeries":
        """Series c_0 + c_1 zeta + ... analytic in the disk (and entire)."""
        return AnalyticSeries(np.asarray(coeffs, dtype=complex), low=0)

    @staticmethod
    def exterior(coeffs) -> "AnalyticSeries":
        """Series c_0 + c_1/zeta + ... analytic outside the unit circle."""
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        return AnalyticSeries(c[::-1].copy(), low=-(len(c) - 1))

    @staticmethod
    def zero() -> "AnalyticSeries":
        return AnalyticSeries(np.zeros(1, dtype=complex), low=0)

    # -- structure ---------------------------------------------------------

    @property
    def high(self) -> int:
        return self.low + len(self.coefficients) - 1

    @property
    def orientation(self) -> str:
        if self.low >= 0:
            return "interior"
        if self.high <= 0:
            return "exterior"
        return "laurent"

    @property
    def degree(self) -> int:
        return max(abs(self.low), abs(self.high))

    def coefficient(self, power: int) -> complex:
        if self.low <= power <= self.high:
            return complex(self.coefficients[power - self.low])
        return 0.0 + 0.0j

    def exterior_coefficients(self) -> np.ndarray:
        """Coefficients c_k of zeta**-k, k = 0..m, for an exterior series."""
        if self.low > 0 or self.high > 0:
            raise BladekitError("series has positive powers")
        return self.coefficients[::-1].copy()

    def trimmed(self, rtol: float = 0.0) -> "AnalyticSeries":
        """Drop negligible leading/trailing coefficients."""
        c = self.coefficients
        tol = rtol * np.max(np.abs(c)) if len(c) else 0.0
        keep = np.where(np.abs(c) > tol)[0]
        if len(keep) == 0:
            return AnalyticSeries.zero()
        return AnalyticSeries(c[keep[0]: keep[-1] + 1].copy(), low=self.low + keep[0])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "AnalyticSeries") -> "AnalyticSeries":
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        c = np.zeros(high - low + 1, dtype=complex)
        c[self.low - low: self.low - low + len(self.coefficients)] += self.coefficients
        c[other.low - low: other.low - low + len(other.coefficients)] += other.coefficients
        return AnalyticSeries(c, low=low)

    def __sub__(self, other: "AnalyticSeries") -> "AnalyticSeries":
        return self + (other * (-1.0))

    def __mul__(self, factor) -> "AnalyticSeries":
        if isinstance(factor, AnalyticSeries):
            c = np.convolve(self.coefficients, factor.coefficients)
            return AnalyticSeries(c, low=self.low + factor.low)
        return AnalyticSeries(self.coefficients * complex(factor), low=self.low)

    __rmul__ = __mul__

    def derivative(self) -> "AnalyticSeries":
        powers = np.arange(self.low, self.high + 1)
        c = self.coefficients * powers
        if self.low == 0:
            if len(c) == 1:
                return AnalyticSeries.zero()
            return AnalyticSeries(c[1:], low=0)
        return AnalyticSeries(c, low=self.low - 1)


def evaluate_series(f: AnalyticSeries, z):
    """Evaluate a series by Horner recursion, highest degree first.

    Exterior (or mixed-window) series are only defined for ``|z| >= 1``;
    evaluation inside raises `OutsideDomain`.
    """
    z = np.asarray(z, dtype=complex)
    if f.low < 0 and np.any(np.abs(z) < 1.0 - 1e-12):
        raise OutsideDomain("series with negative powers evaluated inside the circle")
    return evaluate_series_unchecked(f, z)


def evaluate_series_unchecked(f: AnalyticSeries, z):
    """Horner evaluation without the domain guard (internal use)."""
    z = np.asarray(z, dtype=complex)
    c = f.coefficients
    # split into nonnegative-power and negative-power parts
    acc = np.zeros_like(z)
    if f.high >= 0:
        start = max(f.low, 0)
        cpos = c[start - f.low:]
        val = np.zeros_like(z)
        for ck in cpos[::-1]:
            val = val * z + ck
        if start > 0:
            val = val * z ** start
        acc = acc + val
    if f.low < 0:
        stop = min(f.high, -1)
        cneg = c[: stop - f.low + 1]          # powers low..stop, ascending
        w = 1.0 / z
        val = np.zeros_like(z)
        for ck in cneg:                        # deepest power first
            val = val * w + ck
        val = val * w ** (-stop)
        acc = acc + val
    return acc if acc.shape else complex(acc)


def integrate_series(f: AnalyticSeries, z0: complex, residue_rtol: float = 1e-10) -> AnalyticSeries:
    """Term-wise antiderivative fixed to vanish at ``z0``.

    A nonzero coefficient of ``1/zeta`` has no single-valued antiderivative;
    coefficients below ``residue_rtol`` times the series scale are treated
    as roundoff and dropped.
    """
    res = f.coefficient(-1)
    scale = float(np.max(np.abs(f.coefficients))) or 1.0
    if abs(res) > residue_rtol * scale:
        raise MultivaluedAntiderivative(
            f"residue coefficient {res:.3e} prevents integration"
        )
    powers = np.arange(f.low, f.high + 1)
    keep = powers != -1
    c = f.coefficients[keep] / (powers[keep] + 1.0)
    # shifted window, with a slot at power 0 for the integration constant
    low = min(f.low + 1, 0)
    high = max(f.high + 1, 0)
    out = np.zeros(high - low + 1, dtype=complex)
    out[(powers[keep] + 1) - low] = c
    offset = evaluate_series(AnalyticSeries(out, low=low), z0)
    out[-low] -= offset
    return AnalyticSeries(out, low=low)


def boundary_values(f: AnalyticSeries, n: int) -> np.ndarray:
    """Values of the series at the n circle nodes, via one FFT."""
    if f.degree >= n:
        raise BladekitError("series degree too high for this node count")
    spectrum = np.zeros(n, dtype=complex)
    for k, p in enumerate(range(f.low, f.high + 1)):
        spectrum[p % n] += f.coefficients[k]
    return np.fft.ifft(spectrum) * n


def trig_fit(s: BoundarySamples) -> AnalyticSeries:
    """Interior series F with Re F on the circle interpolating real samples.

    The returned interpolant reproduces the samples at the nodes exactly
    (to roundoff); the Nyquist cosine mode is kept so this holds for any
    real input.
    """
    if not s.is_real():
        raise BladekitError("trig_fit expects real samples")
    n = s.n
    spec = np.fft.rfft(s.values)
    c = np.empty(n // 2 + 1, dtype=complex)
    c[0] = spec[0].real / n
    c[1:-1] = 2.0 * spec[1:-1] / n
    c[-1] = spec[-1].real / n
    return AnalyticSeries.interior(c)


def conjugate_on_circle(s: BoundarySamples) -> BoundarySamples:
    """Boundary trace of the conjugate harmonic function, zero mean.

    Multiplies mode k by -i for 0 < k < n/2 and by +i for k > n/2; the mean
    and the Nyquist mode map to zero.
    """
    n = s.n
    spec = np.fft.fft(s.values)
    mult = np.zeros(n, dtype=complex)
    mult[1: n // 2] = -1.0j
    mult[n // 2 + 1:] = 1.0j
    out = np.fft.ifft(spec * mult)
    if s.is_real():
        out = out.real
    return BoundarySamples(out)


def analytic_from_real_boundary(re: BoundarySamples, orientation: str = "interior") -> AnalyticSeries:
    """Schwarz operator: analytic series whose boundary real part matches.

    Truncates at n/2 - 1 harmonics (the Nyquist sine is not observable on
    the grid); the imaginary part has zero mean, i.e. Im c_0 = 0.  The
    exterior problem is the interior one for angle-reversed data.
    """
    if not re.is_real():
        raise BladekitError("Schwarz data must be real")
    if orientation not in ("interior", "exterior"):
        raise BladekitError(f"unknown orientation {orientation!r}")
    values = re.values
    if orientation == "exterior":
        values = np.roll(values[::-1], 1)      # gamma -> -gamma on the grid
    n = len(values)
    spec = np.fft.rfft(values)
    c = np.empty(n // 2, dtype=complex)
    c[0] = spec[0].real / n
    c[1:] = 2.0 * spec[1:-1] / n
    series = AnalyticSeries.interior(c)
    if orientation == "exterior":
        return AnalyticSeries.exterior(c)
    return series


def differentiate_boundary(values: np.ndarray) -> np.ndarray:
    """Spectral derivative of periodic nodal values with respect to angle."""
    n = len(values)
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0                            # Nyquist derivative convention
    out = np.fft.ifft(1.0j * k * np.fft.fft(values))
    return out.real if not np.iscomplexobj(values) else out


def cumulative_boundary_integral(values: np.ndarray) -> tuple[np.ndarray, complex]:
    """Antiderivative in angle of periodic nodal values.

    Returns nodal values of ``int_0^gamma (v - mean) dtheta`` and the mean,
    so the full antiderivative is ``table + mean*gamma``.
    """
    n = len(values)
    spec = np.fft.fft(values)
    mean = spec[0] / n
    k = np.fft.fftfreq(n, 1.0 / n)
    k[0] = 1.0
    k[n // 2] = 1.0
    anti = spec / (1.0j * k)
    anti[0] = 0.0
    anti[n // 2] = 0.0                         # mean handled separately; Nyquist dropped
    table = np.fft.ifft(anti)
    table = table - table[0]
    if not np.iscomplexobj(values):
        table = table.real
        mean = mean.real
    return table, mean
