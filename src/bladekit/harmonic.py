"""Spectral machinery on the unit circle.

Everything here works with samples at the equispaced angles
``gamma_k = 2*pi*k/n`` (n a power of two) and with finite Laurent series.
A series is stored as a contiguous coefficient window ``[low, high]`` of
integer powers of zeta; the classical cases are `interior` (powers >= 0,
analytic in the disk) and `exterior` (powers <= 0, analytic outside the
circle and bounded at infinity).

Nodal values become exterior series in two ways: `analytic_from_real_boundary`
(the Schwarz operator, from a real part) and `exterior_projection` (from
complex values).  The Schwarz problem is solved by index reversal
(``zeta -> 1/zeta``) of the interior one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, MultivaluedAntiderivative, OutsideDomain

RESIDUE_RTOL = 1e-7     # a 1/zeta coefficient this share of the largest is roundoff


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AnalyticSeries:
    """Finite Laurent series ``sum_k c_k zeta**k`` for k in [low, low+len-1].

    `interior` series hold powers >= 0, `exterior` series powers <= 0 so
    they stay bounded at infinity.  Mixed windows arise internally, e.g.
    as antiderivatives of exterior series.
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
    def degree(self) -> int:
        return max(abs(self.low), abs(self.high))

    def coefficient(self, power: int) -> complex:
        if self.low <= power <= self.high:
            return complex(self.coefficients[power - self.low])
        return 0.0 + 0.0j

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
    """Evaluate a series at points z (a scalar gives a `complex`).

    Exterior (or mixed-window) series are only defined for ``|z| >= 1``;
    evaluation inside raises `OutsideDomain`.
    """
    z = np.asarray(z, dtype=complex)
    if f.low < 0 and np.any(np.abs(z) < 1.0 - 1e-12):
        raise OutsideDomain("series with negative powers evaluated inside the circle")
    return evaluate_series_unchecked(f, z)


def evaluate_series_unchecked(f: AnalyticSeries, z):
    """`evaluate_series` without the domain guard (internal use)."""
    z = np.asarray(z, dtype=complex)
    acc = evaluate_series_together((f,), z.ravel())[0]
    return acc.reshape(z.shape) if z.shape else complex(acc[0])


def evaluate_series_together(fs, x: np.ndarray) -> list:
    """Each series of ``fs`` at the flat points x, without the domain guard.

    The powers >= 0 of a series form a polynomial in x and its negative
    powers one in ``w = 1/x`` times ``w**(-stop)``; each is summed by
    `_polynomial`.  The series share one table of powers of x and one of
    powers of w, as long as the longest part needs, and each takes its own
    block size's rows of it, so every value is bit for bit its series alone.
    """
    pos = [f.coefficients[max(f.low, 0) - f.low:] if f.high >= 0 else None for f in fs]
    neg = [f.coefficients[min(f.high, -1) - f.low:: -1] if f.low < 0 else None for f in fs]
    w = 1.0 / x if any(c is not None for c in neg) else None
    xs, ws = _shared_powers(x, pos), _shared_powers(w, neg)
    out = []
    for f, cp, cn in zip(fs, pos, neg):
        acc = 0.0
        if cp is not None:
            val = _polynomial(cp, x, xs)
            if f.low > 0:
                val = val * x ** f.low
            acc = acc + val
        if cn is not None:
            acc = acc + _polynomial(cn, w, ws) * w ** (-min(f.high, -1))
        out.append(acc)
    return out


def _shared_powers(x, coefficients):
    """The baby-step table of x for the longest of ``coefficients`` (None entries skipped)."""
    sizes = [len(c) for c in coefficients if c is not None]
    return _powers(x, _block_size(max(sizes))) if sizes else None


def _block_size(m: int) -> int:
    """Baby-step block size ``ceil(sqrt(m))`` of an m-term polynomial."""
    return math.isqrt(m - 1) + 1


def _powers(x: np.ndarray, b: int) -> np.ndarray:
    """``x**k`` for k < b by repeated products, on the second-to-last axis:
    shape ``x.shape[:-1] + (b, x.shape[-1])``."""
    table = np.empty(x.shape[:-1] + (b, x.shape[-1]), dtype=complex)
    table[..., 0, :] = 1.0
    for k in range(1, b):
        np.multiply(table[..., k - 1, :], x, out=table[..., k, :])
    return table


def _polynomial(c: np.ndarray, x: np.ndarray, table=None) -> np.ndarray:
    """``sum_k c[..., k] * x**k`` by baby steps and giant steps (Paterson-Stockmeyer).

    With block size ``B = ceil(sqrt(m))`` the table ``X[k] = x**k``, k < B,
    turns the coefficients, zero-padded and cut into blocks of B, into block
    values ``Y = C @ X``; Horner in ``x**B`` sums the blocks.  That is about
    2*sqrt(m) array operations instead of m.  Several rows of coefficients
    share one table and one product; the result has one row per row of c.
    A ``table`` of at least B powers of x may be passed in, to share it.

    x may carry leading axes: each index of them is its own point set, with
    its own coefficient rows (c has the same leading axes) and its own
    table, and all of them are summed in the same array operations.  Zero
    top coefficients, from padding a shorter polynomial to the others' m,
    add zero blocks, exact in the Horner (``0*g + y = y``).
    """
    lead, n = x.shape[:-1], x.shape[-1]
    m = c.shape[-1]
    rows = c.reshape(lead + (-1, m))
    r = rows.shape[-2]
    b = _block_size(m)
    nb = -(-m // b)
    blocks = np.zeros(lead + (r, nb * b), dtype=complex)
    blocks[..., :m] = rows
    table = _powers(x, b) if table is None else table[..., :b, :]
    y = blocks.reshape(lead + (r * nb, b)) @ table
    if nb == 1:
        return y.reshape(c.shape[:-1] + (n,))
    # Horner over the blocks, each step over every row at once; the operands
    # are views of y and the giant step x**B, whose every row is contiguous
    y = y.reshape(lead + (r, nb, n))
    giant = (table[..., b - 1, :] * x)[..., None, :]
    val = y[..., nb - 1, :] * giant
    val += y[..., nb - 2, :]
    for j in range(nb - 3, -1, -1):
        val *= giant
        val += y[..., j, :]
    return val.reshape(c.shape[:-1] + (n,))


def integrate_series(f: AnalyticSeries, z0: complex) -> AnalyticSeries:
    """Term-wise antiderivative fixed to vanish at ``z0``.

    A nonzero coefficient of ``1/zeta`` has no single-valued antiderivative;
    coefficients below ``RESIDUE_RTOL`` times the series scale are treated
    as roundoff and dropped.
    """
    res = f.coefficient(-1)
    scale = float(np.max(np.abs(f.coefficients))) or 1.0
    if abs(res) > RESIDUE_RTOL * scale:
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
    np.add.at(spectrum, np.arange(f.low, f.high + 1) % n, f.coefficients)
    return np.fft.ifft(spectrum) * n


def analytic_from_real_boundary(values):
    """Exterior Schwarz operator: series in powers <= 0 whose real part matches
    the real samples ``values`` at the n equispaced circle angles.

    Truncates at n/2 - 1 harmonics (the Nyquist sine is not observable on
    the grid); the imaginary part has zero mean, i.e. Im c_0 = 0.  The
    exterior problem is the interior one for angle-reversed data.  The
    samples run along the last axis; a stack of rows gives a list of
    series, one per row, from one FFT along that axis.
    """
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise BladekitError("boundary samples must be finite")
    n = values.shape[-1]
    if n < 8 or not _is_power_of_two(n):
        raise BladekitError(f"sample count must be a power of two >= 8, got {n}")
    if np.iscomplexobj(values):
        raise BladekitError("Schwarz data must be real")
    values = np.roll(values[..., ::-1], 1, axis=-1)     # gamma -> -gamma on the grid
    spec = np.fft.rfft(values)
    c = np.empty(spec.shape[:-1] + (n // 2,), dtype=complex)
    c[..., 0] = spec[..., 0].real / n
    c[..., 1:] = 2.0 * spec[..., 1:-1] / n
    if c.ndim == 1:
        return AnalyticSeries.exterior(c)
    return [AnalyticSeries.exterior(row) for row in c]


def exterior_projection(values: np.ndarray) -> AnalyticSeries:
    """Exterior series of the n/2 modes of powers 0..-(n/2 - 1) of nodal values.

    The modes of positive power and the Nyquist mode are dropped, so for
    the boundary trace of an exterior series of degree below n/2 this
    returns that series.
    """
    n = len(values)
    spec = np.fft.fft(values) / n
    return AnalyticSeries(np.append(spec[n // 2 + 1:], spec[0]), low=1 - n // 2)


def differentiate_boundary(values: np.ndarray) -> np.ndarray:
    """Spectral derivative of periodic nodal values with respect to angle,
    along the last axis."""
    n = values.shape[-1]
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0                            # Nyquist derivative convention
    out = np.fft.ifft(1.0j * k * np.fft.fft(values))
    return out.real if not np.iscomplexobj(values) else out
