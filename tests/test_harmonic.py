import mpmath
import numpy as np
import pytest

import oracles
from bladekit.errors import BladekitError, MultivaluedAntiderivative, OutsideDomain
from bladekit.harmonic import (
    AnalyticSeries,
    analytic_from_real_boundary,
    boundary_values,
    differentiate_boundary,
    evaluate_series,
    evaluate_series_unchecked,
    exterior_projection,
    integrate_series,
    value_at_angle,
)


def angles(n):
    return 2 * np.pi * np.arange(n) / n


class TestSchwarz:
    def test_cos_gives_zeta(self):
        # Re(1/zeta) = cos(gamma) on the circle
        g = angles(16)
        f = analytic_from_real_boundary(np.cos(g))
        assert abs(f.coefficient(-1) - 1.0) < 1e-13
        assert abs(f.coefficient(0)) < 1e-14

    def test_zero(self):
        f = analytic_from_real_boundary(np.zeros(16))
        assert np.max(np.abs(f.coefficients)) < 1e-15

    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(11)
        n = 64
        g = angles(n)
        data = rng.standard_normal() * np.ones(n)
        for k in range(1, n // 2):
            data += rng.standard_normal() * np.cos(k * g) + rng.standard_normal() * np.sin(k * g)
        f = analytic_from_real_boundary(data)
        vals = evaluate_series(f, np.exp(1j * g)).real
        assert np.max(np.abs(vals - data)) < 1e-10
        # imaginary part has zero mean
        imag = evaluate_series(f, np.exp(1j * g)).imag
        assert abs(imag.mean()) < 1e-12

    def test_exterior_round_trip(self):
        rng = np.random.default_rng(13)
        n = 64
        g = angles(n)
        data = np.zeros(n)
        for k in range(n // 2):
            a = rng.standard_normal() / (1 + k)
            b = rng.standard_normal() / (1 + k)
            data += a * np.cos(k * g) + b * np.sin(k * g)
        f = analytic_from_real_boundary(data)
        vals = evaluate_series(f, np.exp(1j * g)).real
        assert np.max(np.abs(vals - data)) < 1e-10
        # bounded at infinity: no positive powers
        assert f.high <= 0

    @pytest.mark.parametrize("data, message", [
        (np.cos(angles(16)) + 0j, "Schwarz data must be real"),
        (np.where(np.arange(16) == 3, np.nan, 1.0), "boundary samples must be finite"),
        (np.ones(12), "sample count must be a power of two >= 8, got 12"),
    ], ids=["complex", "nan", "twelve"])
    def test_refused_data(self, data, message):
        with pytest.raises(BladekitError, match=message):
            analytic_from_real_boundary(data)


class TestSeriesCalculus:
    def test_integrate_constant(self):
        f = AnalyticSeries.interior([1.0])
        F = integrate_series(f)
        assert abs(evaluate_series(F, 2.0 + 1.0j) - (2.0 + 1.0j)) < 1e-14

    def test_integrate_iz(self):
        f = AnalyticSeries.interior([0.0, 1.0j])
        F = integrate_series(f)
        z = 1.3 - 0.4j
        assert abs(evaluate_series(F, z) - 0.5j * z**2) < 1e-14

    def test_integrate_has_a_zero_constant(self):
        f = AnalyticSeries.exterior([3.0, 0.0, 2.0j])      # 3 + 2i/zeta**2
        F = integrate_series(f)
        assert (F.low, F.high) == (-1, 1) and F.coefficient(0) == 0
        z = np.array([1.0, 2.0, -1.5j])
        assert np.max(np.abs(evaluate_series(F, z) - (3 * z - 2j / z))) < 1e-14

    def test_residue_raises(self):
        f = AnalyticSeries.exterior([0.0, 1.0])  # 1/zeta
        with pytest.raises(MultivaluedAntiderivative):
            integrate_series(f)

    def test_derivative_inverts_integration(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = AnalyticSeries.interior(c)
        back = integrate_series(f).derivative()
        assert back.low == 0
        assert np.max(np.abs(back.coefficients[:6] - c)) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            c1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            c2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            a, b = rng.standard_normal(2)
            f = AnalyticSeries.interior(a * c1 + b * c2)
            g = AnalyticSeries.interior(c1) * a + AnalyticSeries.interior(c2) * b
            z = rng.standard_normal() + 1j * rng.standard_normal()
            assert abs(evaluate_series(f, z) - evaluate_series(g, z)) < 1e-12


class TestEvaluate:
    def test_square(self):
        f = AnalyticSeries.interior([0, 0, 1])
        assert abs(evaluate_series(f, 2j) - (-4.0)) < 1e-14

    def test_exterior_value(self):
        f = AnalyticSeries.exterior([1.0, 1.0])  # 1 + 1/zeta
        assert abs(evaluate_series(f, 2.0) - 1.5) < 1e-14

    def test_exterior_inside_raises(self):
        f = AnalyticSeries.exterior([1.0, 1.0])
        with pytest.raises(OutsideDomain):
            evaluate_series(f, 0.5)
        mixed = AnalyticSeries(np.ones(5, complex), low=-2)
        with pytest.raises(OutsideDomain):
            evaluate_series(mixed, np.array([1.5, 2.0, 0.9j]))
        # powers >= 0 are entire; the unchecked kernel evaluates anywhere
        interior = AnalyticSeries.interior([1.0, 2.0, 3.0])
        assert evaluate_series(interior, 0.5) == pytest.approx(2.75)
        assert evaluate_series_unchecked(mixed, 0.5) == pytest.approx(4 + 2 + 1 + 0.5 + 0.25)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(23)
        c = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 2 ** np.arange(12)
        f = AnalyticSeries.exterior(c)
        z = 1.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
        naive = sum(ck * z ** (-k) for k, ck in enumerate(c))
        fast = evaluate_series(f, z)
        assert np.max(np.abs(fast - naive) / np.abs(naive)) < 1e-14

    def test_boundary_values_match_pointwise(self):
        rng = np.random.default_rng(29)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = AnalyticSeries.exterior(c)
        n = 32
        fast = boundary_values(f, n)
        direct = evaluate_series(f, np.exp(1j * angles(n)))
        assert np.max(np.abs(fast - direct)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096])
    def test_one_angle_sum_is_the_boundary_value_at_each_node(self, n):
        # the window of a map's antiderivative at n, powers 2 - n/2 .. 1;
        # within oracles.circle_sum_bound, derived there
        rng = np.random.default_rng(n)
        m = n // 2
        f = AnalyticSeries(rng.standard_normal(m) + 1j * rng.standard_normal(m), low=2 - m)
        bound = oracles.circle_sum_bound(f, n)
        got = np.array([value_at_angle(f, 2 * np.pi * j / n) for j in range(n)])
        assert np.max(np.abs(got - boundary_values(f, n))) <= bound


class TestBoundaryCalculus:
    def test_spectral_derivative(self):
        n = 64
        g = angles(n)
        vals = np.sin(3 * g) + 0.5 * np.cos(5 * g)
        d = differentiate_boundary(vals)
        exact = 3 * np.cos(3 * g) - 2.5 * np.sin(5 * g)
        assert np.max(np.abs(d - exact)) < 1e-11

    @pytest.mark.parametrize("n", [8, 4096])
    def test_nyquist_mode_is_zeroed(self, n):
        """A real trigonometric polynomial with every kind of mode: the
        constant, the lowest, the highest below Nyquist and the Nyquist
        cosine, whose derivative on the grid is taken as zero.

        The bound: the forward and the backward FFT each add at most
        ``5*log2(n)*u`` times the 2-norm they transform (Higham, *Accuracy
        and Stability of Numerical Algorithms*, 2nd ed., section 24.1);
        the derivative multiplies the spectrum by k <= n/2, and a sample's
        error is at most the 2-norm of all of them.  The samples' 2-norm is
        at most ``sqrt(n)*C`` with C the sum of the coefficient moduli, so
        ``|error| <= 10*log2(n)*u*(n/2)*sqrt(n)*C``.
        """
        g = angles(n)
        rng = np.random.default_rng(n)
        modes = np.array([1, n // 2 - 1])
        a, b = rng.standard_normal((2, 2))
        vals = 0.3 + 0.7 * np.cos(n // 2 * g) + sum(
            ak * np.cos(k * g) + bk * np.sin(k * g) for k, ak, bk in zip(modes, a, b))
        exact = sum(k * (bk * np.cos(k * g) - ak * np.sin(k * g))
                    for k, ak, bk in zip(modes, a, b))
        c_sum = 0.3 + 0.7 + np.sum(np.abs(a)) + np.sum(np.abs(b))
        bound = 10 * np.log2(n) * 2.0 ** -53 * (n / 2) * np.sqrt(n) * c_sum
        assert np.max(np.abs(differentiate_boundary(vals) - exact)) <= bound

    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_each_row_of_a_batch_is_its_derivative_alone(self, n):
        rows = np.random.default_rng(n).standard_normal((6, n))
        batch = differentiate_boundary(rows)
        for row, got in zip(rows, batch):
            assert np.array_equal(got, differentiate_boundary(row))


class TestExteriorProjection:
    def test_recovers_exterior_series(self):
        rng = np.random.default_rng(31)
        n = 32
        c = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
        f = AnalyticSeries.exterior(c)
        back = exterior_projection(boundary_values(f, n))
        assert back.low == -(n // 2 - 1) and back.high == 0
        assert np.max(np.abs(back.coefficients - f.coefficients)) < 1e-13

    def test_drops_positive_and_nyquist_modes(self):
        n = 16
        g = angles(n)
        vals = 2.0 + 3.0 * np.exp(-2j * g) + np.exp(1j * g) + np.cos(n // 2 * g)
        f = exterior_projection(vals)
        expect = AnalyticSeries.exterior([2.0, 0.0, 3.0])
        assert np.max(np.abs((f + expect * -1.0).coefficients)) < 1e-14


# (low, length) of the windows evaluated against mpmath: pure negative,
# pure nonnegative and mixed, up to the 4100 terms of a long map series
WINDOWS = [(-1, 1), (0, 1), (3, 1), (-2, 2), (0, 2), (-1, 3), (-30, 31), (0, 31),
           (-12, 40), (-256, 257), (2, 100), (-700, 700), (-1000, 1025), (0, 700),
           (-2048, 2049), (-4099, 4100), (-2040, 4100), (0, 4100)]
EPS = np.finfo(float).eps


def _window_case(low, length, rng, points=4):
    """Random coefficients on the window, points with |z| in [1, 4], and the
    values to 50 digits.  |z| is capped where z**high would leave the float
    range for unit-size coefficients."""
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    high = low + length - 1
    r_max = min(4.0, 10.0 ** (200.0 / high)) if high > 0 else 4.0
    z = rng.uniform(1.0, r_max, points) * np.exp(1j * rng.uniform(0, 2 * np.pi, points))
    powers = np.arange(low, high + 1)
    scale = np.abs(c) @ np.abs(z[None, :]) ** powers[:, None]
    with mpmath.workdps(50):
        cs = [mpmath.mpc(ck.real, ck.imag) for ck in c]
        exact = []
        for zk in z:
            x = mpmath.mpc(zk.real, zk.imag)
            total = mpmath.mpc(0)
            for ck in reversed(cs):                 # Horner in z over the window
                total = total * x + ck
            exact.append(complex(total * x ** low))
    return AnalyticSeries(c, low=low), z, np.array(exact), scale


@pytest.fixture(scope="module")
def window_cases():
    rng = np.random.default_rng(41)
    return [_window_case(low, length, rng) for low, length in WINDOWS]


class TestBlockedEvaluation:
    @pytest.mark.parametrize("evaluate", [evaluate_series, oracles.evaluate_series_by_horner],
                             ids=["blocked", "horner"])
    def test_within_the_roundoff_bound_of_mpmath(self, window_cases, evaluate):
        # |error| <= 8*m*eps*sum|c_k||z|^k for the kernel and for the
        # one-step-per-coefficient loop it replaced
        for f, z, exact, scale in window_cases:
            m = len(f.coefficients)
            err = np.abs(evaluate(f, z) - exact)
            assert np.all(err <= 8 * m * EPS * scale), (f.low, m, np.max(err / scale))

    def test_python_scalar_and_0d_give_complex(self):
        f = AnalyticSeries(np.array([1.0, 2.0, 3.0j]), low=-1)
        expect = 1.0 / 1.5 + 2.0 + 4.5j
        for z in (1.5, 1.5 + 0j, np.asarray(1.5 + 0j), np.complex128(1.5)):
            out = evaluate_series(f, z)
            assert type(out) is complex
            assert abs(out - expect) < 1e-15

    @pytest.mark.parametrize("count", [1, 2047, 2048, 2049, 16384])
    def test_point_counts_across_the_slice_edge(self, count):
        # from one point to 16384: every point is within the roundoff bound
        # of the one-step-per-coefficient loop's value
        rng = np.random.default_rng(count)
        m = 1025
        c = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / (1 + np.arange(m))
        f = AnalyticSeries(c, low=1 - m)
        z = rng.uniform(1, 3, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        out = evaluate_series(f, z)
        assert out.shape == (count,) and out.dtype == complex
        scale = np.abs(c) @ np.abs(z[None, :]) ** np.arange(1 - m, 1)[:, None]
        err = np.abs(out - oracles.evaluate_series_by_horner(f, z))
        assert np.all(err <= 16 * m * EPS * scale)

    def test_2d_points_keep_their_shape(self):
        rng = np.random.default_rng(43)
        f = AnalyticSeries(rng.standard_normal(40) + 0j, low=-30)
        z = (1.2 + rng.uniform(0, 1, (3, 700))) * np.exp(1j * rng.uniform(0, 6, (3, 700)))
        out = evaluate_series(f, z)
        assert out.shape == (3, 700)
        assert np.array_equal(out.ravel(), evaluate_series(f, z.ravel()))
        assert evaluate_series(f, np.empty((0, 2), complex)).shape == (0, 2)


class TestBoundaryValues:
    @pytest.mark.parametrize("low, length", [(-31, 32), (0, 17), (-63, 64), (-40, 81), (-50, 90)])
    def test_same_bits_as_the_per_coefficient_loop(self, low, length):
        # powers fold onto the n nodes modulo n, where the last two windows
        # overlap themselves; the sums keep the order of the loop they replaced
        rng = np.random.default_rng(length)
        f = AnalyticSeries(rng.standard_normal(length) + 1j * rng.standard_normal(length),
                           low=low)
        n = 64
        spectrum = np.zeros(n, dtype=complex)
        for k, p in enumerate(range(f.low, f.high + 1)):
            spectrum[p % n] += f.coefficients[k]
        assert np.array_equal(boundary_values(f, n), np.fft.ifft(spectrum) * n)

    def test_degree_at_the_node_count_raises(self):
        with pytest.raises(BladekitError):
            boundary_values(AnalyticSeries(np.ones(60, complex), low=5), 64)
