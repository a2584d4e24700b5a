import numpy as np
import pytest

from bladekit.errors import MultivaluedAntiderivative, OutsideDomain
from bladekit.harmonic import (
    AnalyticSeries,
    BoundarySamples,
    analytic_from_real_boundary,
    boundary_values,
    differentiate_boundary,
    evaluate_series,
    exterior_projection,
    integrate_series,
)


def angles(n):
    return 2 * np.pi * np.arange(n) / n


class TestSchwarz:
    def test_cos_gives_zeta(self):
        # Re(1/zeta) = cos(gamma) on the circle
        g = angles(16)
        f = analytic_from_real_boundary(BoundarySamples(np.cos(g)))
        assert abs(f.coefficient(-1) - 1.0) < 1e-13
        assert abs(f.coefficient(0)) < 1e-14

    def test_zero(self):
        f = analytic_from_real_boundary(BoundarySamples(np.zeros(16)))
        assert np.max(np.abs(f.coefficients)) < 1e-15

    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(11)
        n = 64
        g = angles(n)
        data = rng.standard_normal() * np.ones(n)
        for k in range(1, n // 2):
            data += rng.standard_normal() * np.cos(k * g) + rng.standard_normal() * np.sin(k * g)
        f = analytic_from_real_boundary(BoundarySamples(data))
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
        f = analytic_from_real_boundary(BoundarySamples(data))
        vals = evaluate_series(f, np.exp(1j * g)).real
        assert np.max(np.abs(vals - data)) < 1e-10
        # bounded at infinity: no positive powers
        assert f.high <= 0


class TestSeriesCalculus:
    def test_integrate_constant(self):
        f = AnalyticSeries.interior([1.0])
        F = integrate_series(f, 0.0)
        assert abs(evaluate_series(F, 2.0 + 1.0j) - (2.0 + 1.0j)) < 1e-14

    def test_integrate_iz(self):
        f = AnalyticSeries.interior([0.0, 1.0j])
        F = integrate_series(f, 0.0)
        z = 1.3 - 0.4j
        assert abs(evaluate_series(F, z) - 0.5j * z**2) < 1e-14

    def test_integrate_polynomial_with_basepoint(self):
        f = AnalyticSeries.interior([-2.0, 0.0, 3.0])
        F = integrate_series(f, 1.0)
        z = np.array([1.0, 2.0, -0.5j])
        expect = z**3 - 2 * z + 1
        assert np.max(np.abs(evaluate_series(F, z) - expect)) < 1e-13

    def test_residue_raises(self):
        f = AnalyticSeries.exterior([0.0, 1.0])  # 1/zeta
        with pytest.raises(MultivaluedAntiderivative):
            integrate_series(f, 2.0)

    def test_derivative_inverts_integration(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = AnalyticSeries.interior(c)
        back = integrate_series(f, 0.7).derivative()
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


class TestBoundaryCalculus:
    def test_spectral_derivative(self):
        n = 64
        g = angles(n)
        vals = np.sin(3 * g) + 0.5 * np.cos(5 * g)
        d = differentiate_boundary(vals)
        exact = 3 * np.cos(3 * g) - 2.5 * np.sin(5 * g)
        assert np.max(np.abs(d - exact)) < 1e-11


class TestExteriorProjection:
    def test_recovers_exterior_series(self):
        rng = np.random.default_rng(31)
        n = 32
        c = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
        f = AnalyticSeries.exterior(c)
        back = exterior_projection(boundary_values(f, n))
        assert back.low == -(n // 2 - 1) and back.high == 0
        assert np.max(np.abs((back - f).coefficients)) < 1e-13

    def test_drops_positive_and_nyquist_modes(self):
        n = 16
        g = angles(n)
        vals = 2.0 + 3.0 * np.exp(-2j * g) + np.exp(1j * g) + np.cos(n // 2 * g)
        f = exterior_projection(vals)
        expect = AnalyticSeries.exterior([2.0, 0.0, 3.0])
        assert np.max(np.abs((f - expect).coefficients)) < 1e-14
