"""The numpy periodic speed spline, read through its running integral
`VelocityDistribution.potential_table`, against scipy's periodic ``CubicSpline``."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bladekit.inverse import VelocityDistribution
from bladekit.spline import periodic_potential

from oracles import pieces_at, potential_at, speed_at, speed_spline_by_scipy

EPS = np.finfo(float).eps


@st.composite
def distributions(draw) -> VelocityDistribution:
    """Random signed speeds on log-uniform spacings (largest over smallest up to
    1e4), the first sample at s = 0 or up to one step past it.  Small m, where
    the reduction's stride wraps the period, is drawn as often as large."""
    m = draw(st.one_of(st.integers(8, 17), st.integers(18, 4096)))
    ratio = 10.0 ** draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.exp(rng.uniform(0.0, np.log(ratio), m)) * draw(st.sampled_from([1e-3, 1.0, 7.0]))
    offset = draw(st.sampled_from([0.0, 0.3, 0.999]))
    s = offset * h[-1] + np.concatenate([[0.0], np.cumsum(h[:-1])])
    ia = draw(st.integers(0, m - 5))
    ib = draw(st.integers(ia + 2, min(ia + m - 2, m - 1)))
    v = rng.uniform(0.1, 1.0, m) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    v[ib:] *= -1.0
    v[:ia] *= -1.0
    v[[ia, ib]] = 0.0
    return VelocityDistribution(np.column_stack([s, v]), float(h.sum()), (ia, ib), 1.0)


def _slope_system(x, y, slopes):
    """Residual, row scale and diagonal of the periodic slope system at the
    given slopes; the scale is the sum of the magnitudes of each row's terms."""
    h = np.diff(x)
    d = np.diff(y) / h
    hp = np.roll(h, 1)
    terms = np.array([h * np.roll(slopes, 1), 2 * (hp + h) * slopes,
                      hp * np.roll(slopes, -1), -3 * (h * np.roll(d, 1) + hp * d)])
    return terms.sum(axis=0), np.abs(terms).sum(axis=0), 2 * (hp + h)


@given(distributions())
def test_matches_scipy_periodic_cubic(d):
    ref, ref_potential = speed_spline_by_scipy(d)
    m = len(d.speeds)
    x, pieces = d.potential_table
    x, c = x[:m + 1], pieces[:4, :m] * np.array([[4.0], [3.0], [2.0], [1.0]])
    h = np.diff(x)
    y = np.append(d.speeds, d.speeds[0])
    rng = np.random.default_rng(m)

    # The slopes solve the system the spline is defined by, to rounding:
    # every row's residual over its diagonal is a few ulp of the largest slope.
    residual, scale, diagonal = _slope_system(x, y, c[2])
    assert np.max(np.abs(residual) / diagonal) <= 16 * EPS * np.max(np.abs(c[2]))
    # Off-diagonals sum to half the diagonal in every row, so the system's
    # inverse scaled by the diagonal has norm <= 2, and two approximate
    # solutions differ by at most twice their residuals over the diagonal
    # (plus the rounding of the residuals themselves).
    ref_residual, ref_scale, _ = _slope_system(x, y, ref.c[2])
    slope_tol = 2 * np.max((np.abs(residual) + np.abs(ref_residual)
                            + 4 * EPS * (scale + ref_scale)) / diagonal)
    assert np.max(np.abs(c[2] - ref.c[2])) <= slope_tol

    # Values: a slope moves the cubic by at most 4/27 of the step times its
    # change; Horner on either side rounds within 8 ulp of the sum of the
    # magnitudes of the piece's terms; s = x[-1] and the points in [0, s_0)
    # wrap by a period, each side rounding s once.
    piece_scale = np.sum(np.abs(c) * h ** np.arange(3, -1, -1)[:, None], axis=0)
    wrap = 4 * np.spacing(x[-1]) * np.max(np.abs(c[2]))
    v_tol = 0.3 * np.max(h) * slope_tol + 16 * EPS * np.max(piece_scale) + wrap
    s = np.concatenate([x, x[:-1] + 0.5 * h, rng.uniform(x[0], x[-1], 512)])
    assert np.max(np.abs(speed_at(d, s) - ref(s))) <= v_tol
    s = rng.uniform(0.0, x[0], 64)
    assert np.max(np.abs(speed_at(d, s) - ref(np.mod(s, d.total_length)))) <= v_tol

    # Knot potentials and the circulation: a slope change moves a piece's
    # integral by h**2/12 times it, and each side sums m pieces, each within
    # h times its scale, recursively.
    p_tol = np.sum(h * (h * slope_tol / 6 + 2 * (m + 8) * EPS * piece_scale))
    assert np.max(np.abs(pieces[4, :m + 1] - ref_potential(x))) <= p_tol
    assert abs(d.circulation_smooth - ref_potential(x[-1])) <= p_tol
    s = rng.uniform(x[0], x[-1], 512)
    assert np.max(np.abs(potential_at(d, s) - ref_potential(s))) <= p_tol + v_tol * np.max(h)


def test_converges_at_fourth_order():
    # sin is not a spline: the error falls 4**4-fold from 64 to 256 knots,
    # also outside the first period, and the full-period integral is exact
    for m, tol in ((64, 4e-7), (256, 1.5e-9)):
        x = np.linspace(0.0, 2 * np.pi, m + 1)
        pieces, circulation = periodic_potential(x, np.sin(x + 0.3) + 0.5)
        s = np.linspace(-7.0, 13.0, 1001)
        assert np.max(np.abs(pieces_at(x, pieces, s)[1] - np.sin(s + 0.3) - 0.5)) < tol
        assert abs(circulation - np.pi) < 1e-14
