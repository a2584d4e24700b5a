"""Newton inversion of a solved blade's map, from the cold and from a warm start,
its truncated evaluation, and the blade's potential over it."""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bladekit import harmonic, planefield
from bladekit.errors import OutsideDomain
from bladekit.harmonic import evaluate_series
from bladekit.inverse import solve_distribution
from bladekit.pipeline import _residual_grid

FD = 1e-4


@pytest.fixture(scope="module")
def blade():
    flow = oracles.joukowski_flow()
    return solve_distribution(flow.distribution(512, 512), 256, w1=0.05)


def _grid_points(blade):
    x, y = _residual_grid([blade.contour]).plane_nodes()
    return x + 1j * y


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_warm_start_matches_cold_on_shifted_grid(n):
    # the FD pass starts the four shifted sets from zeta + d/z'(zeta) of the grid
    blade = solve_distribution(oracles.joukowski_flow().distribution(2048, 2048), n, w1=0.05)
    smap = blade.map
    z = _grid_points(blade)
    zeta, dz = smap.invert(z)
    d = np.array([FD, -FD, 1j * FD, -1j * FD])[:, None]
    warm, warm_dz = smap.invert(z + d, start=zeta + d / dz)
    cold, cold_dz = smap.invert(z + d)
    assert warm.shape == warm_dz.shape == (4, len(z))
    assert np.max(np.abs(warm - cold)) < 1e-12
    assert np.max(np.abs(warm_dz - cold_dz)) < 1e-12 * np.max(np.abs(cold_dz))


def test_cold_start_is_the_linear_part(blade):
    # without a start, Newton starts from the inverse of the map's linear part
    smap = blade.map
    z = _grid_points(blade)
    linear = (z - smap.series.coefficient(0)) / smap.series.coefficient(1)
    for cold, started in zip(smap.invert(z), smap.invert(z, start=linear)):
        assert np.array_equal(cold, started)


@pytest.mark.parametrize("start", [None, 0.0, 0.5, 0.3j, 1.0, np.exp(2j), -1.0, 2.0, 10 + 5j,
                                   "grid"])
def test_point_inside_the_blade_raises_from_any_start(blade, start):
    # "grid": the interior point appended to the residual grid, all cold
    pts = blade.contour.points
    inside = complex(*pts.mean(axis=0))
    rel = pts @ (1, 1j) - inside
    winding = np.sum(np.angle(np.roll(rel, -1) / rel)) / (2 * np.pi)
    assert abs(abs(winding) - 1.0) < 1e-9
    if start == "grid":
        z, start = np.append(_grid_points(blade), inside), None
    else:
        z, start = np.array([inside]), None if start is None else np.array([start])
    with pytest.raises(OutsideDomain):
        blade.map.invert(z, start=start)


def test_unconverged_inversion_is_refused_outside_the_band(blade, monkeypatch):
    # points beside the blade: one Newton step leaves them far off and they are
    # refused; two leave a residual inside the 1e3*tol band, which is accepted
    smap = blade.map
    z = smap.series.coefficient(0) + 4.0 * np.exp(1j * np.pi * np.arange(1, 5) / 3)
    monkeypatch.setattr(planefield, "_INVERT_MAXITER", 1)
    with pytest.raises(OutsideDomain, match="map inversion did not converge"):
        smap.invert(z)
    monkeypatch.setattr(planefield, "_INVERT_MAXITER", 2)
    zeta, _ = smap.invert(z)
    residual = np.max(np.abs(evaluate_series(smap.series, zeta) - z) / np.maximum(np.abs(z), 1))
    assert planefield._INVERT_TOL < residual < 1e3 * planefield._INVERT_TOL
    monkeypatch.undo()
    assert np.max(np.abs(zeta - smap.invert(z)[0])) < 1e-9


@pytest.mark.parametrize("n", [256, 1024])
def test_potential_derivative_is_the_velocity_series(n):
    # F' from the closed-form potential and i times the truncated velocity
    # series are the same plane on the residual grid
    sol = solve_distribution(oracles.joukowski_flow().distribution(512, 512), n, w1=0.05)
    zeta, dz = sol.map.invert(_grid_points(sol))
    f = sol.potential.derivative(zeta, dz)
    gap = np.max(np.abs(f - 1j * evaluate_series(sol.velocity_series, zeta)))
    assert gap < 1e-7 * np.max(np.abs(f))


# -- the truncated joint evaluation of z and z' ---------------------------------

EPS = np.finfo(float).eps
TAIL_RTOL = 2.0 ** -60    # a dropped tail's bound against the whole bound


def _random_map(rng, depth, rate):
    # slope a with |a| in [0.5, 2] and sum_k k|c_k| <= 0.9|a|, so z' != 0 and
    # the map is univalent on |zeta| >= 1; c_k ~ rate**k / k**2
    k = np.arange(1, depth + 1)
    c = (rng.standard_normal(depth) + 1j * rng.standard_normal(depth)) * rate ** k / k ** 2
    slope = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c *= 0.9 * rng.uniform(0, 1) * abs(slope) / max(float(np.sum(k * np.abs(c))), 1e-300)
    return planefield.SeriesMap(oracles.smooth_map(c, complex(*rng.standard_normal(2))) * slope)


def _bounds(smap, zeta):
    """Per point, the bounds sum |c_k||zeta|**k of z and z'; and at rho, the
    largest |1/zeta|, the whole bounds of the set."""
    rows = oracles.map_term_bounds(smap.series)
    slope = rows[1, 0]                       # z's row also bounds slope*zeta
    powers = np.arange(rows.shape[1])
    a = np.abs(1.0 / zeta)
    point = rows @ a[None, :] ** powers[:, None] + np.array([[1.0], [0.0]]) * slope / a
    rho = float(np.max(a))
    whole = rows @ rho ** powers + (slope / rho, 0.0)
    return point, rho, whole


def _exact(smap, zeta):
    """z and z' at zeta to 40 digits."""
    s = smap.series
    with mpmath.workdps(40):
        cs = [mpmath.mpc(complex(s.coefficient(-j))) for j in range(-s.low + 1)]
        a = mpmath.mpc(complex(s.coefficient(1)))
        z, dz = [], []
        for x in zeta:
            w = 1 / mpmath.mpc(complex(x))
            val = der = mpmath.mpc(0)
            for j in range(len(cs) - 1, -1, -1):        # Horner in w
                val = val * w + cs[j]
                der = der * w - j * cs[j]
            z.append(complex(a / w + val))
            dz.append(complex(a + der * w))
    return np.array(z), np.array(dz)


@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 260),
       rate=st.floats(0.05, 1.0), r0=st.floats(1.0, 10.0), on_circle=st.booleans())
def test_truncated_map_within_the_tail_bound(seed, depth, rate, r0, on_circle):
    rng = np.random.default_rng(seed)
    smap = _random_map(rng, depth, rate)
    radius = np.ones(5) if on_circle else rng.uniform(r0, 10.0, 5)
    zeta = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    point, rho, whole = _bounds(smap, zeta)
    m = depth + 2
    # the dropped powers' bound is below TAIL_RTOL of the whole, and one more is not
    rows = oracles.map_term_bounds(smap.series)
    kept = smap.terms(rho)
    tails = np.cumsum((rows * rho ** np.arange(m))[:, ::-1], axis=1)[:, ::-1]
    if rho < 1.0:
        assert np.all(tails[:, kept:].T <= TAIL_RTOL * whole)
        assert np.any(tails[:, kept - 1] > TAIL_RTOL * whole)
    else:
        assert kept == m
    # z and z' within that bound plus the evaluator's roundoff bound 8*m*eps*scale
    z, dz = smap.values(zeta)
    exact = _exact(smap, zeta)
    for got, want, w, p in zip((z, dz), exact, whole, point):
        assert np.all(np.abs(got - want) <= TAIL_RTOL * w + 8 * m * EPS * p)
    # invert's z' is the derivative series at its zeta, to the same bounds;
    # circle points start at their preimage, as the contour nodes do, since
    # from the linear part Newton may land on a preimage inside the circle
    inv, inv_dz = smap.invert(exact[0], start=zeta if on_circle else None)
    assert np.all(np.abs(smap.values(inv)[0] - exact[0]) <= 1e-12 * np.maximum(np.abs(exact[0]), 1))
    point, _, whole = _bounds(smap, inv)
    gap = np.abs(inv_dz - evaluate_series(smap.deriv, inv))
    assert np.all(gap <= TAIL_RTOL * whole[1] + 16 * m * EPS * point[1])


def test_0d_and_2d_points_keep_their_shape(blade):
    z = _grid_points(blade)
    zeta, dz = blade.map.invert(z)
    for got, want in zip(blade.map.invert(z[0]), (zeta[0], dz[0])):
        assert got.shape == () and got == want
    for got, want in zip(blade.map.invert(z.reshape(3, -1)), (zeta, dz)):
        assert got.shape == (3, len(z) // 3) and np.array_equal(got.ravel(), want)
    for got, want in zip(blade.map.values(zeta[0]), blade.map.values(zeta[:1])):
        assert got.shape == () and got == want[0]


# -- the truncated evaluation is the flat-block kernel --------------------------

def _same(got, want):
    return all(np.array_equal(g, w) and g.shape == w.shape for g, w in zip(got, want))


@pytest.fixture(scope="module")
def distributions():
    return [oracles.joukowski_flow(beta=beta).distribution(2048, 2048) for beta in (0.1, 0.3)]


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_map_values_are_the_flat_block_kernel(n, distributions):
    # each map's z and z', at its cold zeta on the residual grid and at its
    # warm-started zeta of the four shifted sets, are the one-map kernel on
    # flat products bit for bit
    lo, up = (solve_distribution(d, n, w1=w1) for d, w1 in zip(distributions, (0.05, 0.1)))
    x, y = _residual_grid([lo.contour, up.contour]).plane_nodes()
    z = x + 1j * y
    d = np.array([FD, -FD, 1j * FD, -1j * FD])[:, None]
    for smap in (lo.map, up.map):
        zeta, dz = smap.invert(z)
        warm, _ = smap.invert(z + d, start=zeta + d / dz)
        for at in (zeta, warm.ravel()):
            assert _same(smap.values(at), oracles.map_values_by_flat_blocks(smap, at))


def test_each_point_stops_on_its_own(blade):
    # the even points start at their converged zeta, the odd ones cold: the
    # even ones stop at the first evaluation and take no step while the odd
    # ones converge
    smap = blade.map
    z = _grid_points(blade)
    zeta, _ = smap.invert(z)
    even = np.arange(len(z)) % 2 == 0
    start = np.where(even, zeta, (z - smap.series.coefficient(0)) / smap.series.coefficient(1))
    got, _ = smap.invert(z, start=start)
    assert np.array_equal(got[even], zeta[even])


def test_maps_of_different_block_sizes_sum_their_own_blocks():
    # at n 256 the perturbed cylinder keeps more map terms on the residual
    # grid than the Joukowski blade, in larger baby-step blocks; each is
    # summed in its own blocks, as the flat-block kernel sums it
    cyl = solve_distribution(oracles.perturbed_cylinder(0.03), 256)
    jouk = solve_distribution(oracles.joukowski_flow(beta=0.3).distribution(2048, 2048), 256,
                              w1=0.1)
    x, y = _residual_grid([cyl.contour, jouk.contour]).plane_nodes()
    z = x + 1j * y
    maps = (cyl.map, jouk.map)
    got = [smap.invert(z) for smap in maps]
    sizes = [harmonic._block_size(smap.terms(float(np.max(np.abs(1 / zeta)))))
             for smap, (zeta, _) in zip(maps, got)]
    assert sizes[0] > sizes[1]
    for smap, (zeta, _) in zip(maps, got):
        assert _same(smap.values(zeta), oracles.map_values_by_flat_blocks(smap, zeta))
