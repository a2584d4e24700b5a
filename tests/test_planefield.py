"""Newton inversion of a solved blade's map, from the cold and from a warm start,
and the blade's potential over it."""

import numpy as np
import pytest

import oracles
from bladekit import planefield
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


def test_warm_start_matches_cold_on_shifted_grid(blade):
    # the FD pass starts each shifted set from zeta + d/z'(zeta) of the grid
    smap = blade.map
    z = _grid_points(blade)
    zeta = smap.invert(z)
    dz = evaluate_series(smap.deriv, zeta)
    for d in (FD, -FD, 1j * FD, -1j * FD):
        warm = smap.invert(z + d, start=zeta + d / dz)
        assert np.max(np.abs(warm - smap.invert(z + d))) < 1e-12


def test_cold_start_is_the_linear_part(blade):
    # without a start, Newton starts from the inverse of the map's linear part
    smap = blade.map
    z = _grid_points(blade)
    linear = (z - smap.series.coefficient(0)) / smap.series.coefficient(1)
    assert np.array_equal(smap.invert(z), smap.invert(z, start=linear))


@pytest.mark.parametrize("start", [None, 0.0, 0.5, 0.3j, 1.0, np.exp(2j), -1.0, 2.0, 10 + 5j])
def test_point_inside_the_blade_raises_from_any_start(blade, start):
    pts = blade.contour.points
    inside = complex(*pts.mean(axis=0))
    rel = pts @ (1, 1j) - inside
    winding = np.sum(np.angle(np.roll(rel, -1) / rel)) / (2 * np.pi)
    assert abs(abs(winding) - 1.0) < 1e-9
    with pytest.raises(OutsideDomain):
        blade.map.invert(np.array([inside]), start=None if start is None else np.array([start]))


def test_unconverged_inversion_is_refused_outside_the_band(blade, monkeypatch):
    # points beside the blade: one Newton step leaves them far off and they are
    # refused; two leave a residual inside the 1e3*tol band, which is accepted
    smap = blade.map
    z = smap.series.coefficient(0) + 4.0 * np.exp(1j * np.pi * np.arange(1, 5) / 3)
    monkeypatch.setattr(planefield, "_INVERT_MAXITER", 1)
    with pytest.raises(OutsideDomain, match="map inversion did not converge"):
        smap.invert(z)
    monkeypatch.setattr(planefield, "_INVERT_MAXITER", 2)
    zeta = smap.invert(z)
    residual = np.max(np.abs(evaluate_series(smap.series, zeta) - z) / np.maximum(np.abs(z), 1))
    assert planefield._INVERT_TOL < residual < 1e3 * planefield._INVERT_TOL
    monkeypatch.undo()
    assert np.max(np.abs(zeta - smap.invert(z))) < 1e-9


@pytest.mark.parametrize("n", [256, 1024])
def test_potential_derivative_is_the_velocity_series(n):
    # F' from the closed-form potential and i times the truncated velocity
    # series are the same plane on the residual grid
    sol = solve_distribution(oracles.joukowski_flow().distribution(512, 512), n, w1=0.05)
    zeta = sol.map.invert(_grid_points(sol))
    f = sol.potential.derivative(zeta, evaluate_series(sol.map.deriv, zeta))
    gap = np.max(np.abs(f - 1j * evaluate_series(sol.velocity_series, zeta)))
    assert gap < 1e-7 * np.max(np.abs(f))
