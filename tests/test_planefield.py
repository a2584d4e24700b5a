"""Newton inversion of a solved blade's map, from the cold and from a warm start."""

import numpy as np
import pytest

import oracles
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
