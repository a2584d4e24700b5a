import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bladekit.errors import BladekitError, CountMismatch, DegenerateContour
from bladekit.geometry import (
    Contour,
    contour_from_csv,
    contour_to_csv,
    float_text,
    resample_uniform,
)
from bladekit.positioning import area_objective
from bladekit.svgplot import CANVAS_H, CANVAS_W, MARGIN, render_svg
from oracles import arc_length_table, hausdorff_distance, strip_area_by_cross_products


def unit_square():
    return Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def circle(n, r=1.0, center=(0.0, 0.0)):
    t = 2 * np.pi * np.arange(n) / n
    return Contour(np.column_stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)]))


class TestArcLength:
    def test_unit_square(self):
        table = arc_length_table(unit_square())
        assert np.allclose(table, [0, 1, 2, 3, 4])

    def test_345_triangle(self):
        c = Contour(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        table = arc_length_table(c)
        assert np.allclose(table, [0, 3, 8, 12])

    def test_ngon_perimeter_tends_to_circle(self):
        prev = 0.0
        for n in (16, 64, 256, 1024):
            per = arc_length_table(circle(n))[-1]
            assert per > prev
            prev = per
        assert abs(prev - 2 * np.pi) < 1e-4

    def test_degenerate_edge(self):
        with pytest.raises(DegenerateContour):
            arc_length_table(Contour(np.array([[0, 0], [1e-16, 0], [1, 0], [0, 1]], dtype=float)))

    def test_cyclic_relabel_rotates_entries(self):
        c = circle(12, r=2.0)
        rolled = Contour(np.roll(c.points, -3, axis=0))
        a = np.diff(arc_length_table(c))
        b = np.diff(arc_length_table(rolled))
        assert np.allclose(np.roll(a, -3), b)


class TestResample:
    def test_square_to_eight(self):
        out = resample_uniform(unit_square(), 8)
        expected = np.array([[0, 0], [0.5, 0], [1, 0], [1, 0.5],
                             [1, 1], [0.5, 1], [0, 1], [0, 0.5]], dtype=float)
        assert np.allclose(out.points, expected)

    def test_identity_when_already_uniform(self):
        c = circle(32)
        out = resample_uniform(c, 32)
        assert np.allclose(out.points, c.points, atol=1e-12)

    def test_circle_radius_deviation(self):
        out = resample_uniform(circle(64), 32)
        r = np.hypot(out.points[:, 0], out.points[:, 1])
        assert np.max(np.abs(r - 1.0)) < 1e-2


class TestRuledArea:
    # area_objective moves the lower contour by the shift: the upper one moved
    # by s is the lower one moved by -s.  Its planes are one unit apart; the
    # strip between planes s apart is that of the contours over s, times s**2
    def test_prism_between_identical_squares(self):
        assert abs(area_objective(unit_square(), unit_square(), (0.0, 0.0)) - 4.0) < 1e-12

    def test_identical_contours_area_is_perimeter_times_spacing(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (9, 2))
        ang = np.arctan2(pts[:, 1] - pts[:, 1].mean(), pts[:, 0] - pts[:, 0].mean())
        c = Contour(pts[np.argsort(ang)])
        perimeter = arc_length_table(c)[-1]
        scaled = Contour(c.points / 0.7)
        area = area_objective(scaled, scaled, (0.0, 0.0)) * 0.7**2
        assert abs(area - perimeter * 0.7) < 1e-12 * perimeter

    def test_monotone_growth_away_from_optimum(self):
        a0 = area_objective(unit_square(), unit_square(), (0.0, 0.0))
        a1 = area_objective(unit_square(), unit_square(), (-10.0, 0.0))
        assert a1 > a0

    def test_concentric_circles_grid_minimum_at_origin(self):
        lo, up = circle(256), circle(256, r=0.5)
        best = None
        for sx in np.arange(-0.5, 0.5001, 0.01):
            for sy in np.arange(-0.5, 0.5001, 0.01):
                a = area_objective(lo, up, (-sx, -sy))
                if best is None or a < best[0]:
                    best = (a, sx, sy)
        assert abs(best[1]) < 1e-12 and abs(best[2]) < 1e-12

    def test_unimodal_along_axis_through_minimum(self):
        lo, up = circle(128), circle(128, r=0.8)
        line = [area_objective(lo, up, (-s, 0.0)) for s in np.linspace(-0.4, 0.4, 33)]
        k = int(np.argmin(line))
        assert all(line[i] >= line[i + 1] - 1e-12 for i in range(k))
        assert all(line[i] <= line[i + 1] + 1e-12 for i in range(k, len(line) - 1))

    @pytest.mark.parametrize("distance", [0.05, 1.0, 2.0])
    def test_affine_form_matches_cross_products(self, distance):
        lo = circle(64)
        th = 0.3 + 2 * np.pi * np.arange(64) / 64
        up = Contour(np.column_stack([np.cos(th), 0.5 * np.sin(th)]) + (0.2, -0.1))
        lo_s, up_s = (Contour(c.points / distance) for c in (lo, up))
        for shift in ((0.0, 0.0), (-0.3, 0.7), (2.0, -5.0)):
            ref = strip_area_by_cross_products(lo, up, distance, shift)
            area = area_objective(lo_s, up_s, np.divide(shift, distance)) * distance**2
            assert abs(area - ref) <= 1e-12 * ref

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch, match="contours have 8 and 16 nodes"):
            area_objective(circle(8), circle(16), (0.0, 0.0))


class TestHausdorff:
    def test_identical(self):
        c = circle(64)
        assert hausdorff_distance(c, c) == 0.0

    def test_concentric_circles(self):
        d = hausdorff_distance(circle(512), circle(512, r=1.1))
        assert abs(d - 0.1) < 1e-3

    def test_shifted_square_bounds(self):
        for d in (0.05, 0.2, 0.4):
            sq = unit_square()
            moved = Contour(sq.points + (d, 0.0))
            hd = hausdorff_distance(sq, moved)
            assert hd <= d + 1e-12
            assert hd >= d / np.sqrt(2) - 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        cs = [Contour(rng.uniform(-1, 1, (16, 2))) for _ in range(3)]
        a, b, c = (hausdorff_distance(cs[i], cs[j]) for i, j in [(0, 1), (1, 2), (0, 2)])
        assert c <= a + b + 1e-12

    def test_symmetry(self):
        a, b = circle(32), circle(48, r=1.3, center=(0.2, -0.1))
        # resample to equal counts not required for the metric itself
        d1 = hausdorff_distance(a, b)
        d2 = hausdorff_distance(b, a)
        assert d1 == d2


class TestCsv:
    def test_round_trip(self):
        c = circle(17, r=1.23, center=(0.4, -0.9))
        back, vel = contour_from_csv(contour_to_csv(c))
        assert vel is None
        assert np.array_equal(back.points, c.points)

    def test_velocity_column(self):
        text = "index,x,y,v\n0,0.0,0.0,1.5\n1,1.0,0.0,-2.5\n2,0.0,1.0,0.25\n"
        c, vel = contour_from_csv(text)
        assert np.allclose(vel, [1.5, -2.5, 0.25])

    def test_deterministic_bytes(self):
        c = circle(33, r=np.pi / 3)
        assert contour_to_csv(c) == contour_to_csv(c)

    @pytest.mark.parametrize("nan_line, short_line", [(3, 5), (5, 3)],
                             ids=["nan first", "short row first"])
    def test_first_bad_row_is_reported(self, nan_line, short_line):
        # a non-finite row and a row of the wrong width in one file: the earlier line is named
        rows = ["index,x,y", "0,0.0,0.0", "1,1.0,0.0", "2,1.0,1.0", "3,0.0,1.0", "4,0.5,2.0"]
        rows[nan_line - 1] = f"{nan_line - 2},nan,1.0"
        rows[short_line - 1] = f"{short_line - 2},0.5"
        first = min(nan_line, short_line)
        with pytest.raises(BladekitError, match=f"^line {first}: expected a index,x,y row"):
            contour_from_csv("\n".join(rows) + "\n")


# -- writers against the per-element form they replaced ----------------------------

def _csv_by_scalars(c):
    rows = [f"{i},{float(x)!r},{float(y)!r}\n" for i, (x, y) in enumerate(c.points)]
    return "index,x,y\n" + "".join(rows)


def _svg_coords_by_scalars(contours, shifts):
    """The polygon ``points`` of `render_svg`, one numpy scalar formatted at a time."""
    moved = [c.points + np.array(s) for c, s in zip(contours, shifts)]
    allpts = np.vstack(moved)
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    w, h = max(hi[0] - lo[0], 1e-300), max(hi[1] - lo[1], 1e-300)
    scale = min((CANVAS_W - 2 * MARGIN) / w, (CANVAS_H - 2 * MARGIN) / h)
    cx, cy = 0.5 * (lo + hi)
    return [" ".join(f"{float(a)!r},{float(b)!r}" for a, b in
                     zip((p[:, 0] - cx) * scale + CANVAS_W / 2,
                         CANVAS_H / 2 - (p[:, 1] - cy) * scale)) for p in moved]


# -0.0, the least subnormal, a huge value, an exact one and a tiny negative
AWKWARD = Contour(np.array([[-0.0, 5e-324], [1e300, 1.0], [1.0, -1e-17], [-1e-17, 1.0]]))
WOBBLY = Contour(np.random.default_rng(3).normal(size=(256, 2)) * [1.0, 1e-3]
                 + circle(256, r=0.7).points)


@pytest.mark.parametrize("c", [AWKWARD, WOBBLY, circle(17, r=1.23, center=(0.4, -0.9))],
                         ids=["awkward", "wobbly", "circle"])
def test_csv_bytes_match_the_per_element_form(c):
    assert contour_to_csv(c) == _csv_by_scalars(c)


# the values where orjson's text and repr's part ways: repr switches to an exponent
# below 1e-4 and from 1e16 on; the least normal and the largest double
SWITCH_POINTS = (9.999999999999999e-05, 1e-4, 1.2e-05, 9999999999999998.0, 1e16,
                 2.2250738585072014e-308, 1.7976931348623157e308)


@pytest.mark.parametrize("v", SWITCH_POINTS + tuple(-v for v in SWITCH_POINTS))
def test_csv_bytes_match_at_the_switch_points(v):
    for rows in ([[v, 0.0], [0.0, 1.0], [-1.0, 0.0]], [[0.0, v], [1.0, 0.0], [0.0, -1.0]]):
        c = Contour(np.array(rows))
        assert contour_to_csv(c) == _csv_by_scalars(c)


@given(hnp.arrays(float, st.tuples(st.integers(3, 12), st.just(2)), fill=st.nothing(),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_bytes_match_on_any_finite_contour(points):
    with np.errstate(over="ignore"):          # edge lengths of huge contours overflow
        try:
            c = Contour(points)
        except DegenerateContour:
            assume(False)
    assert contour_to_csv(c) == _csv_by_scalars(c)


def test_float_text_writes_repr_never_null():
    values = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-4, 1e16, 5e-324]
    assert float_text(np.array(values).reshape(-1, 1)) == [repr(x) for x in values]
    assert float_text(np.array([[1.5, 2.0], [3.0, 1e-05]])) == ["1.5", "2.0", "3.0", "1e-05"]
    assert float_text(np.empty((0, 2))) == []


@pytest.mark.parametrize("contours, shifts", [
    ([AWKWARD, unit_square()], [(0.0, 0.0), (-0.0, 5e-324)]),
    ([WOBBLY, circle(64)], [(0.0, 0.0), (1e-17, -0.25)]),
], ids=["awkward", "wobbly"])
def test_svg_bytes_match_the_per_element_form(contours, shifts):
    svg = render_svg(contours, shifts)
    assert svg.count("<polygon") == len(contours)
    for coords in _svg_coords_by_scalars(contours, shifts):
        assert f'<polygon points="{coords}" ' in svg
