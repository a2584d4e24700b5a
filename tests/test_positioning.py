import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bladekit import positioning
from bladekit.errors import BladekitError, CountMismatch, OptimizerFailed
from bladekit.geometry import Contour
from bladekit.positioning import (
    AREA_RTOL,
    LIFT_RTOL,
    NodePartition,
    ShiftVector,
    area_objective,
    least_squares_shift,
    lift_score,
    lsq_objective,
    maximize_lift,
    minimize_area_shift,
)
from oracles import (
    area_shift_by_nelder_mead,
    grid_lift_optimum,
    lift_by_centre_tangent,
    strip_area_lower_bound,
)


def count_shifts(monkeypatch) -> list:
    """Count the shifts `positioning._distance_sums` evaluates from now on."""
    count = [0]
    evaluate = positioning._distance_sums

    def counted(d, weights, shifts):
        count[0] += len(shifts)
        return evaluate(d, weights, shifts)

    monkeypatch.setattr(positioning, "_distance_sums", counted)
    return count


def circle(n, r=1.0, center=(0.0, 0.0)):
    t = 2 * np.pi * np.arange(n) / n
    return Contour(np.column_stack([center[0] + r * np.cos(t),
                                    center[1] + r * np.sin(t)]))


def grid_search_lsq(c1, c2, step=1e-3, box=2.0):
    """Brute-force oracle: enumerate the full shift grid.

    The objective splits exactly into an x-part plus a y-part, so the scan
    over the product grid factorizes without changing which grid point wins.
    """
    gx = np.arange(-box, box + step / 2, step)
    d = c1.points - c2.points
    fx = np.array([np.sum((d[:, 0] + x) ** 2) for x in gx])
    fy = np.array([np.sum((d[:, 1] + y) ** 2) for y in gx])
    return gx[np.argmin(fx)], gx[np.argmin(fy)]


class TestLsqObjective:
    def test_identical_zero(self):
        c = circle(32)
        assert lsq_objective(c, c, (0.0, 0.0)) == 0.0

    def test_translated_cancellation(self):
        c = circle(32)
        moved = Contour(c.points + (1.0, 2.0))
        assert abs(lsq_objective(c, moved, (1.0, 2.0))) < 1e-12

    def test_toy_hand_sum(self):
        c1 = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        c2 = Contour(np.array([[0.1, 0.0], [1.1, 0.0], [0.1, 1.0]]))
        assert abs(lsq_objective(c1, c2, (0.0, 0.0)) - 0.03) < 1e-15

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            lsq_objective(circle(8), circle(16), (0, 0))


class TestLeastSquares:
    def test_identical(self):
        s = least_squares_shift(circle(64), circle(64))
        assert s.dx == 0.0 and s.dy == 0.0

    def test_pure_translation_recovery(self):
        c = circle(64)
        s = least_squares_shift(c, Contour(c.points + (1.0, 2.0)))
        assert abs(s.dx - 1.0) < 1e-12 and abs(s.dy - 2.0) < 1e-12
        assert s.objective < 1e-20

    def test_toy_sets(self):
        c1 = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        c2 = Contour(np.array([[0.1, 0.0], [1.1, 0.0], [0.1, 1.0]]))
        s = least_squares_shift(c1, c2)
        assert abs(s.dx - 0.1) < 1e-14 and abs(s.dy) < 1e-14
        gx, gy = grid_search_lsq(c1, c2)
        assert abs(s.dx - gx) <= 1e-3 + 1e-12 and abs(s.dy - gy) <= 1e-3 + 1e-12

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p1 = rng.uniform(-0.8, 0.8, (64, 2))
            p2 = p1 + rng.uniform(-0.5, 0.5, 2) + 0.05 * rng.standard_normal((64, 2))
            c1, c2 = Contour(p1), Contour(p2)
            s = least_squares_shift(c1, c2)
            gx, gy = grid_search_lsq(c1, c2)
            assert abs(s.dx - gx) <= 1e-3 + 1e-12
            assert abs(s.dy - gy) <= 1e-3 + 1e-12

    def test_minimizer_beats_random_shifts(self):
        rng = np.random.default_rng(7)
        c1 = Contour(rng.uniform(-1, 1, (32, 2)))
        c2 = Contour(rng.uniform(-1, 1, (32, 2)))
        s = least_squares_shift(c1, c2)
        f0 = lsq_objective(c1, c2, (s.dx, s.dy))
        for _ in range(1000):
            trial = rng.uniform(-2, 2, 2)
            assert f0 <= lsq_objective(c1, c2, trial) + 1e-12

    def test_translation_covariance(self):
        rng = np.random.default_rng(8)
        c1 = Contour(rng.uniform(-1, 1, (16, 2)))
        c2 = Contour(rng.uniform(-1, 1, (16, 2)))
        s0 = least_squares_shift(c1, c2)
        s1 = least_squares_shift(c1, Contour(c2.points + (0.3, -0.7)))
        assert abs(s1.dx - s0.dx - 0.3) < 1e-12
        assert abs(s1.dy - s0.dy + 0.7) < 1e-12


class TestAreaObjective:
    def test_identical_squares(self):
        sq = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert abs(area_objective(sq, sq, (0.0, 0.0)) - 4.0) < 1e-12

    def test_monotone_growth(self):
        sq = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        a0 = area_objective(sq, sq, (0.0, 0.0))
        assert area_objective(sq, sq, (10.0, 0.0)) > a0

    def test_minimum_matches_lsq_for_congruent(self):
        c1 = circle(128)
        c2 = Contour(c1.points + (0.21, -0.13))
        lsq = least_squares_shift(c1, c2)
        area = minimize_area_shift(c1, c2)
        assert np.hypot(area.dx - lsq.dx, area.dy - lsq.dy) < 1e-6


def similar_optima(c1, scale):
    """Least-squares and strip-area optima for c1 and c1 scaled about its centroid.

    The statement: for similar contours the two optima coincide.
    """
    c = c1.points.mean(axis=0)
    c2 = Contour(c + scale * (c1.points - c))
    lsq = least_squares_shift(c1, c2)
    area = minimize_area_shift(c1, c2)
    return c2, lsq, area, float(np.hypot(lsq.dx - area.dx, lsq.dy - area.dy))


class TestVerifyStatement:
    def test_congruent_coincide_at_origin(self):
        _, lsq, area, dist = similar_optima(circle(128), 1.0)
        assert abs(lsq.dx) < 1e-12 and abs(lsq.dy) < 1e-12
        assert dist < 1e-10

    def test_similar_circles(self):
        _, lsq, area, dist = similar_optima(circle(256), 0.5)
        assert dist < 1e-3

    def test_grid_oracle_for_similar(self):
        c1 = circle(256)
        c2, _, area, _ = similar_optima(c1, 0.5)
        best = None
        for sx in np.arange(-0.05, 0.0501, 0.005):
            for sy in np.arange(-0.05, 0.0501, 0.005):
                val = area_objective(c1, c2, (sx, sy))
                if best is None or val < best[0]:
                    best = (val, sx, sy)
        assert np.hypot(area.dx - best[1], area.dy - best[2]) <= 0.006

    def test_dissimilar_report_only(self):
        sq = Contour(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        _, lsq, area, dist = similar_optima(sq, 0.9)
        assert np.isfinite(dist)


@st.composite
def star_pairs(draw):
    """Two random star-shaped contours with the same node count, each a scaled,
    offset radius r(theta) of three random harmonics, and a contour size.

    Positioned at that size between planes one unit apart, the contours
    span 0.15 to 40 plane distances over the star scales and the sizes."""
    n = draw(st.integers(8, 512))

    def star():
        c = draw(hnp.arrays(float, 6, elements=st.floats(-0.15, 0.15)))
        phase, scale = draw(st.floats(0, 1)), draw(st.floats(0.3, 2))
        centre = draw(hnp.arrays(float, 2, elements=st.floats(-1, 1)))
        t = 2 * np.pi * (np.arange(n) + phase) / n
        k = np.arange(1, 4)[:, None]
        r = 1 + c[:3] @ np.cos(k * t) + c[3:] @ np.sin(k * t)
        return Contour(centre + scale * np.column_stack([r * np.cos(t), r * np.sin(t)]))

    return star(), star(), draw(st.floats(0.5, 20))


class TestAreaAgainstNelderMead:
    @given(star_pairs())
    def test_never_above_oracle_and_certified(self, problem):
        # the oracles measure the same strip at the stars' own size, between
        # planes 1/size apart, where its area is smaller by size**2
        c1, c2, size = problem
        big = [Contour(size * c.points) for c in (c1, c2)]
        s = minimize_area_shift(*big)
        assert s.objective == area_objective(*big, (s.dx, s.dy))
        _, _, oracle = area_shift_by_nelder_mead(c1, c2, 1 / size)
        assert s.objective <= size**2 * oracle + AREA_RTOL * s.objective
        lower = size**2 * strip_area_lower_bound(c1, c2, 1 / size, (s.dx / size, s.dy / size))
        assert s.objective - lower <= AREA_RTOL * s.objective

    @pytest.mark.parametrize("distance", [0.05, 2.5, 100.0])
    def test_planes_any_distance_apart_by_scaling(self, distance):
        # the strip between planes s apart is that of the contours over s,
        # times s**2, and its optimal shift is s times theirs (a limacon over
        # a circle: the least-squares seed is not the minimum)
        th = 2 * np.pi * np.arange(64) / 64
        c1 = circle(64)
        c2 = Contour((1 + 0.3 * np.cos(th))[:, None] * np.column_stack([np.cos(th), np.sin(th)])
                     + (0.2, -0.1))
        s = minimize_area_shift(Contour(c1.points / distance), Contour(c2.points / distance))
        dx, dy, oracle = area_shift_by_nelder_mead(c1, c2, distance)
        assert distance**2 * s.objective <= oracle * (1 + AREA_RTOL)
        # Nelder-Mead stops within about sqrt(ulp) of a minimum where the
        # area is flat to second order (2.5e-6 at distance 100)
        assert np.hypot(distance * s.dx - dx, distance * s.dy - dy) <= 1e-5

    def test_collinear_contours(self):
        # every edge normal is vertical: the area does not depend on dx, and
        # both n^T n and the Hessian are singular
        c1 = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]))
        c2 = Contour(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [5.0, 1.0]]))
        s = minimize_area_shift(c1, c2)
        assert np.isfinite([s.dx, s.dy]).all() and abs(s.dy - 1.0) < 1e-12
        lower = strip_area_lower_bound(c1, c2, 1.0, (s.dx, s.dy))
        assert s.objective - lower <= AREA_RTOL * s.objective

    def test_step_cap_names_the_gap(self, monkeypatch):
        # a limacon over a circle: the least-squares seed is not the minimum
        th = 2 * np.pi * np.arange(64) / 64
        c2 = Contour((1 + 0.3 * np.cos(th))[:, None] * np.column_stack([np.cos(th), np.sin(th)]))
        monkeypatch.setattr(positioning, "_AREA_STEPS", 0)
        with pytest.raises(OptimizerFailed, match="after 0 Newton steps: duality gap"):
            minimize_area_shift(circle(64), c2)


class TestLiftScore:
    def test_zero_velocities(self):
        c = circle(16)
        p = NodePartition(8, np.zeros(16), np.zeros(16))
        assert lift_score(c, Contour(c.points + (0.3, 0.1)), p, (0.0, 0.0)) == 0.0

    def test_hand_evaluated_two_nodes(self):
        c1 = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        c2 = Contour(np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.0]]))
        # distances all 1; k = 2: two lower nodes +, two upper -
        v1 = np.array([1.0, 2.0, 2.0, 3.0])
        v2 = np.array([2.0, 0.0, 3.0, 0.0])
        p = NodePartition(2, v1, v2)
        got = lift_score(c1, c2, p, (0.0, 0.0))
        assert abs(got - (3.0 + 2.0 - 5.0 - 3.0)) < 1e-14

    def test_mirror_antisymmetry(self):
        # symmetric geometry and speeds: mirrored partition flips the sign
        c1 = circle(32)
        c2 = circle(32, r=0.5)
        v = np.ones(32)
        p_low = NodePartition(16, v, v)
        s = lift_score(c1, c2, p_low, (0.0, 0.2))
        s_m = lift_score(c1, c2, p_low, (0.0, -0.2))
        assert abs(s + s_m) < 1e-12

    def test_unit_gradient_at_a_subnormal_distance(self):
        # |d_i + s| = 1e-320: each term's gradient is still the unit vector
        s = np.array([[1e-320, 0.0], [0.0, -1e-320]])
        values, gx, gy = positioning._distance_sums(np.zeros((3, 2)), np.ones((3, 1)), s)
        assert values.ravel().tolist() == [3e-320, 3e-320]
        assert gx.ravel().tolist() == [3.0, 0.0] and gy.ravel().tolist() == [0.0, -3.0]

    def test_continuity_in_shift(self):
        c1, c2 = circle(32), circle(32, r=0.5)
        p = NodePartition(16, np.ones(32), 2 * np.ones(32))
        base = lift_score(c1, c2, p, (0.1, 0.1))
        eps = 1e-9
        near = lift_score(c1, c2, p, (0.1 + eps, 0.1))
        assert abs(near - base) < 1e-6


class TestMaximizeLift:
    def test_zero_velocities_tie_break(self):
        c = circle(16)
        p = NodePartition(8, np.zeros(16), np.zeros(16))
        s = maximize_lift(c, Contour(c.points + (0.1, 0.0)), p, (-0.5, -0.5, 0.5, 0.5))
        assert s.dx == 0.0 and s.dy == 0.0

    def test_faster_upper_slopes_down(self):
        # upper-surface speed sums exceed lower: maximizer drops below
        n = 64
        c1, c2 = circle(n), circle(n, r=0.5)
        t = 2 * np.pi * np.arange(n) / n
        lower = t > np.pi                  # y < 0 nodes
        k = int(np.sum(lower))
        order = np.argsort(~lower)         # lower nodes first
        c1s = Contour(c1.points[order])
        c2s = Contour(c2.points[order])
        v_slow = np.full(n, 1.0)
        v_fast = np.full(n, 3.0)
        v1 = np.where(np.arange(n) < k, v_slow, v_fast)
        p = NodePartition(k, v1, v1)
        s = maximize_lift(c1s, c2s, p, (-0.3, -0.3, 0.3, 0.3))
        assert s.dy < 0
        on_boundary = (abs(abs(s.dx) - 0.3) < 1e-6) or (abs(abs(s.dy) - 0.3) < 1e-6)
        assert on_boundary

    def test_single_upper_node(self):
        n = 16
        c1, c2 = circle(n), circle(n, r=0.6)
        p = NodePartition(n - 1, np.ones(n), np.ones(n))
        s = maximize_lift(c1, c2, p, (-0.4, -0.4, 0.4, 0.4))
        on_boundary = (abs(abs(s.dx) - 0.4) < 1e-6) or (abs(abs(s.dy) - 0.4) < 1e-6)
        assert on_boundary

    def test_box_corner_optimum_needs_few_shifts(self, monkeypatch):
        # the maximum sits on a box corner: the tangent planes of N at the
        # corners certify it after one split, where the centre tangent alone
        # needs cells of ~1e-6 (345 shifts over 16 levels)
        n = 1024
        c1, c2 = circle(n), circle(n, r=0.6)
        p = NodePartition(n - 1, np.ones(n), np.ones(n))
        count = count_shifts(monkeypatch)
        s = maximize_lift(c1, c2, p, (-0.4, -0.4, 0.4, 0.4))
        assert (s.dx, s.dy) == (-0.4, 0.4)
        assert count[0] <= 64

    def test_far_corner_stays_in_box(self):
        # congruent contours and lower-surface weights only: the score is
        # proportional to |shift|, largest at the corner farthest from 0
        n = 16
        c = circle(n)
        v = np.ones(n)
        v[-1] = 0.0
        p = NodePartition(n - 1, v, v)
        x0, y0, x1, y1 = -0.2, -0.2, 0.5, 0.5
        s = maximize_lift(c, c, p, (x0, y0, x1, y1))
        assert x0 <= s.dx <= x1 and y0 <= s.dy <= y1
        assert abs(s.dx - x1) < 1e-6 and abs(s.dy - y1) < 1e-6


    def test_count_mismatch(self):
        p = NodePartition(4, np.ones(8), np.ones(8))
        with pytest.raises(CountMismatch):
            maximize_lift(circle(8), circle(16), p, (-0.5, -0.5, 0.5, 0.5))

    def test_partition_length_mismatch(self):
        p = NodePartition(4, np.ones(8), np.ones(8))
        with pytest.raises(CountMismatch):
            maximize_lift(circle(16), circle(16, r=0.5), p, (-0.5, -0.5, 0.5, 0.5))

    @pytest.mark.parametrize("box", [(0.0, 0.0, np.inf, 1.0), (np.nan, 0.0, 1.0, 1.0),
                                     (0.0, 0.0, 0.0, 1.0)])
    def test_bad_box(self, box):
        p = NodePartition(8, np.ones(16), np.ones(16))
        with pytest.raises(BladekitError, match="shift box"):
            maximize_lift(circle(16), circle(16, r=0.5), p, box)

    def test_zero_weights_off_origin(self):
        # the box excludes the origin: its smallest-norm point is a corner
        c = circle(16)
        p = NodePartition(8, np.zeros(16), np.zeros(16))
        s = maximize_lift(c, Contour(c.points + (0.1, 0.0)), p, (0.2, 0.1, 0.5, 0.5))
        assert (s.dx, s.dy, s.objective) == (0.2, 0.1, 0.0)

    def test_symmetric_corners_tie_to_smallest_norm(self):
        # F is symmetric about y = -0.25 and grows with |x|: the corners
        # (0.5, 0.25) and (0.5, -0.75) both maximize it
        c1 = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        d = np.array([[0.0, 1.25], [0.0, 1.25], [0.0, -0.75], [0.0, -0.75]])
        c2 = Contour(c1.points - d)
        p = NodePartition(3, np.array([1.0, 1.0, 1.0, -1.0]), np.zeros(4))
        box = (0.2, -0.75, 0.5, 0.25)
        s = maximize_lift(c1, c2, p, box)
        assert (s.dx, s.dy) == (0.5, 0.25)
        assert abs(s.objective - lift_score(c1, c2, p, (0.5, -0.75))) < 1e-14

    def test_flat_score_returns_smallest_norm_point(self, monkeypatch):
        # congruent contours with weights summing to zero: F vanishes on the
        # box up to rounding, but the bounds stay loose around the cone point
        # of N at (0.3, 0.1), so the level cap has to end the search
        c = circle(16)
        p = NodePartition(8, 0.5 * np.ones(16), 0.5 * np.ones(16))
        count = count_shifts(monkeypatch)
        s = maximize_lift(c, Contour(c.points + (0.3, 0.1)), p, (-0.5, -0.5, 0.5, 0.5))
        assert (s.dx, s.dy) == (0.0, 0.0)
        assert abs(s.objective) < 1e-14
        # the origin, 5 shifts per cell over 41 capped levels, the final score
        assert count[0] <= 1 + 5 * 32749 + 1


def _contour(points):
    try:
        return Contour(points)
    except BladekitError:
        assume(False)


@st.composite
def lift_problems(draw):
    """Random contours, mixed-sign partitions and boxes."""
    n = draw(st.integers(3, 10))
    unit = st.floats(-1, 1, allow_subnormal=False)
    c1 = _contour(draw(hnp.arrays(float, (n, 2), elements=unit)))
    c2 = _contour(draw(hnp.arrays(float, (n, 2), elements=unit)))
    speeds = st.floats(-2, 2, allow_subnormal=False)
    v1, v2 = (draw(hnp.arrays(float, n, elements=speeds)) for _ in range(2))
    p = NodePartition(draw(st.integers(1, n - 1)), v1, v2)
    x0, y0 = draw(unit), draw(unit)
    wx, wy = (draw(st.floats(1e-3, 2)) for _ in range(2))
    return c1, c2, p, (x0, y0, x0 + wx, y0 + wy)


def lift_tolerance(c1, c2, p, box) -> float:
    """``LIFT_RTOL * sum|w_i| * max_i |d_i + s|`` over the box corners."""
    x0, y0, x1, y1 = box
    d = c1.points - c2.points
    corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
    reach = max(np.hypot(*(d + c).T).max() for c in corners)
    return LIFT_RTOL * np.abs(p.v1 + p.v2).sum() * reach


class TestLiftAgainstGrid:
    @given(lift_problems())
    def test_never_below_grid_optimum(self, problem):
        c1, c2, p, box = problem
        s = maximize_lift(c1, c2, p, box)
        x0, y0, x1, y1 = box
        assert x0 <= s.dx <= x1 and y0 <= s.dy <= y1
        assert s.objective == lift_score(c1, c2, p, (s.dx, s.dy))
        score, _, _ = grid_lift_optimum(c1, c2, p, box)
        assert s.objective >= score - lift_tolerance(c1, c2, p, box)

    @given(lift_problems())
    def test_never_below_centre_tangent_oracle(self, problem):
        c1, c2, p, box = problem
        s = maximize_lift(c1, c2, p, box)
        x0, y0, x1, y1 = box
        assert x0 <= s.dx <= x1 and y0 <= s.dy <= y1
        _, _, score = lift_by_centre_tangent(c1, c2, p, box)
        assert s.objective >= score - lift_tolerance(c1, c2, p, box)


class TestShiftVector:
    def test_json(self):
        s = ShiftVector(0.25, -0.5, 1.75, "lsq")
        assert s.to_json() == {"dx": 0.25, "dy": -0.5, "objective": 1.75,
                               "method": "lsq"}
