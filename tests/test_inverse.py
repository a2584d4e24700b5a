import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bladekit import inverse
from bladekit.errors import (
    InconsistentDistribution,
    MultivaluedAntiderivative,
    QuasisolutionDiverged,
    StagnationOffCircle,
)
from bladekit.geometry import Contour, resample_uniform
from bladekit.harmonic import (
    AnalyticSeries,
    boundary_values,
    evaluate_series,
    exterior_projection,
    integrate_series,
    value_at_angle,
)
from bladekit.inverse import (
    CircleCorrespondence,
    PlanarSolution,
    VelocityDistribution,
    _with_correction,
    canonical_map,
    gauge_angle,
    quasisolution_correct,
    reconstruction_map,
    solve_distribution,
    solve_modified,
    solve_zhukovsky,
)

from oracles import (
    ForwardFlow,
    arc_positions,
    assert_same_blade,
    circle_sum_bound,
    closure_conditions,
    cylinder,
    hausdorff_distance,
    joukowski_flow,
    perturbed_cylinder,
    potential_at,
    quasisolution_by_fd_newton,
    rise_interval,
    s_of_gamma_by_bisection,
    smooth_map,
    speed_at,
    step_distribution,
)


@pytest.fixture(scope="module")
def cyl_dist():
    return cylinder().distribution(1024, 1024)


@pytest.fixture(scope="module")
def jouk():
    return joukowski_flow(beta=0.2)


@pytest.fixture(scope="module")
def jouk_dist(jouk):
    return jouk.distribution(4096, 4096)


@pytest.fixture(scope="module")
def jouk_solution(jouk, jouk_dist):
    return solve_distribution(jouk_dist, 256, z_start=jouk.branch_anchor())


def dense_hausdorff(a: Contour, b: Contour, n: int = 8192) -> float:
    return hausdorff_distance(resample_uniform(a, n), resample_uniform(b, n))


class TestVelocityDistribution:
    def test_zero_speed_rejected(self):
        s = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        with pytest.raises(InconsistentDistribution):
            VelocityDistribution(np.column_stack([s, np.zeros(16)]), 2 * np.pi,
                                 (0, 8), 1.0)

    def test_sign_change_inside_arc_rejected(self):
        s = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        v = np.sin(2 * s)                     # four sign changes
        v[0] = v[16] = 0.0
        with pytest.raises(InconsistentDistribution):
            VelocityDistribution(np.column_stack([s, v]), 2 * np.pi, (0, 16), 1.0)

    def test_nonzero_branch_sample_rejected(self):
        s = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        v = 2 * np.sin(s) + 0.3
        with pytest.raises(InconsistentDistribution):
            VelocityDistribution(np.column_stack([s, v]), 2 * np.pi, (0, 16), 1.0)

    def test_json_round_trip(self, cyl_dist):
        back = VelocityDistribution.from_json(cyl_dist.to_json())
        assert np.array_equal(back.samples, cyl_dist.samples)
        assert back.total_length == cyl_dist.total_length
        assert back.branch_indices == cyl_dist.branch_indices

    def test_json_sample_past_the_float_range_rejected(self, cyl_dist):
        # an integer sample that no float holds is refused like inf
        obj = cyl_dist.to_json()
        obj["samples"][1][1] = 10 ** 400
        with pytest.raises(InconsistentDistribution, match="samples must be finite"):
            VelocityDistribution.from_json(obj)

    @pytest.mark.parametrize("key", ["samples", "total_length", "branch_indices", "v_inf"])
    def test_json_missing_key_rejected(self, cyl_dist, key):
        obj = cyl_dist.to_json()
        del obj[key]
        with pytest.raises(InconsistentDistribution, match=f"missing '{key}'"):
            VelocityDistribution.from_json(obj)

    @pytest.mark.parametrize("obj", [[], "x", None], ids=["list", "string", "null"])
    def test_json_non_object_rejected(self, obj):
        with pytest.raises(InconsistentDistribution, match="not a distribution object"):
            VelocityDistribution.from_json(obj)

    def test_arc_positions_far_apart_rejected_without_overflow(self, cyl_dist):
        # compared, not subtracted: 1.7e308 - (-1.7e308) overflows
        samples = cyl_dist.samples.copy()
        samples[2, 0], samples[3, 0] = 1.7e308, -1.7e308
        with pytest.raises(InconsistentDistribution, match="arc positions must increase"):
            VelocityDistribution(samples, cyl_dist.total_length, cyl_dist.branch_indices, 1.0)

    def test_modified_zero_is_same_object(self, cyl_dist):
        assert cyl_dist.modified(0.0) is cyl_dist

    def test_modified_keeps_branch_zeros(self, cyl_dist):
        mod = cyl_dist.modified(0.05)
        ia, ib = mod.branch_indices
        assert mod.speeds[ia] == 0.0 and mod.speeds[ib] == 0.0

    def test_modified_structure_destroyed(self, cyl_dist):
        # |w1| above the speed slope at the stagnation point kills a sign change
        with pytest.raises(InconsistentDistribution):
            cyl_dist.modified(5.0)


class TestPotential:
    def test_cylinder_table(self, cyl_dist):
        s = np.concatenate([cyl_dist.arc_positions, [2 * np.pi]])
        table = potential_at(cyl_dist, s)
        assert np.max(np.abs(table - 2 * (1 - np.cos(s)))) < 1e-5
        assert abs(cyl_dist.circulation_smooth) < 1e-12

    def test_added_constant_circulation(self):
        m = 1024
        # V = 2 sin s + 0.1 with zeros re-derived: K*sin(s') family shifted
        s0 = np.arcsin(0.05)                  # 2 sin s + 0.1 = 0 at -s0, pi + s0
        lo, hi = -s0, np.pi + s0
        rising = lo + (hi - lo) * np.arange(m) / m
        falling = hi + (2 * np.pi - (hi - lo)) * np.arange(m) / m
        sa = np.concatenate([rising, falling])
        v = 2 * np.sin(sa) + 0.1
        v[0] = v[m] = 0.0
        d = VelocityDistribution(np.column_stack([sa - lo, v]), 2 * np.pi,
                                 (0, m), 1.0)
        assert abs(d.circulation_smooth - 0.2 * np.pi) < 1e-6

    def test_first_sample_off_zero(self, cyl_dist):
        # the periodic spline spans s_0 .. s_0 + L, so speed and potential
        # run on across s = L and the circulation does not depend on s_0
        d = relabeled(cyl_dist, 7, 0.5)
        assert d.arc_positions[0] > 0
        L = d.total_length
        ends = np.array([L - 1e-12, L + 1e-12])
        assert abs(np.diff(potential_at(d, ends))[0]) < 1e-11
        assert abs(np.diff(speed_at(d, ends))[0]) < 1e-11
        assert abs(d.circulation_smooth - cyl_dist.circulation_smooth) < 1e-12

    def test_monotone_violation(self):
        s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        v = 2 * np.sin(s)
        v[0] = v[32] = 0.0
        v[10] = -v[10]                        # sign flip inside the rising arc
        with pytest.raises(InconsistentDistribution):
            VelocityDistribution(np.column_stack([s, v]), 2 * np.pi, (0, 32), 1.0)


class TestCanonicalMap:
    def test_cylinder_identity(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        lo, hi = corr.stagnation_angles
        assert abs(lo % (2 * np.pi)) < 1e-13 or abs(lo % (2 * np.pi) - 2 * np.pi) < 1e-13
        assert abs((hi - lo) - np.pi) < 1e-13
        ss = np.linspace(0.05, 6.2, 41)
        assert np.max(np.abs(corr.s_of_gamma(ss) - ss)) < 1e-10

    def test_relabeled_start_shifts_gamma(self):
        # same cylinder flow parametrized from s0: V(s) = 2 sin(s + s0)
        s0 = 0.83
        m = 1024
        rising = (2 * np.pi - s0) % (2 * np.pi) + np.pi * np.arange(m) / m
        falling = rising[0] + np.pi + np.pi * np.arange(m) / m
        sa = np.concatenate([rising, falling])
        v = 2 * np.sin(sa - rising[0])
        v[0] = v[m] = 0.0
        d = VelocityDistribution(np.column_stack([sa - sa[0], v]), 2 * np.pi, (0, m), 1.0)
        corr = canonical_map(d)
        gg = np.linspace(0.1, 6.0, 17)
        got = corr.s_of_gamma(gg)
        # s(gamma) = gamma + const (mod 2 pi), compared on the circle
        rot = np.exp(1j * (got - gg))
        assert np.max(np.abs(rot - rot[0])) < 1e-9

    def test_joukowski_potential_matching(self, jouk, jouk_dist):
        corr = canonical_map(jouk_dist)
        th_lo = corr.stagnation_angles[0]
        g = th_lo + np.linspace(0.3, 2 * np.pi - 0.3, 101)
        s_a, _ = rise_interval(jouk_dist)
        s = s_a + np.mod(corr.s_of_gamma(g) - s_a, jouk_dist.total_length)
        lhs = potential_at(jouk_dist, s) - potential_at(jouk_dist, s_a)
        rhs = corr.canonical_potential(g) - corr.canonical_potential(th_lo)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_stagnation_off_circle(self):
        # circulation 0.2*pi with v_inf = 0.01 puts |G| above 4*pi*v_inf
        m = 256
        s0 = np.arcsin(0.05)
        lo, hi = -s0, np.pi + s0
        rising = lo + (hi - lo) * np.arange(m) / m
        falling = hi + (2 * np.pi - (hi - lo)) * np.arange(m) / m
        sa = np.concatenate([rising, falling])
        v = 2 * np.sin(sa) + 0.1
        v[0] = v[m] = 0.0
        d = VelocityDistribution(np.column_stack([sa - lo, v]), 2 * np.pi,
                                 (0, m), v_inf=0.01)
        with pytest.raises(StagnationOffCircle):
            canonical_map(d)


def relabeled(d: VelocityDistribution, k: int, frac: float) -> VelocityDistribution:
    """The same samples with arc positions measured from the point
    ``frac`` of the way from sample k to the next."""
    s, L, m = d.arc_positions, d.total_length, len(d.arc_positions)
    origin = s[k] + frac * np.mod(s[(k + 1) % m] - s[k], L)
    first = k if frac == 0.0 else (k + 1) % m
    return VelocityDistribution(np.column_stack([np.mod(np.roll(s, -first) - origin, L),
                                                 np.roll(d.speeds, -first)]),
                                L, tuple((i - first) % m for i in d.branch_indices),
                                d.v_inf, d.incidence)


def gauge_nodes(corr: CircleCorrespondence, n: int) -> np.ndarray:
    return 2 * np.pi * np.arange(n) / n + gauge_angle(corr, n)


def on_circle_gap(a, b, L: float) -> float:
    return float(np.max(np.abs(np.mod(a - b + L / 2, L) - L / 2)))


@st.composite
def correspondence_cases(draw):
    if draw(st.booleans()):
        centre = complex(draw(st.floats(-0.12, -0.04)), draw(st.floats(0.02, 0.1)))
        flow = joukowski_flow(center=centre, beta=draw(st.floats(-0.3, 0.4)))
        d = flow.distribution(draw(st.integers(64, 2048)), draw(st.integers(64, 2048)))
    else:
        d = perturbed_cylinder(draw(st.floats(0.0, 0.05)))
    try:
        d = d.modified(draw(st.floats(-0.3, 0.3)))
    except InconsistentDistribution:
        assume(False)
    d = relabeled(d, draw(st.integers(0, len(d.arc_positions) - 1)),
                  draw(st.sampled_from([0.0, 0.3, 0.9])))
    return d, 2 ** draw(st.integers(6, 12))


class TestCorrespondence:
    """`s_of_gamma` against the 80-step bisection it replaced."""

    @given(correspondence_cases())
    def test_matches_bisection_and_solves_potential(self, case):
        # relabeling puts an arc across s = L, which needs the second
        # period, and the first sample off s = 0
        d, n = case
        corr = canonical_map(d)
        g = gauge_nodes(corr, n)
        s = corr.s_of_gamma(g)
        L = d.total_length
        assert on_circle_gap(s, s_of_gamma_by_bisection(corr, g), L) <= 1e-12 * L
        th_lo, th_hi = corr.stagnation_angles
        (d_rise, dc_rise), (d_fall, dc_fall) = corr.increments
        rising = corr.on_rising_arc(g)
        start = np.where(rising, th_lo, th_hi)
        tau = ((corr.canonical_potential(th_lo + np.mod(g - th_lo, 2 * np.pi))
                - corr.canonical_potential(start))
               / np.where(rising, dc_rise, dc_fall))
        arcs = corr.arcs()
        lo = np.where(rising, *(arc.nodes[0] for arc in arcs))
        target = (np.where(rising, *(arc.values[0] for arc in arcs))
                  + tau * np.where(rising, d_rise, d_fall))
        s_arc = lo + np.mod(s - lo, L)
        # the stop's 4 ulp, two quartic evaluations of ~2 ulp each (the
        # solver's and potential_at's), and rounding s to a float
        scale = max(np.max(np.abs(arc.values)) for arc in arcs)
        tol = 8 * np.spacing(scale) + 2 * np.abs(speed_at(d, s_arc)) * np.spacing(s_arc)
        assert np.all(np.abs(potential_at(d, s_arc) - target) <= tol)

    def test_overshooting_spline_matches_bisection(self):
        # the speed spline rises to +0.043 inside the falling arc's first
        # piece, though every sample has the right sign and the potential
        # still falls from knot to knot
        d = step_distribution(v1=0.9, v33=-0.002, v34=-1.0)
        ss = np.linspace(np.pi, 2 * np.pi, 4097)
        assert np.max(speed_at(d, ss)) > 0.04
        corr = canonical_map(d)
        for n in (64, 256, 1024, 4096):
            g = gauge_nodes(corr, n)
            assert on_circle_gap(corr.s_of_gamma(g), s_of_gamma_by_bisection(corr, g),
                                 2 * np.pi) <= 1e-12 * 2 * np.pi

    def test_potential_not_monotone_at_knots_refused(self):
        # the spline's integral over the falling arc's first piece is positive
        d = step_distribution(v31=0.2, v33=-0.01)
        with pytest.raises(InconsistentDistribution,
                           match="speed spline changes sign inside an arc"):
            canonical_map(d)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_newton_converges_in_few_steps(self, jouk_dist, monkeypatch, n):
        # 5-12 steps; a step-only stop stalls near the cylinder's stagnation
        # points and needs 35-59.  At w1 = 0 the cylinder's circulation is
        # ~5e-15, and the targets near the falling arc's end fall below 1e-6.
        monkeypatch.setattr(inverse, "_CORRESPONDENCE_MAXITER", 12)
        for d in (jouk_dist, perturbed_cylinder(0.05), perturbed_cylinder(0.05).modified(-0.3)):
            corr = canonical_map(d)
            corr.s_of_gamma(gauge_nodes(corr, n))

    def test_targets_near_stagnation_points_converge(self, monkeypatch):
        # the cylinder at w1 = 0: both arcs end at stagnation points, and the
        # falling arc's end value is ~7e-16.  The residual stop is 4 ulp of the
        # arc's largest potential; 4 ulp of the target needs 22 and 26 steps.
        monkeypatch.setattr(inverse, "_CORRESPONDENCE_MAXITER", 20)
        frac = np.geomspace(1e-14, 1e-3, 200)
        frac = np.concatenate([frac, 1 - frac])
        d = perturbed_cylinder(0.05)
        for arc in canonical_map(d).arcs():
            y = arc.values[0] + frac * (arc.values[-1] - arc.values[0])
            s = arc_positions(arc, y)
            tol = (8 * np.spacing(np.max(np.abs(arc.values)))
                   + 2 * np.abs(speed_at(d, s)) * np.spacing(s))
            assert np.all(np.abs(potential_at(d, s) - y) <= tol)

    def test_unconverged_points_raise(self, jouk_dist, monkeypatch):
        monkeypatch.setattr(inverse, "_CORRESPONDENCE_MAXITER", 2)
        corr = canonical_map(jouk_dist)
        with pytest.raises(InconsistentDistribution, match="unconverged"):
            corr.s_of_gamma(gauge_nodes(corr, 256))

    @pytest.mark.parametrize("n", [64, 4096])
    def test_one_rising_arc_rule(self, jouk_dist, monkeypatch, n):
        # the earlier s_of_gamma allowed 1e-15 past th_hi, solve_zhukovsky
        # did not; at the gauge nodes all three rules agree bit for bit
        corr = canonical_map(jouk_dist)
        g = gauge_nodes(corr, n)
        th_lo, th_hi = corr.stagnation_angles
        gm = np.mod(g - th_lo, 2 * np.pi)
        rule = corr.on_rising_arc(g)
        assert np.array_equal(rule, gm <= th_hi - th_lo)
        assert np.array_equal(rule, gm <= (th_hi - th_lo) + 1e-15)
        chi = solve_zhukovsky([corr], n, [gauge_angle(corr, n)])[0]
        monkeypatch.setattr(CircleCorrespondence, "on_rising_arc", lambda self, gamma: (
            np.mod(gamma - th_lo, 2 * np.pi) <= (th_hi - th_lo) + 1e-15))
        assert np.array_equal(solve_zhukovsky([corr], n, [gauge_angle(corr, n)])[0].coefficients,
                              chi.coefficients)


@pytest.fixture(scope="module")
def sweep_blades(jouk_dist):
    """Joukowski at w1 0 and 0.1 and the perturbed cylinder."""
    return {"joukowski": jouk_dist, "joukowski_w1": jouk_dist.modified(0.1),
            "perturbed_cylinder": perturbed_cylinder(0.05)}


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
@pytest.mark.parametrize("blade", ["joukowski", "joukowski_w1", "perturbed_cylinder"])
class TestCorrespondenceIsPointwise:
    """Both arcs run in one Newton sweep; each point's result is its own."""

    def test_shuffled_angles(self, sweep_blades, blade, n):
        corr = canonical_map(sweep_blades[blade])
        g = gauge_nodes(corr, n)
        perm = np.random.default_rng(n).permutation(n)
        assert np.array_equal(corr.s_of_gamma(g[perm]), corr.s_of_gamma(g)[perm])

    def test_one_angle_alone(self, sweep_blades, blade, n):
        # every n/16-th node and the nodes on either side of each stagnation angle
        corr = canonical_map(sweep_blades[blade])
        g = gauge_nodes(corr, n)
        s = corr.s_of_gamma(g)
        step = 2 * np.pi / n
        near = [int((th - g[0]) % (2 * np.pi) // step) for th in corr.stagnation_angles]
        for k in {*range(0, n, n // 16), *near, *((k + 1) % n for k in near)}:
            assert np.array_equal(corr.s_of_gamma(g[k]), s[k:k + 1])

    def test_sweep_equals_each_arc_solved_alone(self, sweep_blades, blade, n):
        corr = canonical_map(sweep_blades[blade])
        g = gauge_nodes(corr, n)
        s = corr.s_of_gamma(g)
        th_lo = corr.stagnation_angles[0]
        phic = corr.canonical_potential(th_lo + np.mod(g - th_lo, 2 * np.pi))
        rising = corr.on_rising_arc(g)
        for mask, arc, start, (delta, dc) in zip((rising, ~rising), corr.arcs(),
                                                 corr.stagnation_angles, corr.increments):
            assert np.any(mask)
            tau = (phic[mask] - corr.canonical_potential(start)) / dc
            alone = arc_positions(arc, arc.values[0] + tau * delta)
            assert np.array_equal(np.mod(alone, corr.dist.total_length), s[mask])


@pytest.fixture(scope="module")
def batch_blades():
    """Joukowski at beta 0.1, 0.2 and 0.3 and the perturbed cylinder, each at
    w1 0 and 0.1, as ``(distribution, w1)``."""
    dists = [joukowski_flow(beta=b).distribution(2048, 2048) for b in (0.1, 0.2, 0.3)]
    return [(d, w1) for d in (*dists, perturbed_cylinder(0.05)) for w1 in (0.0, 0.1)]


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_each_blade_of_a_batch_is_its_solve_alone(batch_blades, n):
    # one correspondence sweep and one set of datum FFTs for all of them;
    # shuffled, so that no blade sits where it would alone
    order = np.random.default_rng(n).permutation(len(batch_blades))
    batch = solve_modified([batch_blades[k] for k in order], n)
    for k, got in zip(order, batch):
        d, w1 = batch_blades[k]
        assert got.w1 == w1
        assert_same_blade(got, solve_distribution(d, n, w1=w1))


def test_one_failing_blade_fails_the_batch(batch_blades):
    # the batch raises the first error; the pipeline's blade stage then solves
    # each blade alone (test_pipeline.py::test_blade_stage_isolates_a_failed_blade)
    d = batch_blades[0][0]
    with pytest.raises(InconsistentDistribution,
                       match="transversal term w1=50.0 destroys the branch structure"):
        solve_modified([batch_blades[2], (d, 50.0), batch_blades[5]], 64)


class TestZhukovsky:
    def test_cylinder_chi_zero(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        assert np.max(np.abs(chi.coefficients)) < 1e-10

    def test_scale_invariance(self, cyl_dist):
        kappa = 3.7
        scaled = VelocityDistribution(
            np.column_stack([cyl_dist.arc_positions, kappa * cyl_dist.speeds]),
            cyl_dist.total_length, cyl_dist.branch_indices, kappa * cyl_dist.v_inf)
        corr_a, corr_b = canonical_map(cyl_dist), canonical_map(scaled)
        chi_a = solve_zhukovsky([corr_a], 128, [gauge_angle(corr_a, 128)])[0]
        chi_b = solve_zhukovsky([corr_b], 128, [gauge_angle(corr_b, 128)])[0]
        assert np.max(np.abs(chi_a.coefficients - chi_b.coefficients)) < 1e-10

    def test_joukowski_matches_exact_map_log(self, jouk, jouk_dist, jouk_solution):
        n = 256
        corr = jouk_solution.corr
        alpha = gauge_angle(corr, n)
        gam = 2 * np.pi * np.arange(n) / n
        mine = boundary_values(jouk_solution.chi, n)
        exact = jouk.chi_exact(np.exp(1j * (gam + alpha)))
        assert np.max(np.abs(mine - exact)) < 1e-6


class TestClosure:
    def test_cylinder_zero(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        rep = closure_conditions(chi, 256)
        assert abs(rep.closure_defect) < 1e-12
        assert abs(rep.vinf_defect) < 1e-12

    def test_artificial_residue_matches_quadrature(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        bumped = chi + AnalyticSeries(np.array([0.1 + 0.0j]), low=-1)
        rep = closure_conditions(bumped, 256)
        # independent quadrature of the loop integral (trapezoid = Riemann
        # sum on a full period of a periodic integrand)
        m = 8192
        th = 2 * np.pi * np.arange(m) / m
        zp = np.exp(-evaluate_series(bumped, np.exp(1j * th)))
        quad = np.sum(zp * 1j * np.exp(1j * th)) * 2 * np.pi / m
        assert abs(rep.closure_defect) > 1e-3
        assert abs(rep.closure_defect - quad) < 1e-6 * abs(quad) + 1e-10

    def test_joukowski_solvable_before_correction(self, jouk_dist):
        corr = canonical_map(jouk_dist)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        rep = closure_conditions(chi, 256)
        assert rep.max_defect < 1e-8


class TestQuasisolution:
    def test_fixed_point(self, jouk_dist):
        corr = canonical_map(jouk_dist)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        chi2, rep, _ = quasisolution_correct(chi, 256)
        assert chi2 is chi
        assert rep.correction_norm == 0.0

    def test_perturbed_cylinder(self):
        d = perturbed_cylinder(0.05)
        corr = canonical_map(d)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        before = closure_conditions(chi, 256)
        assert before.max_defect > 1e-3
        chi2, rep, _ = quasisolution_correct(chi, 256)
        assert rep.max_defect < 1e-10
        assert rep.correction_norm > 0
        chi3, rep3, _ = quasisolution_correct(chi2, 256)
        delta = (chi3 + chi2 * -1.0).coefficients
        assert np.max(np.abs(delta)) < 1e-12

    def test_doubled_vinf_absorbed_in_constant(self, cyl_dist):
        doubled = VelocityDistribution(cyl_dist.samples, cyl_dist.total_length,
                                       cyl_dist.branch_indices, 2.0 * cyl_dist.v_inf)
        corr = canonical_map(doubled)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        rep0 = closure_conditions(chi, 256)
        assert abs(abs(rep0.vinf_defect) - np.log(2)) < 1e-9
        chi2, rep, _ = quasisolution_correct(chi, 256)
        assert abs(rep.correction_norm - np.log(2)) < 1e-9
        assert rep.max_defect < 1e-10


    @pytest.mark.parametrize("t, c", [(0.3, 0.1 - 0.2j), (-0.7, 0.05j), (1.5, -0.4 + 0.3j)])
    def test_constant_scales_closure_and_shifts_speed(self, t, c):
        d = perturbed_cylinder(0.05)
        corr = canonical_map(d)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        base = closure_conditions(_with_correction(chi, np.array([0.0, c.real, c.imag])), 256)
        moved = closure_conditions(_with_correction(chi, np.array([t, c.real, c.imag])), 256)
        assert abs(moved.closure_defect - np.exp(-t) * base.closure_defect) \
            < 1e-13 * abs(moved.closure_defect)
        assert abs(moved.vinf_defect - base.vinf_defect - t) < 1e-15

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_closed_form_sweep(self, jouk_dist, n):
        for d in (jouk_dist, perturbed_cylinder(0.05)):
            for w1 in (-0.3, 0.0, 0.1, 0.25):
                eff = d.modified(w1)
                corr = canonical_map(eff)
                chi0 = solve_zhukovsky([corr], n, [gauge_angle(corr, n)])[0]
                rep0 = closure_conditions(chi0, n)
                chi, rep, _ = quasisolution_correct(chi0, n)
                assert rep.max_defect < 1e-11
                delta = chi + chi0 * -1.0
                powers = range(delta.low, delta.high + 1)
                assert all(a == 0 for p, a in zip(powers, delta.coefficients) if p not in (0, -1))
                lam0 = delta.coefficient(0)
                if chi is chi0:          # solvable as given: no correction
                    assert rep0.max_defect < 1e-11 and rep.correction_norm == 0.0
                else:
                    assert lam0.imag == 0.0
                    assert abs(lam0.real + rep0.vinf_defect) < 1e-15

    def test_newton_cap_raises_diverged(self, monkeypatch):
        # one Newton step leaves a closure defect of 0.12 on this modified
        # blade, which is refused; two close it
        d = joukowski_flow().distribution(512, 512).modified(0.1)
        corr = canonical_map(d)
        chi0 = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        monkeypatch.setattr(inverse, "_NEWTON_MAXITER", 1)
        with pytest.raises(QuasisolutionDiverged, match="no convergence in 1 iterations"):
            quasisolution_correct(chi0, 256)
        monkeypatch.setattr(inverse, "_NEWTON_MAXITER", 2)
        assert quasisolution_correct(chi0, 256)[1].max_defect < 1e-10

    @pytest.mark.parametrize("eps, w1", [(0.02, 0.0), (0.05, -0.3), (0.05, 0.25)])
    def test_matches_fd_jacobian_newton(self, eps, w1):
        d = perturbed_cylinder(eps).modified(w1)
        corr = canonical_map(d)
        chi0 = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        chi, _, _ = quasisolution_correct(chi0, 256)
        ref = _with_correction(chi0, quasisolution_by_fd_newton(chi0, 256))
        assert np.max(np.abs((chi + ref * -1.0).coefficients)) < 1e-12


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
@pytest.mark.parametrize("blade", ["joukowski", "joukowski_w1", "perturbed_cylinder"])
class TestKeptNodalDerivative:
    """The one nodal z' a solve forms serves its closure report and its map."""

    def test_reported_closure_is_a_measurement(self, sweep_blades, blade, n):
        corr = canonical_map(sweep_blades[blade])
        chi0 = solve_zhukovsky([corr], n, [gauge_angle(corr, n)])[0]
        chi, rep, _ = quasisolution_correct(chi0, n)
        ref = closure_conditions(chi, n)
        assert rep.max_defect < 1e-11
        assert abs(rep.closure_defect - ref.closure_defect) <= 1e-14
        assert rep.vinf_defect == ref.vinf_defect

    def test_map_from_kept_values(self, sweep_blades, blade, n):
        corr = canonical_map(sweep_blades[blade])
        alpha = gauge_angle(corr, n)
        chi, _, zprime = quasisolution_correct(solve_zhukovsky([corr], n, [alpha])[0], n)
        kept, fresh = (reconstruction_map(z, alpha, corr.branch_angle(alpha)).series
                       for z in (zprime, np.exp(-boundary_values(chi, n))))
        powers = range(min(kept.low, fresh.low), max(kept.high, fresh.high) + 1)
        gap = max(abs(kept.coefficient(p) - fresh.coefficient(p)) for p in powers)
        assert gap <= 1e-14 * np.max(np.abs(fresh.coefficients))


class TestReconstruct:
    def test_cylinder_unit_circle(self, cyl_dist):
        fl = cylinder()
        sol = solve_distribution(cyl_dist, 256, z_start=fl.branch_anchor())
        exact = Contour.from_complex(fl.contour_nodes(2048))
        assert dense_hausdorff(sol.contour, exact) < 1e-3

    def test_translation_equivariance(self, cyl_dist):
        sol_a = solve_distribution(cyl_dist, 128, z_start=0.0)
        sol_b = solve_distribution(cyl_dist, 128, z_start=1.0 + 2.0j)
        delta = sol_b.contour.points @ (1, 1j) - sol_a.contour.points @ (1, 1j)
        assert np.max(np.abs(delta - (1.0 + 2.0j))) < 1e-12

    def test_joukowski_round_trip(self, jouk, jouk_dist, jouk_solution):
        exact = Contour.from_complex(jouk.contour_nodes(4096))
        err = dense_hausdorff(jouk_solution.contour, exact)
        assert err < 1e-2 * jouk.chord()

    def test_joukowski_nodewise(self, jouk, jouk_solution):
        n = jouk_solution.n
        alpha = gauge_angle(jouk_solution.corr, n)
        gam = 2 * np.pi * np.arange(n) / n
        exact = jouk.boundary_point(gam + alpha)
        err = np.max(np.abs(jouk_solution.contour.points @ (1, 1j) - exact))
        assert err < 1e-9 * jouk.chord()

    def test_incidence_equivariance(self, jouk, jouk_dist, jouk_solution):
        alpha_rot = 0.37
        zs = jouk.branch_anchor()
        d2 = VelocityDistribution(jouk_dist.samples, jouk_dist.total_length,
                                  jouk_dist.branch_indices, jouk_dist.v_inf,
                                  jouk_dist.incidence + alpha_rot)
        sol2 = solve_distribution(d2, 256, z_start=zs)
        base = jouk_solution.contour.points @ (1, 1j)
        rotated = zs + (base - zs) * np.exp(-1j * alpha_rot)
        got = sol2.contour.points @ (1, 1j)
        best = min(np.max(np.abs(np.roll(got, -m) - rotated)) for m in range(256))
        assert best < 1e-8

    def test_not_closed_without_correction(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        alpha = gauge_angle(corr, 256)
        chi = solve_zhukovsky([corr], 256, [alpha])[0]
        bumped = chi + AnalyticSeries(np.array([0.1 + 0.0j]), low=-1)
        with pytest.raises(MultivaluedAntiderivative):
            reconstruction_map(np.exp(-boundary_values(bumped, 256)), alpha,
                               corr.branch_angle(alpha))

    @pytest.mark.parametrize("blade", ["joukowski_w1", "perturbed_cylinder"])
    def test_contour_is_the_map_on_the_circle(self, jouk, jouk_dist, blade):
        # the exported nodes are the map's image of the circle nodes, so the
        # CSV, the residual box and the positioning see the blade the field does
        if blade == "joukowski_w1":
            sol = solve_distribution(jouk_dist, 256, z_start=jouk.branch_anchor(), w1=0.1)
        else:
            sol = solve_distribution(perturbed_cylinder(0.03), 256)
        assert sol.closure.corrected
        nodes = sol.contour.points @ (1, 1j)
        on_map = evaluate_series(sol.map.series, np.exp(2j * np.pi * np.arange(256) / 256))
        size = np.max(np.abs(nodes - nodes.mean()))
        assert np.max(np.abs(nodes - on_map)) < 1e-12 * size

    @pytest.mark.parametrize("w1", [0.0, 0.1])
    @pytest.mark.parametrize("n", [64, 256])
    def test_map_and_potential_are_fixed_at_the_branch_point(self, n, w1):
        # the map sends zeta_B, the rising-arc stagnation point in the gauge
        # frame, to z_start, and the blade plane's potential vanishes there
        d = joukowski_flow(center=-0.08 + 0.05j, beta=0.1).distribution(2048, 2048)
        sol = solve_distribution(d, n, w1=w1)
        zeta_b = np.exp(1j * ((sol.corr.stagnation_angles[0] - sol.gauge) % (2 * np.pi)))
        scale = sol.corr.dist.v_inf + abs(sol.corr.dist.circulation_smooth)
        assert abs(sol.potential.evaluate(zeta_b, 1.0)[0]) <= 1e-14 * scale
        assert abs(evaluate_series(sol.map.series, zeta_b) - sol.z_start) <= 1e-14

    @pytest.mark.parametrize("w1", [0.0, 0.1])
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_pin_is_the_one_angle_sum_at_zeta_b(self, n, w1):
        # the map's constant is fixed by the antiderivative's one-angle sum at
        # zeta_B's angle; it agrees with the blocked kernel at zeta_B, and the
        # map sends zeta_B to z_start, within oracles.circle_sum_bound
        d = joukowski_flow(center=-0.08 + 0.05j, beta=0.1).distribution(2048, 2048)
        sol = solve_distribution(d, n, z_start=0.4 - 0.3j, w1=w1)
        phi = sol.corr.branch_angle(sol.gauge)
        zeta_b = sol.corr.branch_preimage(sol.gauge)
        assert 0.0 <= phi < 2 * np.pi
        anti = integrate_series(exterior_projection(sol.zprime))
        bound = circle_sum_bound(anti + AnalyticSeries.interior([sol.z_start]), n)
        assert abs(value_at_angle(anti, phi) - evaluate_series(anti, zeta_b)) <= bound
        assert abs(evaluate_series(sol.map.series, zeta_b) - sol.z_start) <= bound

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("beta", [0.1, 0.3])
    def test_blade_does_not_depend_on_its_gauge(self, beta, n):
        # datum and map in a gauge moved by delta give the same blade, with
        # the parameter rotated by delta; a datum sampled off the map's frame
        # does not.  At w1 = 0 the moved blades agree to 8.4e-13 of the chord
        # and the mismatched one is off by 1.8e-5 (n 4096) or more.  n 64 is
        # left out: there the same moves shift the blade by up to 2.2e-6, the
        # under-resolution of ROADMAP item 1.
        flow = joukowski_flow(beta=beta)
        corr = canonical_map(flow.distribution(2048, 2048))
        chord = flow.chord()
        alpha = gauge_angle(corr, n)
        step = 2 * np.pi / n
        zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)

        def blade(datum_gauge, map_gauge, delta=0.0):
            chi0 = solve_zhukovsky([corr], n, [datum_gauge])[0]
            chi, report, zprime = quasisolution_correct(chi0, n)
            sol = PlanarSolution(corr, n, map_gauge, chi, report, zprime, 0j)
            return evaluate_series(sol.map.series, zeta * np.exp(-1j * delta))

        base = blade(alpha, alpha)
        for delta in (step / 64, -step / 8):
            moved = blade(alpha + delta, alpha + delta, delta)
            assert np.max(np.abs(moved - base)) < 1e-11 * chord
        mismatched = blade(alpha + step / 64, alpha)
        assert np.max(np.abs(mismatched - base)) > 1e-6 * chord

    def test_refinement_order_at_least_two(self):
        coeffs = 0.35 * (0.5 * np.exp(0.4j)) ** np.arange(1, 9)
        flow = ForwardFlow(smooth_map(coeffs, center=0.1 - 0.05j),
                           v_inf=1.0, beta=0.15, circulation=0.8)
        d = flow.distribution(4096, 4096)
        zs = flow.branch_anchor()
        errs = []
        for n in (16, 32, 64):
            sol = solve_distribution(d, n, z_start=zs)
            alpha = gauge_angle(sol.corr, n)
            gam = 2 * np.pi * np.arange(n) / n
            exact = flow.boundary_point(gam + alpha)
            errs.append(np.max(np.abs(sol.contour.points @ (1, 1j) - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(o >= 2.0 for o in orders), (errs, orders)

    def test_circulation_consistency(self, jouk, jouk_solution):
        # loop integral of the tangential speed over the reconstructed nodes,
        # via the velocity series and the spectral tangent of the contour
        sol = jouk_solution
        n = sol.n
        gam = 2 * np.pi * np.arange(n) / n
        g_vals = evaluate_series(sol.velocity_series, np.exp(1j * gam))
        zprime = np.exp(-boundary_values(sol.chi, n))
        dz_dgamma = np.exp(1j * sol.gauge) * zprime * 1j * np.exp(1j * gam)
        dphi = (g_vals * dz_dgamma).real          # d(potential) along the contour
        got = np.sum(dphi) * 2 * np.pi / n
        assert abs(got - sol.corr.dist.circulation_smooth) < 1e-8


class TestModified:
    def test_w1_zero_reduction(self, cyl_dist):
        sol, = solve_modified([(cyl_dist, 0.0)], 128)
        base = solve_distribution(cyl_dist, 128)
        assert np.max(np.abs((sol.chi + base.chi * -1.0).coefficients)) == 0.0

    def test_small_w1_defect_scale(self, cyl_dist):
        corr0 = canonical_map(cyl_dist)
        chi0 = solve_zhukovsky([corr0], 256, [gauge_angle(corr0, 256)])[0]
        base = closure_conditions(chi0, 256).max_defect
        mod = cyl_dist.modified(0.01)
        corr = canonical_map(mod)
        chi = solve_zhukovsky([corr], 256, [gauge_angle(corr, 256)])[0]
        defect = closure_conditions(chi, 256).max_defect
        assert defect > 10 * max(base, 1e-14)
        assert defect < 0.1                     # stays O(w1)

    def test_sign_flip_conjugates_coefficients(self, cyl_dist):
        # flipping w1 mirrors the problem across the chord: the analytic
        # datum picks up conjugated coefficients (in the physical frame)
        # and the contour reflects
        sol_p, sol_m = solve_modified([(cyl_dist, 0.02), (cyl_dist, -0.02)], 128)
        g_p, corr_p = sol_p.velocity_series, sol_p.corr
        g_m, corr_m = sol_m.velocity_series, sol_m.corr

        def physical_coeffs(series, corr):
            k = np.arange(-series.low + 1)
            c = np.array([series.coefficient(-j) for j in k])
            return c * np.exp(1j * k * gauge_angle(corr, 128))

        cp = physical_coeffs(g_p, corr_p)
        cm = physical_coeffs(g_m, corr_m)
        assert np.max(np.abs(cm - np.conj(cp))) < 1e-9
        mirrored = Contour(np.column_stack([sol_p.contour.points[:, 0],
                                            -sol_p.contour.points[:, 1]]))
        assert dense_hausdorff(sol_m.contour, mirrored, 2048) < 1e-3

    def test_velocity_series_far_field(self, jouk, jouk_dist, jouk_solution):
        sol = jouk_solution
        far = 6.0 - 1.5j
        zeta = sol.map.invert(np.array([far]))[0][0]
        mine = evaluate_series(sol.velocity_series, zeta)
        A, b = sol.corr.dist.v_inf, -sol.corr.dist.incidence
        # far away the conjugate velocity tends to -A e^{-i b}
        assert abs(mine - (-A * np.exp(-1j * b))) < 0.2
