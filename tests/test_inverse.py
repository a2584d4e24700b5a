import numpy as np
import pytest

from bladekit.errors import (
    InconsistentDistribution,
    MultivaluedAntiderivative,
    SingularityMismatch,
    StagnationOffCircle,
)
from bladekit.geometry import Contour, resample_uniform
from bladekit.harmonic import AnalyticSeries, boundary_values, evaluate_series
from bladekit.inverse import (
    VelocityDistribution,
    _with_correction,
    canonical_map,
    closure_conditions,
    gauge_angle,
    quasisolution_correct,
    reconstruction_map,
    solve_distribution,
    solve_modified,
    solve_zhukovsky,
)

from oracles import (
    ForwardFlow,
    cylinder,
    hausdorff_distance,
    joukowski_flow,
    perturbed_cylinder,
    quasisolution_by_fd_newton,
    smooth_map,
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
        table = cyl_dist.potential_at(s)
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
        s_a, _ = jouk_dist.rise_interval
        s = s_a + np.mod(corr.s_of_gamma(g) - s_a, jouk_dist.total_length)
        lhs = jouk_dist.potential_at(s) - jouk_dist.potential_at(s_a)
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


class TestZhukovsky:
    def test_cylinder_chi_zero(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        chi = solve_zhukovsky(cyl_dist, corr, 256)
        assert np.max(np.abs(chi.coefficients)) < 1e-10

    def test_scale_invariance(self, cyl_dist):
        kappa = 3.7
        scaled = VelocityDistribution(
            np.column_stack([cyl_dist.arc_positions, kappa * cyl_dist.speeds]),
            cyl_dist.total_length, cyl_dist.branch_indices, kappa * cyl_dist.v_inf)
        chi_a = solve_zhukovsky(cyl_dist, canonical_map(cyl_dist), 128)
        chi_b = solve_zhukovsky(scaled, canonical_map(scaled), 128)
        assert np.max(np.abs(chi_a.coefficients - chi_b.coefficients)) < 1e-10

    def test_joukowski_matches_exact_map_log(self, jouk, jouk_dist, jouk_solution):
        n = 256
        corr = jouk_solution.corr
        alpha = gauge_angle(corr, n)
        gam = 2 * np.pi * np.arange(n) / n
        mine = boundary_values(jouk_solution.chi, n)
        exact = jouk.chi_exact(np.exp(1j * (gam + alpha)))
        assert np.max(np.abs(mine - exact)) < 1e-6

    def test_mismatched_correspondence_raises(self, cyl_dist, jouk_dist):
        corr = canonical_map(jouk_dist)
        with pytest.raises(SingularityMismatch):
            solve_zhukovsky(cyl_dist, corr, 128)


class TestClosure:
    def test_cylinder_zero(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        chi = solve_zhukovsky(cyl_dist, corr, 256)
        rep = closure_conditions(chi, corr)
        assert abs(rep.closure_defect) < 1e-12
        assert abs(rep.vinf_defect) < 1e-12

    def test_artificial_residue_matches_quadrature(self, cyl_dist):
        corr = canonical_map(cyl_dist)
        chi = solve_zhukovsky(cyl_dist, corr, 256)
        bumped = chi + AnalyticSeries(np.array([0.1 + 0.0j]), low=-1)
        rep = closure_conditions(bumped, corr)
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
        chi = solve_zhukovsky(jouk_dist, corr, 256)
        rep = closure_conditions(chi, corr)
        assert rep.max_defect < 1e-8


class TestQuasisolution:
    def test_fixed_point(self, jouk_dist):
        corr = canonical_map(jouk_dist)
        chi = solve_zhukovsky(jouk_dist, corr, 256)
        chi2, rep = quasisolution_correct(chi, corr)
        assert chi2 is chi
        assert rep.correction_norm == 0.0

    def test_perturbed_cylinder(self):
        d = perturbed_cylinder(0.05)
        corr = canonical_map(d)
        chi = solve_zhukovsky(d, corr, 256)
        before = closure_conditions(chi, corr)
        assert before.max_defect > 1e-3
        chi2, rep = quasisolution_correct(chi, corr)
        assert rep.max_defect < 1e-10
        assert rep.correction_norm > 0
        chi3, rep3 = quasisolution_correct(chi2, corr)
        delta = (chi3 - chi2).coefficients
        assert np.max(np.abs(delta)) < 1e-12

    def test_doubled_vinf_absorbed_in_constant(self, cyl_dist):
        doubled = VelocityDistribution(cyl_dist.samples, cyl_dist.total_length,
                                       cyl_dist.branch_indices, 2.0 * cyl_dist.v_inf)
        corr = canonical_map(doubled)
        chi = solve_zhukovsky(doubled, corr, 256)
        rep0 = closure_conditions(chi, corr)
        assert abs(abs(rep0.vinf_defect) - np.log(2)) < 1e-9
        chi2, rep = quasisolution_correct(chi, corr)
        assert abs(rep.correction_norm - np.log(2)) < 1e-9
        assert rep.max_defect < 1e-10


    @pytest.mark.parametrize("t, c", [(0.3, 0.1 - 0.2j), (-0.7, 0.05j), (1.5, -0.4 + 0.3j)])
    def test_constant_scales_closure_and_shifts_speed(self, t, c):
        d = perturbed_cylinder(0.05)
        corr = canonical_map(d)
        chi = solve_zhukovsky(d, corr, 256)
        base = closure_conditions(_with_correction(chi, np.array([0.0, c.real, c.imag])), corr)
        moved = closure_conditions(_with_correction(chi, np.array([t, c.real, c.imag])), corr)
        assert abs(moved.closure_defect - np.exp(-t) * base.closure_defect) \
            < 1e-13 * abs(moved.closure_defect)
        assert abs(moved.vinf_defect - base.vinf_defect - t) < 1e-15

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_closed_form_sweep(self, jouk_dist, n):
        for d in (jouk_dist, perturbed_cylinder(0.05)):
            for w1 in (-0.3, 0.0, 0.1, 0.25):
                eff = d.modified(w1)
                corr = canonical_map(eff)
                chi0 = solve_zhukovsky(eff, corr, n)
                rep0 = closure_conditions(chi0, corr)
                chi, rep = quasisolution_correct(chi0, corr)
                assert rep.max_defect < 1e-11
                delta = chi - chi0
                powers = range(delta.low, delta.high + 1)
                assert all(a == 0 for p, a in zip(powers, delta.coefficients) if p not in (0, -1))
                lam0 = delta.coefficient(0)
                if chi is chi0:          # solvable as given: no correction
                    assert rep0.max_defect < 1e-11 and rep.correction_norm == 0.0
                else:
                    assert lam0.imag == 0.0
                    assert abs(lam0.real + rep0.vinf_defect) < 1e-15

    @pytest.mark.parametrize("eps, w1", [(0.02, 0.0), (0.05, -0.3), (0.05, 0.25)])
    def test_matches_fd_jacobian_newton(self, eps, w1):
        d = perturbed_cylinder(eps).modified(w1)
        corr = canonical_map(d)
        chi0 = solve_zhukovsky(d, corr, 256)
        chi, _ = quasisolution_correct(chi0, corr)
        ref = _with_correction(chi0, quasisolution_by_fd_newton(chi0, corr))
        assert np.max(np.abs((chi - ref).coefficients)) < 1e-12


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
        chi = solve_zhukovsky(cyl_dist, corr, 256)
        bumped = chi + AnalyticSeries(np.array([0.1 + 0.0j]), low=-1)
        with pytest.raises(MultivaluedAntiderivative):
            reconstruction_map(bumped, corr, 256)

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
        assert abs(got - sol.corr.circulation) < 1e-8


class TestModified:
    def test_w1_zero_reduction(self, cyl_dist):
        g0, corr, sol = solve_modified(cyl_dist, 0.0, n=128)
        base = solve_distribution(cyl_dist, 128)
        assert np.max(np.abs((sol.chi - base.chi).coefficients)) == 0.0

    def test_small_w1_defect_scale(self, cyl_dist):
        corr0 = canonical_map(cyl_dist)
        chi0 = solve_zhukovsky(cyl_dist, corr0, 256)
        base = closure_conditions(chi0, corr0).max_defect
        mod = cyl_dist.modified(0.01)
        corr = canonical_map(mod)
        chi = solve_zhukovsky(mod, corr, 256)
        defect = closure_conditions(chi, corr).max_defect
        assert defect > 10 * max(base, 1e-14)
        assert defect < 0.1                     # stays O(w1)

    def test_sign_flip_conjugates_coefficients(self, cyl_dist):
        # flipping w1 mirrors the problem across the chord: the analytic
        # datum picks up conjugated coefficients (in the physical frame)
        # and the contour reflects
        g_p, corr_p, sol_p = solve_modified(cyl_dist, 0.02, n=128)
        g_m, corr_m, sol_m = solve_modified(cyl_dist, -0.02, n=128)

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
        zeta = sol.map.invert(np.array([far]))[0]
        mine = evaluate_series(sol.velocity_series, zeta)
        A, b = sol.corr.canonical_speed, sol.corr.flow_angle
        # far away the conjugate velocity tends to -A e^{-i b}
        assert abs(mine - (-A * np.exp(-1j * b))) < 0.2
