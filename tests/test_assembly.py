import dataclasses

import numpy as np

import oracles
from bladekit.assembly import (
    FD_AGREEMENT_TOL,
    RESIDUAL_TOL_ANALYTIC,
    RESIDUAL_TOL_FD,
    FieldResiduals,
    GridSpec,
    SplineField,
    assemble,
    field_residuals,
    trace_defect,
)
from bladekit.harmonic import AnalyticSeries, boundary_values, evaluate_series, integrate_series
from bladekit.planefield import Pullback, SeriesMap

FD = 1e-4

# z = zeta: arbitrary analytic data as plane potentials, defined for |z| >= 1,
# so every box below lies outside the unit circle; the planes vanish at z = 1
IDENTITY = SeriesMap(AnalyticSeries.interior([0.0, 1.0]))
GRID = GridSpec(x0=1.5, x1=3.0, y0=-0.75, y1=0.75)
ZERO = Pullback(AnalyticSeries.zero(), IDENTITY)


def velocity_plane(f: AnalyticSeries, z0: complex = 1.0) -> Pullback:
    """The plane whose velocity F' is the series f(z): its primitive, with the
    1/z term as the log and the rest zero at z0."""
    res = f.coefficient(-1)
    body = integrate_series(f + AnalyticSeries(np.array([-res]), low=-1), z0)
    return Pullback(body, IDENTITY, log=res)


def plane(coeffs, z0: complex = 1.0) -> Pullback:
    """The plane whose velocity is the polynomial ``sum_k coeffs[k] * z**k``."""
    return velocity_plane(AnalyticSeries.interior(coeffs), z0)


def rand_plane(rng, degree=5, scale=1.0) -> Pullback:
    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    c *= scale / 2.0 ** np.arange(degree + 1)
    return plane(c)


def fd_grad(f, x, y):
    gx = (f(x + FD, y) - f(x - FD, y)) / (2 * FD)
    gy = (f(x, y + FD) - f(x, y - FD)) / (2 * FD)
    return gx, gy


class TestCauchyRiemann:
    def test_classical_analytic_pair(self):
        # upper plane i*z gives v = -y, u = x at h = 1
        fld = assemble(ZERO, plane([0.0, 1.0j]), 0.0)
        x, y = GRID.plane_nodes()
        assert np.allclose(fld.velocity(x, y, 1.0)[0], x, atol=1e-13)
        assert np.allclose(fld.velocity(x, y, 1.0)[1], -y, atol=1e-13)
        res = field_residuals(fld, GRID)
        assert res.max_div < 1e-12 and res.max_curl[0] < 1e-12

    def test_pure_divergence_absorber(self):
        # no analytic data: the conj(z) term alone, u = -w1*x/2, v = -w1*y/2,
        # absorbs dw/dh = w1
        w1 = 0.7
        fld = assemble(ZERO, ZERO, w1)
        x, y = GRID.plane_nodes()
        assert np.allclose(fld.velocity(x, y, 0.4)[0], -0.5 * w1 * x, atol=1e-14)
        assert np.allclose(fld.velocity(x, y, 0.4)[1], -0.5 * w1 * y, atol=1e-14)
        res = field_residuals(fld, GRID)
        assert res.worst() < 1e-12

    def test_fd_cross_check(self):
        rng = np.random.default_rng(1)
        fld = assemble(rand_plane(rng), rand_plane(rng), 0.4)
        res = field_residuals(fld, GRID)
        assert res.fd_agreement < FD_AGREEMENT_TOL
        assert abs(res.max_div - res.fd_max_div) < 1e-6
        assert abs(res.max_curl[0] - res.fd_max_curl[0]) < 1e-6

    def test_nan_residual_fails_every_bound(self):
        nan = float("nan")
        res = FieldResiduals(1e-12, (0.0, nan, 0.0), 1e-12, (0.0, 0.0, nan), GRID)
        assert not res.worst() < RESIDUAL_TOL_ANALYTIC
        assert not res.fd_worst() < RESIDUAL_TOL_FD
        assert not res.fd_agreement < FD_AGREEMENT_TOL
        assert res.to_json()["tolerance_pass"] is False


class TestComputeW0:
    def test_f1_iz(self):
        # upper plane i*z: u1 = x, v1 = -y, w = (x^2 - y^2 - 1)/2, zero at z = 1
        fld = assemble(ZERO, plane([0.0, 1.0j]), 0.0)
        x = np.array([1.3, -1.2, 2.9])
        y = np.array([0.1, 1.4, -0.8])
        assert np.allclose(fld.velocity(x, y, 0.5)[2], (x**2 - y**2 - 1) / 2, atol=1e-13)

    def test_f1_constant(self):
        # upper plane a + ib: v1 = a, u1 = b, w = b*(x - 1) + a*y, zero at z = 1
        a, b = 0.8, -0.3
        fld = assemble(ZERO, plane([a + 1j * b]), 0.0)
        x, y = np.array([1.4]), np.array([-2.2])
        assert np.allclose(fld.velocity(x, y, 0.0)[2], b * (x - 1) + a * y, atol=1e-13)

    def test_f1_iz2_harmonic(self):
        # upper plane i*z^2: w = x^3/3 - x*y^2 - 1/3, zero at z = 1, harmonic
        fld = assemble(ZERO, plane([0, 0, 1.0j]), 0.0)
        gx, gy = np.meshgrid(np.linspace(1.5, 3.0, 7), np.linspace(-1, 1, 7))

        def w0(x, y):
            return fld.velocity(x, y, 0.0)[2]

        assert np.allclose(w0(gx, gy), gx**3 / 3 - gx * gy**2 - 1.0 / 3, atol=1e-12)
        lap = (w0(gx + FD, gy) + w0(gx - FD, gy) + w0(gx, gy + FD) + w0(gx, gy - FD)
               - 4 * w0(gx, gy)) / FD**2
        assert np.max(np.abs(lap)) < 1e-6

    def test_gradient_matches_pair_fd(self):
        # grad w = (du/dh, dv/dh); u and v are linear in h
        rng = np.random.default_rng(10)
        for _ in range(20):
            fld = assemble(rand_plane(rng), rand_plane(rng), 0.0)
            x = rng.uniform(1.5, 3.0, 8)
            y = rng.uniform(-1, 1, 8)
            gx, gy = fd_grad(lambda x, y: fld.velocity(x, y, 0.0)[2], x, y)
            (u1, v1, _), (u0, v0, _) = fld.velocity(x, y, 1.0), fld.velocity(x, y, 0.0)
            assert np.max(np.abs(gx - (u1 - u0))) < 1e-6
            assert np.max(np.abs(gy - (v1 - v0))) < 1e-6


class TestFixConstant:
    """w carries no constant of its own: where both potentials vanish, w is
    ``h*w1 + h^2*w2 - (w2/2)*|z|^2``; the pipeline's planes vanish at the origin."""

    def test_already_zero(self):
        # both potentials vanish at z = 1, and so does w at h = 0
        fld = assemble(ZERO, plane([0.0, 1.0j]), 0.0)
        assert fld.velocity(1.0, 0.0, 0.0)[2] == 0.0

    def test_shift_constant(self):
        # the radial term of w2 is the only constant: w = -(w2/2)*|z|^2 + h^2*w2
        fld = assemble(ZERO, ZERO, 0.0, w2=0.4)
        assert abs(fld.velocity(1.0, 0.0, 0.0)[2] + 0.2) < 1e-14
        assert abs(fld.velocity(2.0, 0.0, 0.0)[2] + 0.8) < 1e-14
        assert abs(fld.velocity(3.0, 0.0, 1.0)[2] + 1.4) < 1e-14

    def test_any_point_lands_below_1e14(self):
        # w(1, h) = h*w1 + h^2*w2 - w2/2 for any planes vanishing at z = 1
        rng = np.random.default_rng(3)
        for _ in range(10):
            w1, w2 = rng.uniform(-0.5, 0.5, 2)
            fld = assemble(rand_plane(rng), rand_plane(rng), w1, w2)
            for h in (0.0, 0.5, 1.0):
                w = fld.velocity(1.0, 0.0, h)[2]
                assert abs(w - (h * w1 + h**2 * w2 - w2 / 2)) < 1e-14


class TestAnalyticCorrection:
    def test_unpacked_pair_satisfies_modified_relations(self):
        rng = np.random.default_rng(7)
        for w1 in (0.0, 0.3, -1.0):
            fld = assemble(rand_plane(rng), rand_plane(rng), w1)
            res = field_residuals(fld, GRID)
            assert res.worst() < 1e-10

    def test_full_factor_fails_by_w1(self):
        # negative control: the correction (i*w1)*conj(z), i.e. the factor 1
        # instead of 1/2, leaves a divergence of |w1| in both passes
        rng = np.random.default_rng(8)
        w1 = 0.3
        fld = assemble(rand_plane(rng), rand_plane(rng), w1)
        res = field_residuals(dataclasses.replace(fld, absorbed=2 * w1), GRID)
        assert abs(res.max_div - w1) < 1e-10
        assert abs(res.fd_max_div - w1) < 1e-6

    def test_explicit_w1_two(self):
        # no analytic data, w1 = 2: the plane h = 0 is u0 = -x, v0 = -y
        fld = assemble(ZERO, ZERO, 2.0)
        x, y = np.array([1.7]), np.array([-1.1])
        assert np.allclose(fld.velocity(x, y, 0.0)[0], -x, atol=1e-14)
        assert np.allclose(fld.velocity(x, y, 0.0)[1], -y, atol=1e-14)
        assert field_residuals(fld, GRID).worst() < 1e-12


class TestAssembleLinear:
    def test_zero_field(self):
        f = assemble(ZERO, ZERO, 0.0)
        x, y = np.array([1.3]), np.array([0.4])
        assert abs(f.velocity(x, y, 0.7)[0]) < 1e-15
        assert abs(f.velocity(x, y, 0.7)[2]) < 1e-15

    def test_w_shape_from_f1_iz(self):
        f = assemble(ZERO, plane([0, 1.0j]), 0.0)
        x, y = np.array([1.5, -1.3]), np.array([0.2, 0.8])
        for h in (0.0, 0.5, 1.0):
            assert np.allclose(f.velocity(x, y, h)[2], (x**2 - y**2 - 1) / 2, atol=1e-13)

    def test_residuals_small(self):
        rng = np.random.default_rng(12)
        f = assemble(rand_plane(rng), rand_plane(rng), 0.45)
        res = field_residuals(f, GRID)
        assert res.worst() < 1e-8
        assert res.fd_max_div < 1e-6
        assert res.fd_agreement < FD_AGREEMENT_TOL

    def test_linearity_in_analytic_data(self):
        rng = np.random.default_rng(13)
        g1, g2 = rand_plane(rng), rand_plane(rng)
        h1, h2 = rand_plane(rng), rand_plane(rng)
        a, b = 0.7, -1.3
        fa = assemble(g1, h1, 0.0)
        fb = assemble(g2, h2, 0.0)
        fc = assemble(Pullback(g1.series * a + g2.series * b, IDENTITY),
                      Pullback(h1.series * a + h2.series * b, IDENTITY), 0.0)
        x, y = np.array([1.4, -1.9]), np.array([-0.2, 0.6])
        for h in (0.0, 0.8):
            (uc, vc, wc), (ua, va, wa), (ub, vb, wb) = (f.velocity(x, y, h) for f in (fc, fa, fb))
            assert np.allclose(uc, a * ua + b * ub, atol=1e-12)
            assert np.allclose(vc, a * va + b * vb, atol=1e-12)
            assert np.allclose(wc, a * wa + b * wb, atol=1e-12)

    def test_circulation_gives_a_log_term(self):
        # a 1/z term in the upper velocity is a log in its potential; curl_x
        # and curl_y read P against f_up - f_lo, so a log dropped from P alone
        # fails the FD pass (in closed form they hold by construction)
        upper = velocity_plane(AnalyticSeries.exterior([0.3, 0.5j, 0.2]))
        fld = assemble(ZERO, upper, 0.2, 0.1)
        assert upper.log == 0.5j
        res = field_residuals(fld, GRID)
        assert res.worst() < 1e-8 and max(res.fd_max_curl) < 1e-6

        class NoLogInP(SplineField):
            def planes(self, zetas):
                f_lo, f_up, p = super().planes(zetas)
                return f_lo, f_up, p - self.upper.log * np.log(zetas[1][0])

        res = field_residuals(NoLogInP(**vars(fld)), GRID)
        assert res.max_curl[1:] == (0.0, 0.0) and max(res.fd_max_curl[1:]) > 1e-2


class TestAssembleQuadratic:
    def test_random_inputs_residuals(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            q = assemble(rand_plane(rng), rand_plane(rng), rng.uniform(-0.5, 0.5),
                         rng.uniform(-0.5, 0.5))
            res = field_residuals(q, GRID)
            assert res.worst() < 1e-8
            assert res.fd_max_div < 1e-6
            assert max(res.fd_max_curl) < 1e-6


class TestResidualInjection:
    def test_perturbing_u1_breaks_continuity_by_eps(self):
        rng = np.random.default_rng(17)
        f = assemble(rand_plane(rng), rand_plane(rng), 0.0)
        eps = 1e-3

        class Perturbed(SplineField):
            # u + h*eps*x at every point set the FD pass differences
            def spline(self, z, planes, h):
                u, v, w = super().spline(z, planes, h)
                return u + np.asarray(h) * eps * z.real, v, w

        res = field_residuals(Perturbed(**vars(f)), GRID)
        assert abs(res.fd_max_div - eps) < 1e-6

    def test_changed_w1_breaks_continuity(self):
        # the conj(z) term is fixed with the planes: a field whose w1 moves
        # afterwards leaves the difference as divergence in both passes
        rng = np.random.default_rng(19)
        fld = assemble(rand_plane(rng), rand_plane(rng), 0.2, 0.1)
        res = field_residuals(dataclasses.replace(fld, w1=fld.w1 + 0.3), GRID)
        assert res.max_div == abs(fld.w1 + 0.3 - fld.absorbed)
        assert abs(res.fd_max_div - 0.3) < 1e-6

    def test_wrong_plane_difference_breaks_irrotationality(self):
        # P taken as F_lo - F_up instead of F_up - F_lo, which the FD pass sees
        rng = np.random.default_rng(20)
        fld = assemble(rand_plane(rng), rand_plane(rng), 0.2)

        class Swapped(SplineField):
            def planes(self, zetas):
                f_lo, f_up, p = super().planes(zetas)
                return f_lo, f_up, -p

        res = field_residuals(Swapped(**vars(fld)), GRID)
        assert max(res.fd_max_curl[1:]) > 1e-2
        assert res.to_json()["tolerance_pass"] is False


class TestFdPassAgainstVelocity:
    def test_fd_figures_match_cold_velocity_calls(self):
        # the FD pass reuses the base planes and warm-starts its stacked
        # shifted inversion; the reference differences cold velocity calls on
        # the same stacked sets and at the nodes
        rng = np.random.default_rng(22)
        upper = velocity_plane(AnalyticSeries.exterior([0.3, 0.5j, 0.2]))
        fields = [assemble(rand_plane(rng), rand_plane(rng), rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.5, 0.5)) for _ in range(3)]
        fields.append(assemble(rand_plane(rng), upper, 0.2, 0.1))
        for fld in fields:
            res = field_residuals(fld, GRID)
            fd_div, fd_curl = oracles.fd_residuals_by_velocity(fld, GRID)
            assert abs(res.fd_max_div - fd_div) < 1e-11
            assert np.max(np.abs(np.subtract(res.fd_max_curl, fd_curl))) < 1e-11


class TestGlue:
    """A section stacked on ``q``: its plane h = 0 is q's upper blade.

    The config gives it w1 = q.w1 + 2*q.w2, q's slope dw/dh at h = 1
    (`tests/test_config.py` checks that rule); here the fields assembled
    from it are checked to continue q.
    """

    def _quad(self, w2=0.1, w1c=0.3):
        rng = np.random.default_rng(18)
        return assemble(rand_plane(rng), rand_plane(rng), w1c, w2)

    def _next(self, q, w1=None, w2=0.0):
        rng = np.random.default_rng(21)
        w1 = q.w1 + 2.0 * q.w2 if w1 is None else w1
        return assemble(q.upper, rand_plane(rng), w1, w2)

    def test_trace_matches_field_at_top(self):
        q = self._quad()
        nxt = self._next(q)
        x, y = np.array([1.3, -1.8]), np.array([0.5, 0.1])
        assert np.allclose(nxt.velocity(x, y, 0.0)[0], q.velocity(x, y, 1.0)[0], atol=1e-13)
        assert np.allclose(nxt.velocity(x, y, 0.0)[1], q.velocity(x, y, 1.0)[1], atol=1e-13)

    def test_flat_continuation(self):
        q = self._quad(w2=0.0, w1c=0.0)
        nxt = self._next(q)
        x, y = np.array([1.4]), np.array([-0.6])
        assert np.allclose(nxt.velocity(x, y, 0.0)[0], q.velocity(x, y, 1.0)[0], atol=1e-14)
        assert nxt.w1 == q.w1

    def test_trace_defect_sees_a_missing_shift(self):
        # a section assembled from the slope rule continues q exactly; the
        # value rule w1 = w(B, 1) = q.w1 + q.w2 misses the in-plane shift
        # q.w2 of the conj(z) term, a jump of (w2/2)*|z| that trace_defect sees
        q = self._quad(w2=0.1, w1c=0.3)
        for w1, glued in ((None, True), (q.w1 + q.w2, False)):
            du, dv, _ = trace_defect(q, self._next(q, w1), GRID)
            assert (max(du, dv) < 1e-12) is glued



class TestOneEvaluationPerPlane:
    """A plane's F and F' from one `Pullback.evaluate`, with S and S' sharing
    their tables of powers, are bit for bit one `evaluate_series` per series:
    ``S + log*ln(zeta)`` and ``(S' + log/zeta)/z'``; and so are the same
    formulas summed one series at a time on flat products, as before the
    tables were shared (`oracles.evaluate_series_by_flat_blocks`)."""

    @staticmethod
    def _check(plane, zeta, dz):
        got_f, got_df = plane.evaluate(zeta, dz)
        for evaluate in (evaluate_series, oracles.evaluate_series_by_flat_blocks):
            f = evaluate(plane.series, zeta) + plane.log * np.log(zeta)
            df = (evaluate(plane.series.derivative(), zeta) + plane.log / zeta) / dz
            assert np.array_equal(got_f, f) and np.array_equal(got_df, df)
            assert np.array_equal(plane.derivative(zeta, dz), df)

    def test_blade_planes_of_the_seed7_workloads(self, seed7_reports):
        # at the residual nodes, at the FD pass's four shifted sets, and at
        # the circle nodes where the lift reads the node speeds
        d = np.array([FD, -FD, 1j * FD, -1j * FD])[:, None]
        for report in seed7_reports.values():
            for sec in report.sections:
                x, y = sec.residuals.grid.plane_nodes()
                z = x + 1j * y
                nodes = sec.field.zetas(z)
                shifted = sec.field.zetas(z + d, tuple(zeta + d / dz for zeta, dz in nodes))
                for plane, blade, at_nodes, at_shifts in zip(
                        (sec.field.lower, sec.field.upper), (sec.lower, sec.upper), nodes, shifted):
                    circle = np.exp(2j * np.pi * np.arange(blade.n) / blade.n)
                    self._check(plane, *at_nodes)
                    self._check(plane, *at_shifts)
                    self._check(plane, circle, boundary_values(blade.map.deriv, blade.n))

    def test_polynomial_and_exterior_planes(self):
        rng = np.random.default_rng(33)
        x, y = GRID.plane_nodes()
        zeta = (x + 1j * y).reshape(21, 21)
        dz = rng.standard_normal(zeta.shape) + 1j * rng.standard_normal(zeta.shape)
        planes = [rand_plane(rng) for _ in range(3)]
        planes += [velocity_plane(AnalyticSeries.exterior([0.3, 0.5j, 0.2])), ZERO]
        for plane in planes:
            self._check(plane, zeta, dz)
