import numpy as np

from bladekit.assembly import (
    GridSpec,
    analytic_correction,
    assemble,
    check_cauchy_riemann,
    compute_w0,
    field_residuals,
    fix_w0_constant,
    glue_sections,
    trace_defect,
)
from bladekit.geometry import Point2
from bladekit.harmonic import AnalyticSeries
from bladekit.planefield import ComplexPlaneField, imag_part, real_part

FD = 1e-4


def rand_series(rng, degree=5, scale=1.0):
    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    c *= scale / 2.0 ** np.arange(degree + 1)
    return AnalyticSeries.interior(c)


def fd_grad(f, x, y):
    gx = (f(x + FD, y) - f(x - FD, y)) / (2 * FD)
    gy = (f(x, y + FD) - f(x, y - FD)) / (2 * FD)
    return gx, gy


class TestCauchyRiemann:
    def test_classical_analytic_pair(self):
        # g = i*z gives v1 = -y, u1 = x
        f = AnalyticSeries.interior([0.0, 1.0j])
        u, v = analytic_correction(f, 0.0)
        r1, r2 = check_cauchy_riemann((u, v), "classical")
        assert r1 < 1e-12 and r2 < 1e-12

    def test_pure_divergence_absorber(self):
        w1 = 0.7
        # u = -w1*x, v = 0
        u = real_part(ComplexPlaneField.from_series(AnalyticSeries.interior([0.0, -w1])))
        v = real_part(ComplexPlaneField())
        r1, r2 = check_cauchy_riemann((u, v), "modified", w1)
        assert r1 < 1e-12 and r2 < 1e-12

    def test_fd_cross_check(self):
        rng = np.random.default_rng(1)
        g = rand_series(rng)
        u, v = analytic_correction(g, 0.4)
        exact = check_cauchy_riemann((u, v), "modified", 0.4)
        fd = check_cauchy_riemann((lambda x, y: u(x, y), lambda x, y: v(x, y)),
                                  "modified", 0.4)
        assert abs(exact[0] - fd[0]) < 1e-6
        assert abs(exact[1] - fd[1]) < 1e-6


def _coordinate_field(which):
    # x = Re z, y = Im z as scalar fields
    z = AnalyticSeries.interior([0.0, 1.0])
    cf = ComplexPlaneField.from_series(z)
    return real_part(cf) if which == "x" else imag_part(cf)


class TestComputeW0:
    def test_f1_iz(self):
        # f1 = i*z: u1 = x, v1 = -y, w0 = (x^2 - y^2)/2
        w0 = compute_w0(AnalyticSeries.interior([0.0, 1.0j]), 0.0)
        x = np.array([0.3, -1.2, 0.9])
        y = np.array([0.1, 0.4, -0.8])
        assert np.allclose(w0(x, y), (x**2 - y**2) / 2, atol=1e-13)

    def test_f1_constant(self):
        # f1 = a + ib: v1 = a, u1 = b, w0 = b*x + a*y
        a, b = 0.8, -0.3
        w0 = compute_w0(AnalyticSeries.interior([a + 1j * b]), 0.0)
        x, y = np.array([1.4]), np.array([-2.2])
        assert np.allclose(w0(x, y), b * x + a * y, atol=1e-13)

    def test_f1_iz2_harmonic(self):
        # f1 = i*z^2: w0 = x^3/3 - x*y^2, harmonic
        w0 = compute_w0(AnalyticSeries.interior([0, 0, 1.0j]), 0.0)
        x = np.linspace(-1, 1, 7)
        y = np.linspace(-1, 1, 7)
        gx, gy = np.meshgrid(x, y)
        assert np.allclose(w0(gx, gy), gx**3 / 3 - gx * gy**2, atol=1e-12)
        lap = (w0(gx + FD, gy) + w0(gx - FD, gy) + w0(gx, gy + FD) + w0(gx, gy - FD)
               - 4 * w0(gx, gy)) / FD**2
        assert np.max(np.abs(lap)) < 1e-6

    def test_gradient_matches_pair_fd(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            f1 = rand_series(rng)
            w0 = compute_w0(f1, 0.0)
            x = rng.uniform(-1, 1, 8)
            y = rng.uniform(-1, 1, 8)
            gx, gy = fd_grad(w0, x, y)
            u1, v1 = analytic_correction(f1, 0.0)
            assert np.max(np.abs(gx - u1(x, y))) < 1e-6
            assert np.max(np.abs(gy - v1(x, y))) < 1e-6


class TestFixConstant:
    def test_already_zero(self):
        w0 = compute_w0(AnalyticSeries.interior([0.0, 1.0j]), 0.0)
        fixed = fix_w0_constant(w0, Point2(1.0, 1.0))
        assert abs(fixed(1.0, 1.0)) < 1e-14
        assert abs(fixed(0.5, 0.0) - w0(0.5, 0.0)) < 1e-14

    def test_shift_constant(self):
        w0 = _coordinate_field("x").plus_const(3.0)
        fixed = fix_w0_constant(w0, Point2(0.0, 0.0))
        assert abs(fixed(0.0, 0.0)) < 1e-14
        assert abs(fixed(2.0, 0.0) - 2.0) < 1e-14

    def test_any_point_lands_below_1e14(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w0 = compute_w0(rand_series(rng), 0.0)
            b = Point2(*rng.uniform(-1, 1, 2))
            assert abs(fix_w0_constant(w0, b)(b.x, b.y)) < 1e-14


class TestAnalyticCorrection:
    def test_unpacked_pair_satisfies_modified_relations(self):
        rng = np.random.default_rng(7)
        for w1 in (0.0, 0.3, -1.0):
            u0, v0 = analytic_correction(rand_series(rng), w1)
            r1, r2 = check_cauchy_riemann((u0, v0), "modified", w1)
            assert r1 < 1e-10 and r2 < 1e-10

    def test_full_factor_fails_by_w1(self):
        # negative control: correction (i*w1)*conj(z) leaves residual |w1|
        rng = np.random.default_rng(8)
        w1 = 0.3
        g = rand_series(rng)
        cf = ComplexPlaneField.from_series(g) + ComplexPlaneField.zbar_multiple(-1.0j * w1)
        u0, v0 = imag_part(cf), real_part(cf)
        r1, _ = check_cauchy_riemann((u0, v0), "modified", w1)
        assert abs(r1 - w1) < 1e-10

    def test_explicit_w1_two(self):
        # g = 0, w1 = 2: pair is -Im/-Re parts of (i)*conj(z)
        u0, v0 = analytic_correction(AnalyticSeries.zero(), 2.0)
        x, y = np.array([0.7]), np.array([-1.1])
        assert np.allclose(u0(x, y), -x, atol=1e-14)
        assert np.allclose(v0(x, y), -y, atol=1e-14)
        r1, r2 = check_cauchy_riemann((u0, v0), "modified", 2.0)
        assert r1 < 1e-12 and r2 < 1e-12


class TestAssembleLinear:
    def test_zero_field(self):
        f = assemble(AnalyticSeries.zero(), AnalyticSeries.zero(), 0.0, Point2(0, 0))
        x, y = np.array([0.3]), np.array([0.4])
        assert abs(f.u(x, y, 0.7)) < 1e-15
        assert abs(f.w(x, y, 0.7)) < 1e-15

    def test_w_shape_from_f1_iz(self):
        f = assemble(AnalyticSeries.zero(), AnalyticSeries.interior([0, 1.0j]),
                     0.0, Point2(0, 0))
        x, y = np.array([0.5, -0.3]), np.array([0.2, 0.8])
        for h in (0.0, 0.5, 1.0):
            assert np.allclose(f.w(x, y, h), (x**2 - y**2) / 2, atol=1e-13)

    def test_residuals_small(self):
        rng = np.random.default_rng(12)
        f = assemble(rand_series(rng), rand_series(rng), 0.45, Point2(0.2, -0.1))
        res = field_residuals(f)
        assert res.worst() < 1e-8
        assert res.fd_max_div < 1e-6
        assert res.paths_agree

    def test_linearity_in_analytic_data(self):
        rng = np.random.default_rng(13)
        g1, g2 = rand_series(rng), rand_series(rng)
        h1, h2 = rand_series(rng), rand_series(rng)
        a, b = 0.7, -1.3
        B = Point2(0.1, 0.3)
        fa = assemble(g1, h1, 0.0, B)
        fb = assemble(g2, h2, 0.0, B)
        fc = assemble(g1 * a + g2 * b, h1 * a + h2 * b, 0.0, B)
        x, y = np.array([0.4, -0.9]), np.array([-0.2, 0.6])
        for h in (0.0, 0.8):
            assert np.allclose(fc.u(x, y, h), a * fa.u(x, y, h) + b * fb.u(x, y, h), atol=1e-12)
            assert np.allclose(fc.v(x, y, h), a * fa.v(x, y, h) + b * fb.v(x, y, h), atol=1e-12)
            assert np.allclose(fc.w(x, y, h), a * fa.w(x, y, h) + b * fb.w(x, y, h), atol=1e-12)


class TestAssembleQuadratic:
    def test_random_inputs_residuals(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            q = assemble(rand_series(rng), rand_series(rng), rng.uniform(-0.5, 0.5),
                         Point2(0.1, 0.1), rng.uniform(-0.5, 0.5))
            res = field_residuals(q)
            assert res.worst() < 1e-8
            assert res.fd_max_div < 1e-6
            assert max(res.fd_max_curl) < 1e-6


class TestResidualInjection:
    def test_perturbing_u1_breaks_continuity_by_eps(self):
        rng = np.random.default_rng(17)
        f = assemble(rand_series(rng), rand_series(rng), 0.0, Point2(0, 0))
        eps = 1e-3

        class Perturbed:
            def u(self, x, y, h):
                return f.u(x, y, h) + np.asarray(h) * eps * np.asarray(x)

            def v(self, x, y, h):
                return f.v(x, y, h)

            def w(self, x, y, h):
                return f.w(x, y, h)

        from bladekit.assembly import _fd_residuals
        grid = GridSpec()
        x, y = grid.plane_nodes()
        fd_div, fd_curl = _fd_residuals(Perturbed(), x, y, grid.h_nodes())
        assert abs(fd_div - eps) < 1e-6


class TestGlue:
    def _quad(self, w2=0.1, w1c=0.3):
        rng = np.random.default_rng(18)
        return assemble(rand_series(rng), rand_series(rng), w1c, Point2(0.0, 0.0), w2)

    @staticmethod
    def _lower_trace(q, spec):
        # the next section's plane h = 0: the completion of the shared blade,
        # f0 + f1 of q, unpacked with the glue data
        return analytic_correction(q.f0 + q.f1, spec["w1_const"] + spec["extra_div"])

    def test_w1_chaining_rule(self):
        q = self._quad(w2=0.1, w1c=0.3)
        spec = glue_sections(q)
        assert abs(spec["w1_const"] - 0.4) < 1e-14

    def test_trace_matches_field_at_top(self):
        q = self._quad()
        spec = glue_sections(q)
        u, v = self._lower_trace(q, spec)
        x, y = np.array([0.3, -0.8]), np.array([0.5, 0.1])
        assert np.allclose(u(x, y), q.u(x, y, 1.0), atol=1e-13)
        assert np.allclose(v(x, y), q.v(x, y, 1.0), atol=1e-13)

    def test_transversal_datum_fixes_w2(self):
        q = self._quad(w2=0.1, w1c=0.3)
        spec = glue_sections(q, transversal=(0.9, 1.0))
        # w(B, 1) = w1 + w2 = 0.9 with w1 = 0.4 gives w2 = 0.5
        assert abs(spec["w2"] - 0.5) < 1e-13

    def test_flat_continuation(self):
        q = self._quad(w2=0.0, w1c=0.0)
        spec = glue_sections(q)
        u, _ = self._lower_trace(q, spec)
        x, y = np.array([0.4]), np.array([-0.6])
        assert np.allclose(u(x, y), q.u(x, y, 1.0), atol=1e-14)
        assert abs(spec["w1_const"] - q.w1) < 1e-14

    def test_trace_defect_sees_a_missing_shift(self):
        # a section assembled from the glue data continues q exactly; dropping
        # the in-plane shift leaves a jump of (w2/2)*|z| that trace_defect sees
        q = self._quad(w2=0.1, w1c=0.3)
        spec = glue_sections(q)
        B = Point2(0.0, 0.0)
        grid = GridSpec()
        for shift, glued in ((spec["extra_div"], True), (0.0, False)):
            nxt = assemble(q.f0 + q.f1, AnalyticSeries.zero(), spec["w1_const"], B,
                           spec["w2"], extra_div=shift)
            du, dv = trace_defect(q, nxt, grid)
            assert (max(du, dv) < 1e-12) is glued
