"""Forward potential-flow oracle for round-trip tests.

Builds boundary-speed data from an explicitly known conformal map
``z(zeta)`` (unit dilation at infinity) and the canonical circulating flow,
entirely independently of the inverse pipeline: speeds come from closed
forms, arc length from a dense spectral quadrature of ``|z'|``.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.spatial.distance import cdist

from bladekit.harmonic import AnalyticSeries, boundary_values, evaluate_series
from bladekit.inverse import (
    ClosureReport,
    VelocityDistribution,
    _canonical_potential,
    _newton_sweep,
    _stagnation_angles,
    _with_correction,
)
from bladekit.positioning import (
    _MAX_CELLS,
    LIFT_RTOL,
    _distance_sums,
    _lift_terms,
    lift_score,
)
from bladekit.spline import horner

_N_DENSE = 16384


def arc_length_table(c) -> np.ndarray:
    """Cumulative arc length of a contour at each node and back at the start:
    n+1 entries, from 0 to the perimeter."""
    return np.concatenate([[0.0], np.cumsum(c._edge_lengths())])


def rise_interval(d: VelocityDistribution) -> tuple:
    """(s_a, s_b) with V > 0 on (s_a, s_b), unwrapped so s_b > s_a."""
    x, _ = d.potential_table
    a, b = d.rise_knots
    return float(x[a]), float(x[b])


@dataclass(frozen=True)
class ForwardFlow:
    """Flow past the image of the unit circle under an explicit series map."""

    zmap: AnalyticSeries
    v_inf: float = 1.0
    beta: float = 0.0          # internal flow angle (incidence = -beta)
    circulation: float = 0.0

    @cached_property
    def zprime(self) -> AnalyticSeries:
        return self.zmap.derivative()

    @cached_property
    def stagnation(self) -> tuple[float, float]:
        return _stagnation_angles(self.v_inf, self.beta, self.circulation)

    @cached_property
    def _arc_modes(self):
        """Truncated Fourier modes of |z'| on the circle."""
        g = 2 * np.pi * np.arange(_N_DENSE) / _N_DENSE
        vals = np.abs(evaluate_series(self.zprime, np.exp(1j * g)))
        assert vals.min() > 1e-6, "map derivative vanishes near the circle"
        spec = np.fft.fft(vals) / _N_DENSE
        k = np.fft.fftfreq(_N_DENSE, 1.0 / _N_DENSE).astype(int)
        keep = np.abs(spec) > 1e-17 * np.abs(spec[0])
        keep[0] = True
        return k[keep], spec[keep]

    def arc_length(self, gamma) -> np.ndarray:
        """s(gamma) = integral of |z'| from angle 0, unwrapped."""
        gamma = np.asarray(gamma, dtype=float)
        k, c = self._arc_modes
        mean = c[k == 0][0].real
        out = mean * gamma
        for kk, ck in zip(k, c):
            if kk != 0:
                out = out + (ck * (np.exp(1j * kk * gamma) - 1.0) / (1j * kk)).real
        return out

    @property
    def total_length(self) -> float:
        k, c = self._arc_modes
        return float(2 * np.pi * c[k == 0][0].real)

    def boundary_point(self, gamma) -> np.ndarray:
        return evaluate_series(self.zmap, np.exp(1j * np.asarray(gamma, dtype=float)))

    def speed(self, gamma) -> np.ndarray:
        """Signed tangential speed at boundary angle gamma."""
        gamma = np.asarray(gamma, dtype=float)
        dphi = 2.0 * self.v_inf * np.sin(gamma - self.beta) + self.circulation / (2 * np.pi)
        return dphi / np.abs(evaluate_series(self.zprime, np.exp(1j * gamma)))

    def chi_exact(self, zeta) -> np.ndarray:
        return -np.log(evaluate_series(self.zprime, zeta))

    def contour_nodes(self, n: int = 4096) -> np.ndarray:
        g = 2 * np.pi * np.arange(n) / n
        return self.boundary_point(g)

    def chord(self) -> float:
        z = self.contour_nodes(1024)
        return float(np.max(z.real) - np.min(z.real))

    def distribution(self, m1: int = 2048, m2: int = 2048) -> VelocityDistribution:
        """Sample (s, V) on per-arc uniform angle grids, zeros exactly at branches."""
        th_lo, th_hi = self.stagnation
        rising = th_lo + (th_hi - th_lo) * np.arange(m1) / m1
        falling = th_hi + (2 * np.pi - (th_hi - th_lo)) * np.arange(m2) / m2
        gamma = np.concatenate([rising, falling])
        s = self.arc_length(gamma) - self.arc_length(np.array([th_lo]))[0]
        v = self.speed(gamma)
        v[0] = 0.0
        v[m1] = 0.0
        return VelocityDistribution(
            samples=np.column_stack([s, v]),
            total_length=self.total_length,
            branch_indices=(0, m1),
            v_inf=self.v_inf,
            incidence=-self.beta,
        )

    def branch_anchor(self) -> complex:
        """Oracle position of the rising-arc stagnation point (the anchor)."""
        th_lo, _ = self.stagnation
        return complex(self.boundary_point(np.array([th_lo]))[0])


def cylinder(v_inf: float = 1.0, beta: float = 0.0, circulation: float = 0.0) -> ForwardFlow:
    return ForwardFlow(AnalyticSeries(np.array([1.0 + 0.0j]), low=1),
                       v_inf, beta, circulation)


def smooth_map(coeffs_neg, center: complex = 0.0) -> AnalyticSeries:
    """Map zeta + center + sum_k c_k zeta^-k (unit dilation)."""
    c = np.concatenate([np.asarray(coeffs_neg, dtype=complex)[::-1],
                        [complex(center)], [1.0 + 0.0j]])
    return AnalyticSeries(c, low=-len(coeffs_neg))


def joukowski_flow(center: complex = -0.08 + 0.05j, crit: float = 1.0,
                   margin: float = 1.2, v_inf: float = 1.0,
                   beta: float = 0.0, kutta: bool = True,
                   terms: int = 90) -> ForwardFlow:
    """Rounded-trailing-edge Joukowski airfoil with near-Kutta circulation.

    The generating circle encloses both critical points of the classical
    transform by ``margin``, so the map derivative is zero-free on and
    outside the unit circle and the boundary speed stays bounded.  The
    margin also sets the decay rate of the Zhukovsky harmonics; 1.2 keeps
    the tail below 1e-9 within the 127 modes of a 256-node solve.
    """
    R = margin * max(abs(crit - center), abs(-crit - center))
    # z = (center + R*zeta + crit^2/(center + R*zeta)) / R, expanded at infinity
    ratio = -center / R
    tail = (crit**2 / R**2) * ratio ** np.arange(terms)
    coeffs = np.concatenate([tail[::-1], [center / R], [1.0 + 0.0j]])
    zmap = AnalyticSeries(coeffs, low=-terms)
    circulation = 0.0
    if kutta:
        theta_te = float(np.angle((crit - center) / R))
        circulation = -4 * np.pi * v_inf * np.sin(theta_te - beta)
    return ForwardFlow(zmap, v_inf, beta, circulation)


def perturbed_cylinder(eps: float = 0.05, m: int = 200,
                       v_inf: float = 1.0) -> VelocityDistribution:
    """Cylinder data with ``eps*cos(s)`` added away from the branch samples.

    The stagnation marks stay at s = 0 and s = pi where the speed samples
    remain exactly zero, so the perturbed data is genuinely non-solvable
    (a pure phase-shifted sinusoid would be solvable again) and the
    quasisolution has something to correct.  ``m`` must be small enough
    that the sign structure survives next to the pinned zeros.
    """
    s = 2 * np.pi * np.arange(m) / m
    v = 2 * np.sin(s) + eps * np.cos(s)
    v[0] = 0.0
    v[m // 2] = 0.0
    return VelocityDistribution(
        samples=np.column_stack([s, v]),
        total_length=2 * np.pi,
        branch_indices=(0, m // 2),
        v_inf=v_inf,
        incidence=0.0,
    )


def step_distribution(**speeds) -> VelocityDistribution:
    """V = +1 on (0, pi) and -1 on (pi, 2*pi) at 64 samples, with the
    samples named ``v<i>`` set to the given speeds."""
    s = 2 * np.pi * np.arange(64) / 64
    v = np.where(np.arange(64) < 32, 1.0, -1.0)
    v[0] = v[32] = 0.0
    for key, value in speeds.items():
        v[int(key[1:])] = value
    return VelocityDistribution(np.column_stack([s, v]), 2 * np.pi, (0, 32), 1.0)


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between the node sets of two contours."""
    d = cdist(a.points, b.points)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def grid_lift_optimum(c1, c2, p, box) -> tuple[float, float, float]:
    """Exhaustive lift-score search on a grid over the box: ``(score, x, y)``.

    The grid has step ``diagonal / 400`` on both axes and includes the box
    corners; the score is ``w @ |d + s|`` as in ``positioning.lift_score``.
    Ties within 1e-15 resolve to the smallest-norm grid point.
    """
    x0, y0, x1, y1 = map(float, box)
    step = np.hypot(x1 - x0, y1 - y0) / 400.0
    gx = np.linspace(x0, x1, int(np.ceil((x1 - x0) / step)) + 1)
    gy = np.linspace(y0, y1, int(np.ceil((y1 - y0) / step)) + 1)
    d = c1.points - c2.points
    w = p.v1 + p.v2
    w[p.k:] *= -1.0
    best = None
    for x in gx:
        dist = np.sqrt((d[:, 0][:, None] + x) ** 2 + (d[:, 1][:, None] + gy[None, :]) ** 2)
        vals = w @ dist
        j = int(np.argmax(vals))
        cand = (float(vals[j]), float(x), float(gy[j]))
        if best is None or cand[0] > best[0] + 1e-15:
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-15 and np.hypot(cand[1], cand[2]) < np.hypot(best[1], best[2]):
            best = cand
    return best


def lift_by_centre_tangent(c1, c2, p, box) -> tuple[float, float, float]:
    """Lift maximum over the box by DC branch and bound: ``(dx, dy, score)``.

    A cell's bound is the lesser of ``max over corners of (P - tangent plane
    of N at the centre)`` and ``F(centre) + sum|w_i| * half-diagonal``;
    tolerance, tie rule, midpoint splits and the level cap are those of
    `positioning.maximize_lift`.  This was that function before it bounded
    cells by the tangent planes of N at all five evaluated points.
    """
    d, w = _lift_terms(c1, c2, p)
    x0, y0, x1, y1 = map(float, box)
    pn = np.column_stack([np.maximum(w, 0.0), np.maximum(-w, 0.0)])
    lip = float(np.abs(w).sum())
    reach = np.hypot(d[:, :1] + [x0, x1, x0, x1], d[:, 1:] + [y0, y0, y1, y1]).max()
    eps = 0.5 * LIFT_RTOL * lip * reach
    pts = [np.array([[min(max(0.0, x0), x1), min(max(0.0, y0), y1)]])]
    vals = [_distance_sums(d, pn, pts[0])[0] @ (1.0, -1.0)]
    best = float(vals[0][0])
    cells = np.array([[x0, x1, y0, y1]])
    while len(cells):
        cx0, cx1, cy0, cy1 = cells.T
        mx, my = 0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1)
        xs = np.column_stack([mx, cx0, cx1, cx0, cx1])
        ys = np.column_stack([my, cy0, cy0, cy1, cy1])
        pts.append(np.column_stack([xs.ravel(), ys.ravel()]))
        pnv, gx, gy = (a.reshape(len(cells), 5, 2) for a in _distance_sums(d, pn, pts[-1]))
        vals.append((pnv @ (1.0, -1.0)).ravel())
        best = max(best, float(vals[-1].max()))
        tangent = pnv[:, :1, 1] + gx[:, :1, 1] * (xs - mx[:, None]) + gy[:, :1, 1] * (ys - my[:, None])
        bound = np.minimum((pnv[..., 0] - tangent).max(axis=1),
                           vals[-1][::5] + 0.5 * lip * np.hypot(cx1 - cx0, cy1 - cy0))
        alive = (bound > best + eps) & (cx0 < mx) & (mx < cx1) & (cy0 < my) & (my < cy1)
        alive[np.argsort(np.where(alive, -bound, np.inf), kind="stable")[_MAX_CELLS:]] = False
        ends = np.column_stack([cx0, mx, cx1, cy0, my, cy1])[alive]
        cells = np.concatenate([ends[:, [i, i + 1, j, j + 1]] for j in (3, 4) for i in (0, 1)])
    pts, vals = np.concatenate(pts), np.concatenate(vals)
    norms = np.where(vals >= best - eps, np.hypot(*pts.T), np.inf)
    dx, dy = (float(v) for v in pts[np.argmin(norms)])
    return dx, dy, lift_score(c1, c2, p, (dx, dy))


def _strip_cross_products(c1, c2, spacing, shift) -> np.ndarray:
    """Per triangle of the strip, the 3D cross product of its two edges from its
    first vertex: c1 moved by the shift in h = 0, c2 in h = spacing, triangles
    (c1 i, c1 i+1, c2 i) and (c2 i, c2 i+1, c1 i+1)."""
    n = len(c1)
    lo = np.column_stack([c1.points + np.asarray(shift, dtype=float), np.zeros(n)])
    up = np.column_stack([c2.points, np.full(n, float(spacing))])
    nxt = np.roll(np.arange(n), -1)
    a, b, c = (np.concatenate(pair) for pair in ((lo, up), (lo[nxt], up[nxt]), (up, lo[nxt])))
    return np.cross(b - a, c - a)


def strip_area_by_cross_products(c1, c2, spacing, shift) -> float:
    """Strip area between c1 moved by the shift and c2, from 3D cross products:
    the formula `positioning.area_objective` had before its affine form."""
    return 0.5 * float(np.linalg.norm(_strip_cross_products(c1, c2, spacing, shift), axis=1).sum())


def strip_area_lower_bound(c1, c2, spacing, shift) -> float:
    """A lower bound on the strip area over all shifts, from the unit triangle
    normals at the given shift.

    Each cross product is ``X_i(s) = X_i(0) + M_i s``, so for unit vectors u_i
    with ``sum M_i^T u_i = 0``, ``sum |X_i(s)| >= sum u_i . X_i(0)`` for every s.
    Only the h part of X_i moves with s: it is projected onto that constraint
    and clipped into [-1, 1], and the plane part rescaled to keep u_i unit.
    """
    x0 = _strip_cross_products(c1, c2, spacing, (0.0, 0.0))
    m = np.stack([_strip_cross_products(c1, c2, spacing, e) - x0 for e in np.eye(2)], axis=-1)
    x = _strip_cross_products(c1, c2, spacing, shift)
    u = x / np.linalg.norm(x, axis=1)[:, None]
    mz = m[:, 2, :]
    z = u[:, 2] - mz @ (np.linalg.pinv(mz.T @ mz) @ (mz.T @ u[:, 2]))
    z /= max(1.0, np.abs(z).max())
    plane = u[:, :2] / np.linalg.norm(u[:, :2], axis=1)[:, None]
    u = np.column_stack([plane * np.sqrt(1.0 - z * z)[:, None], z])
    return 0.5 * float(np.einsum("ij,ij->", u, x0))


def area_shift_by_nelder_mead(c1, c2, spacing) -> tuple[float, float, float]:
    """Direct search on the strip area: ``(dx, dy, area)``.

    Nelder-Mead from the least-squares shift; if it does not converge, the
    best point of a 41x41 grid around the seed and a second Nelder-Mead.  This
    was `positioning.minimize_area_shift` before its certified Newton.  Its
    stops are relative: 1e-10 of the contours' scale (their largest distance
    from their centroids) in the shift, and 1e-14 of the area at the seed in
    the area, so that a problem and its scaled copy stop alike.
    """
    # imported on use: the benchmark imports this module for other oracles
    from scipy.optimize import minimize

    seed = np.mean(c2.points - c1.points, axis=0)

    def f(s):
        return strip_area_by_cross_products(c1, c2, spacing, s)

    scale = max(float(np.max(np.hypot(*(c.points - c.points.mean(axis=0)).T))) for c in (c1, c2))
    options = {"xatol": 1e-10 * scale, "fatol": 1e-14 * f(seed), "maxiter": 2000}
    res = minimize(f, seed, method="Nelder-Mead", options=options)
    if not res.success:
        span = max(arc_length_table(c1)[-1], arc_length_table(c2)[-1]) / 8.0
        gx = np.linspace(seed[0] - span, seed[0] + span, 41)
        gy = np.linspace(seed[1] - span, seed[1] + span, 41)
        vals = np.array([[f((x, y)) for y in gy] for x in gx])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        res = minimize(f, np.array([gx[i], gy[j]]), method="Nelder-Mead", options=options)
        if not res.success:
            raise AssertionError("area minimization did not converge")
    return float(res.x[0]), float(res.x[1]), float(res.fun)


def map_term_bounds(series: AnalyticSeries) -> np.ndarray:
    """|coefficients| of z - slope*zeta (row 0) and of z' (row 1) of a map
    series at w**j, w = 1/zeta: c_{-j} at w**j, and the slope at w**0 with
    j*c_{-j} at w**(j+1).  Summed with |w|**j they bound z and z'."""
    c = np.abs([series.coefficient(-j) for j in range(max(-series.low, 0) + 1)])
    rows = np.zeros((2, len(c) + 1))
    rows[0, :-1] = c
    rows[1, 0] = abs(series.coefficient(1))
    rows[1, 2:] = np.arange(1, len(c)) * c[1:]
    return rows


def fd_residuals_by_velocity(field, grid, step: float = 1e-4) -> tuple[float, list]:
    """``(fd_div, fd_curl)`` of a field by central differences of ``field.velocity``.

    One ``velocity`` call at the grid nodes shifted by +-step in x and y,
    stacked as the FD pass stacks them, and two at the nodes at h +- step,
    each inverting both blade maps from the cold start: the reference for
    the finite-difference pass of ``assembly.field_residuals``, which starts
    its shifted sets warm.  The sets are stacked alike because the map
    evaluation of a set depends on the set (the matrix product rounds a
    column by the array's width, and the tail bound reads the whole set).
    """
    x, y = grid.plane_nodes()
    h = grid.h_nodes()[:, None]
    d = np.array([step, -step, 1j * step, -1j * step])[:, None, None]
    u, v, w = field.velocity(x + d.real, y + d.imag, h)
    ux, vx, wx = ((a[0] - a[1]) / (2 * step) for a in (u, v, w))
    uy, vy, wy = ((a[2] - a[3]) / (2 * step) for a in (u, v, w))
    uh, vh, wh = ((p - m) / (2 * step) for p, m in zip(field.velocity(x, y, h + step),
                                                       field.velocity(x, y, h - step)))
    fd_div = float(np.max(np.abs(ux + vy + wh)))
    fd_curl = [float(np.max(np.abs(a - b))) for a, b in ((uy, vx), (uh, wx), (vh, wy))]
    return fd_div, fd_curl


def closure_conditions(chi: AnalyticSeries, n: int) -> ClosureReport:
    """The closure and far-field-speed defects of chi, measured on n circle nodes.

    The closure defect is the loop integral of ``dz = exp(-chi) dzeta``, which
    forms ``exp(-chi)`` at the nodes anew; the speed defect is Re chi at
    infinity.  The reference for `inverse._measured`, which a solve applies to
    the nodal ``z'`` that `inverse.quasisolution_correct` keeps.
    """
    zeta = np.exp(1j * (2 * np.pi * np.arange(n) / n))
    closure = 2j * np.pi * np.mean(np.exp(-boundary_values(chi, n)) * zeta)
    return ClosureReport(complex(closure), float(chi.coefficient(0).real))


def quasisolution_by_fd_newton(chi, n: int, tol: float = 1e-12, maxiter: int = 50):
    """Correction parameters ``(lam0, lam1, lam2)`` by Newton on all three defects.

    Treats the defects as an unstructured 3x3 system: central-difference
    Jacobian (step 1e-7) and a halving line search, from zero, with the
    defects measured on n circle nodes.  The reference for
    `inverse.quasisolution_correct`, which uses the defects' structure.
    """

    def defects(lams):
        rep = closure_conditions(_with_correction(chi, lams), n)
        return np.array([rep.closure_defect.real, rep.closure_defect.imag, rep.vinf_defect])

    lams = np.zeros(3)
    f = defects(lams)
    scale = max(1.0, float(np.max(np.abs(chi.coefficients))))
    for _ in range(maxiter):
        if np.max(np.abs(f)) < tol * scale:
            return lams
        jac = np.empty((3, 3))
        for j, e in enumerate(1e-7 * np.eye(3)):
            jac[:, j] = (defects(lams + e) - defects(lams - e)) / 2e-7
        step = np.linalg.solve(jac, -f)
        t = 1.0
        while np.max(np.abs(defects(lams + t * step))) >= np.max(np.abs(f)):
            t *= 0.5
            assert t > 1e-4, "damped step failed to reduce the defects"
        lams = lams + t * step
        f = defects(lams)
    raise AssertionError(f"no convergence in {maxiter} iterations; defects {f}")


def arc_positions(arc, targets) -> np.ndarray:
    """Positions on one `inverse._PotentialArc` at which its potential takes
    the targets, by its ``bracket`` and `inverse._newton_sweep` on that arc
    alone; targets at or past an end map to that end.  The reference for the
    one sweep over both arcs in `inverse.CircleCorrespondence.s_of_gamma`."""
    s, state = arc.bracket(targets)
    return _newton_sweep(s, *state)


def _bisect_monotone(f, lo: float, hi: float, targets: np.ndarray, iters: int = 80) -> np.ndarray:
    """Solve f(x) = target on [lo, hi] for monotone f, vectorized bisection."""
    targets = np.asarray(targets, dtype=float)
    increasing = f(hi) >= f(lo)
    a = np.full_like(targets, lo)
    b = np.full_like(targets, hi)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = f(mid)
        go_right = fm < targets if increasing else fm > targets
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    return 0.5 * (a + b)


def s_of_gamma_by_bisection(corr, gamma) -> np.ndarray:
    """Arc position at canonical angle gamma by two 80-step bisections.

    Each step evaluates the potential through `potential_at`, which reads
    the table's pieces at any arc position.  The reference for
    `inverse.CircleCorrespondence.s_of_gamma`, which solves one quartic
    piece per target.
    """
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    L = corr.dist.total_length
    s_a, s_b = rise_interval(corr.dist)
    th_lo, th_hi = corr.stagnation_angles
    gm = np.mod(gamma - th_lo, 2 * np.pi)
    rising = gm <= (th_hi - th_lo) + 1e-15
    out = np.empty_like(gm)
    phi = partial(potential_at, corr.dist)
    phic = corr.canonical_potential
    (d_rise, dc_rise), (d_fall, dc_fall) = corr.increments
    if np.any(rising):
        tau = (phic(th_lo + gm[rising]) - phic(th_lo)) / dc_rise
        targ = phi(s_a) + tau * d_rise
        out[rising] = _bisect_monotone(phi, s_a, s_b, targ)
    if np.any(~rising):
        tau = (phic(th_lo + gm[~rising]) - phic(th_hi)) / dc_fall
        targ = phi(s_b) + tau * d_fall
        out[~rising] = _bisect_monotone(phi, s_b, s_a + L, targ)
    return np.mod(out, L)


def pieces_at(x, c, s) -> tuple:
    """The quartic pieces c on the knots x[0] .. x[-1], one period, at the arc
    positions s wrapped into it: value, slope, and the whole periods each s
    was moved by."""
    s = np.asarray(s, dtype=float)
    period = x[-1] - x[0]
    turns = np.floor((s - x[0]) / period)
    s = s - turns * period
    i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
    return (*horner(c[:, i], s - x[i]), turns)


def _first_period(d: VelocityDistribution) -> tuple:
    x, c = d.potential_table
    m = len(d.speeds)
    return x[:m + 1], c[:, :m]


def potential_at(d: VelocityDistribution, s) -> np.ndarray:
    """A distribution's speed potential at the arc positions s, unwrapped over
    periods; this was `VelocityDistribution.potential_at`, which the library
    read only at knots."""
    p, _, turns = pieces_at(*_first_period(d), s)
    return p + turns * d.circulation_smooth


def speed_at(d: VelocityDistribution, s) -> np.ndarray:
    """A distribution's periodic speed spline at the arc positions s, the
    potential's slope; this was `VelocityDistribution.speed_at`, which the
    library itself never called."""
    return pieces_at(*_first_period(d), s)[1]


def speed_spline_by_scipy(d: VelocityDistribution):
    """scipy's periodic ``CubicSpline`` through a distribution's samples on the
    knots s_0 .. s_0 + L, and its antiderivative from s_0.

    The reference for the numpy spline whose running integral is
    `VelocityDistribution.potential_table` (`bladekit.spline.periodic_potential`),
    which replaced it in the library.
    """
    # imported on use: the benchmark imports this module for other oracles
    from scipy.interpolate import CubicSpline

    s = np.append(d.arc_positions, d.arc_positions[0] + d.total_length)
    v = np.append(d.speeds, d.speeds[0])
    spline = CubicSpline(s, v, bc_type="periodic")
    return spline, spline.antiderivative()


def circle_sum_bound(f: AnalyticSeries, n: int) -> float:
    """Roundoff bound for comparing two sums of f on the unit circle, from its
    term count m and ``S = sum |c_k|``, with u = 2**-53:

    ``(32*(m + 1) + 5*log2(n)) * u * S``.

    - `harmonic.value_at_angle` forms ``exp(i*fl(k*phi))``: the product is
      off by at most ``2*pi*m*u``, twice that when phi is itself a rounded
      ``2*pi*j/n``, and the exponential by ``2u``; its complex dot product
      of m terms adds ``sqrt(2)*(m + 1)*u*S`` (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., 2002, section 3.6).  So
      it is within ``(4*pi + sqrt(2))*(m + 1)*u*S <= 14*(m + 1)*u*S``, or
      ``8*(m + 1)*u*S`` at an exact angle.
    - `boundary_values`' radix-2 FFT adds at most ``5u`` times the sum of
      the ``|c_k|`` feeding a butterfly per stage, ``5*log2(n)*u*S`` over
      its log2(n) stages; the scaling by n is exact.
    - `evaluate_series` at a rounded ``zeta = exp(i*phi)`` forms ``zeta**k``
      by k products, each off by under ``4u``, and its block and Horner
      sums add ``sqrt(2)*(m + 1)*u*S``: within ``6*(m + 1)*u*S``.
    - `inverse.reconstruction_map` rotates each coefficient (``3u``
      each), adds a pin of modulus at most S, and `trimmed(1e-15)` drops
      coefficients each below ``9u`` times the largest.  With the pin's
      ``8*(m + 1)*u*S`` and the kernel's evaluation of a series whose
      moduli sum to at most 2S, the map at zeta_B is within
      ``29*(m + 1)*u*S`` of z_start, S counting ``|z_start|``.

    The largest of these, rounded up, is the bound.
    """
    m = len(f.coefficients)
    return (32 * (m + 1) + 5 * math.log2(n)) * 2.0 ** -53 * float(np.sum(np.abs(f.coefficients)))


def evaluate_series_by_horner(f: AnalyticSeries, z):
    """A series at z by one Horner step per coefficient, in z for the powers
    >= 0 and in 1/z for the negative powers; no domain guard."""
    z = np.asarray(z, dtype=complex)
    c = f.coefficients
    acc = np.zeros_like(z)
    if f.high >= 0:
        start = max(f.low, 0)
        val = np.zeros_like(z)
        for ck in c[start - f.low:][::-1]:
            val = val * z + ck
        if start > 0:
            val = val * z ** start
        acc = acc + val
    if f.low < 0:
        stop = min(f.high, -1)
        w = 1.0 / z
        val = np.zeros_like(z)
        for ck in c[: stop - f.low + 1]:          # deepest power first
            val = val * w + ck
        acc = acc + val * w ** (-stop)
    return acc if acc.shape else complex(acc)


def polynomial_by_flat_blocks(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k c[..., k] * x**k`` as `harmonic._polynomial` summed it before it
    took stacked point sets: its own table of B = ceil(sqrt(m)) powers, one
    product ``C @ X``, and a Horner in x**B whose every step is one flat
    product over all rows.  The bit-level reference of the stacked kernel."""
    rows = c.reshape(-1, c.shape[-1])
    r, m = rows.shape
    b = math.isqrt(m - 1) + 1
    nb = -(-m // b)
    blocks = np.zeros((r, nb * b), dtype=complex)
    blocks[:, :m] = rows
    table = np.empty((b, len(x)), dtype=complex)
    table[0] = 1.0
    for k in range(1, b):
        np.multiply(table[k - 1], x, out=table[k])
    y = (blocks.reshape(r * nb, b) @ table).reshape(r, nb, len(x))
    y = y.transpose(1, 0, 2).reshape(nb, r * len(x))
    giant = np.tile(table[b - 1] * x, r)
    val = y[nb - 1]
    for j in range(nb - 2, -1, -1):
        val = val * giant + y[j]
    return val.reshape(c.shape[:-1] + (len(x),))


def evaluate_series_by_flat_blocks(f: AnalyticSeries, z):
    """A series at z as `harmonic.evaluate_series_unchecked` summed it with
    `polynomial_by_flat_blocks`, one series at a time."""
    z = np.asarray(z, dtype=complex)
    c = f.coefficients
    x = z.ravel()
    acc = np.zeros_like(x)
    if f.high >= 0:
        start = max(f.low, 0)
        val = polynomial_by_flat_blocks(c[start - f.low:], x)
        if start > 0:
            val = val * x ** start
        acc = acc + val
    if f.low < 0:
        stop = min(f.high, -1)
        w = 1.0 / x
        acc = acc + polynomial_by_flat_blocks(c[stop - f.low:: -1], w) * w ** (-stop)
    return acc.reshape(z.shape)


def map_values_by_flat_blocks(smap, zeta):
    """``(z, z')`` of a `planefield.SeriesMap` at zeta, truncated as `SeriesMap.values`
    truncates, summed by `polynomial_by_flat_blocks`."""
    x = np.asarray(zeta, dtype=complex).ravel()
    w = 1.0 / x
    rows = smap._rows[:, :smap.terms(float(np.max(np.abs(w), initial=0.0)))]
    z, dz = polynomial_by_flat_blocks(rows, w)
    return z + smap.series.coefficient(1) * x, dz


def assert_same_blade(got, alone):
    """Two `inverse.PlanarSolution` objects of one blade agree bit for bit: gauge,
    chi, nodal z', closure report and contour."""
    assert got.gauge == alone.gauge
    assert got.chi.low == alone.chi.low
    assert np.array_equal(got.chi.coefficients, alone.chi.coefficients)
    assert np.array_equal(got.zprime, alone.zprime)
    assert got.closure == alone.closure
    assert np.array_equal(got.contour.points, alone.contour.points)
