"""Planar inverse problem per blade with quasisolution correction.

Pipeline: a prescribed tangential speed V(s) along an unknown closed blade
contour is transferred to the unit circle of a canonical flow by potential
matching, the regularized Zhukovsky function

    chi(zeta) = ln(dw/dz) - ln(dw_c/dzeta) = -ln(dz/dzeta)

is recovered from its boundary real part by the Schwarz operator, the three
solvability defects (contour closure, two conditions; speed at infinity,
one) are measured spectrally, a minimal low-harmonic boundary correction
``lam0 + lam1*cos(gamma) + lam2*sin(gamma)`` restores them, and the contour
follows from ``dz = exp(-chi) dzeta`` integrated along the circle.

The canonical flow past the unit circle with circulation is

    w_c(zeta) = -A*(exp(-i*b)*zeta + exp(i*b)/zeta) + (G/(2*pi*i))*ln(zeta)

with A the prescribed far-field speed, b the internal flow angle (minus the
incidence, so that rotating the incidence by ``a`` rotates the reconstructed
contour by ``-a``) and G the circulation.  Stagnation angles are kept in the
middle of boundary-grid intervals by a gauge rotation of the canonical
frame, so nodal data never samples the vanishing speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    BladekitError,
    InconsistentDistribution,
    NotClosed,
    QuasisolutionDiverged,
    SingularityMismatch,
    StagnationOffCircle,
)
from .geometry import Contour
from .harmonic import (
    AnalyticSeries,
    BoundarySamples,
    analytic_from_real_boundary,
    boundary_values,
    cumulative_boundary_integral,
    differentiate_boundary,
    integrate_series,
)
from .planefield import SeriesMap

DEFECT_TOL = 1e-10
_NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class VelocityDistribution:
    """Signed tangential speed samples along a blade contour.

    ``samples`` is an (m, 2) array of (arc position, speed) with arc
    positions strictly increasing in [0, total_length).  The speed vanishes
    exactly at the two branch (stagnation) samples and changes sign nowhere
    else; the sign is constant on each of the two arcs between them.
    """

    samples: np.ndarray
    total_length: float
    branch_indices: tuple[int, int]
    v_inf: float
    incidence: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 8:
            raise InconsistentDistribution("need an (m, 2) sample array, m >= 8")
        if not np.all(np.isfinite(samples)):
            raise InconsistentDistribution("samples must be finite")
        s = samples[:, 0]
        if not (np.all(np.diff(s) > 0) and s[0] >= 0 and s[-1] < self.total_length):
            raise InconsistentDistribution(
                "arc positions must increase strictly inside [0, L)"
            )
        if not self.v_inf > 0:
            raise InconsistentDistribution("far-field speed must be positive")
        ia, ib = sorted(int(i) for i in self.branch_indices)
        if ia == ib:
            raise InconsistentDistribution("need two distinct branch samples")
        v = samples[:, 1]
        if v[ia] != 0.0 or v[ib] != 0.0:
            raise InconsistentDistribution("speed must vanish at branch samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "branch_indices", (ia, ib))
        m = len(v)
        arc1 = np.arange(ia + 1, ib)            # strictly between the branches
        arc2 = np.concatenate([np.arange(ib + 1, m), np.arange(0, ia)])
        for arc in (arc1, arc2):
            if len(arc) == 0:
                raise InconsistentDistribution("branch points are adjacent samples")
            if np.any(v[arc] == 0.0):
                raise InconsistentDistribution("speed vanishes away from branches")
            if not (np.all(v[arc] > 0) or np.all(v[arc] < 0)):
                raise InconsistentDistribution("speed changes sign inside an arc")
        if np.sign(v[arc1[0]]) == np.sign(v[arc2[0]]):
            raise InconsistentDistribution("both arcs carry the same speed sign")

    # -- derived structure ---------------------------------------------------

    @property
    def arc_positions(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def speeds(self) -> np.ndarray:
        return self.samples[:, 1]

    @cached_property
    def _rising_branch(self) -> int:
        """Index (into branch_indices order ia<ib) of the branch starting V>0."""
        ia, ib = self.branch_indices
        return 0 if self.speeds[ia + 1] > 0 else 1

    @property
    def rise_interval(self) -> tuple[float, float]:
        """(s_a, s_b) with V > 0 on (s_a, s_b), unwrapped so s_b > s_a."""
        ia, ib = self.branch_indices
        s = self.arc_positions
        if self._rising_branch == 0:
            return float(s[ia]), float(s[ib])
        return float(s[ib]), float(s[ia] + self.total_length)

    @cached_property
    def _speed_spline(self) -> CubicSpline:
        s = np.concatenate([self.arc_positions, [self.total_length]])
        v = np.concatenate([self.speeds, [self.speeds[0]]])
        if v[0] != v[-1]:
            raise InconsistentDistribution("periodic wrap mismatch")
        return CubicSpline(s, v, bc_type="periodic")

    @cached_property
    def _potential_spline(self):
        return self._speed_spline.antiderivative()

    def speed_at(self, s) -> np.ndarray:
        return self._speed_spline(np.mod(s, self.total_length))

    def potential_at(self, s) -> np.ndarray:
        """Smooth running integral of the speed, unwrapped over periods."""
        s = np.asarray(s, dtype=float)
        periods = np.floor(s / self.total_length)
        rem = s - periods * self.total_length
        return self._potential_spline(rem) + periods * self.circulation_smooth

    @cached_property
    def circulation_smooth(self) -> float:
        return float(self._potential_spline(self.total_length))

    def branch_distance(self, s) -> np.ndarray:
        """Arc distance along the contour to the nearest branch point."""
        s = np.mod(np.asarray(s, dtype=float), self.total_length)
        L = self.total_length
        out = np.full_like(s, np.inf)
        for idx in self.branch_indices:
            d = np.abs(s - self.arc_positions[idx])
            out = np.minimum(out, np.minimum(d, L - d))
        return out

    def modified(self, w1: float) -> "VelocityDistribution":
        """Distribution with the transversal term ``w1 * |s|`` added.

        ``|s|`` is the arc distance to the nearest branch point, so the
        branch samples stay exact zeros; the sign structure must survive.
        """
        if w1 == 0.0:
            return self
        v = self.speeds + w1 * self.branch_distance(self.arc_positions)
        samples = np.column_stack([self.arc_positions, v])
        samples[list(self.branch_indices), 1] = 0.0
        try:
            return replace(self, samples=samples)
        except InconsistentDistribution as exc:
            raise InconsistentDistribution(
                f"transversal term w1={w1} destroys the branch structure"
            ) from exc

    # -- interchange ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "samples": [[float(s), float(v)] for s, v in self.samples],
            "total_length": float(self.total_length),
            "branch_indices": [int(i) for i in self.branch_indices],
            "v_inf": float(self.v_inf),
            "incidence": float(self.incidence),
        }

    @staticmethod
    def from_json(obj: dict) -> "VelocityDistribution":
        return VelocityDistribution(
            samples=np.asarray(obj["samples"], dtype=float),
            total_length=float(obj["total_length"]),
            branch_indices=tuple(obj["branch_indices"]),
            v_inf=float(obj["v_inf"]),
            incidence=float(obj.get("incidence", 0.0)),
        )


def potential_and_circulation(d: VelocityDistribution) -> tuple[np.ndarray, float]:
    """Trapezoid running potential at the sample grid and the circulation.

    The returned table has m+1 entries: the potential at each sample plus
    the full-turn value (the circulation) at s = L, all from the trapezoid
    rule on the sample grid including the wrap segment.
    """
    s = np.concatenate([d.arc_positions, [d.total_length]])
    v = np.concatenate([d.speeds, [d.speeds[0]]])
    increments = 0.5 * np.diff(s) * (v[:-1] + v[1:])
    table = np.concatenate([[0.0], np.cumsum(increments)])
    # monotone per arc: increments share the arc's speed sign
    ia, ib = d.branch_indices
    for lo, hi, idx in ((ia, ib, ia + 1), (ib, len(d.speeds), ib + 1)):
        seg = increments[lo:hi]
        sign = np.sign(d.speeds[idx]) if idx < len(d.speeds) else np.sign(d.speeds[0])
        if np.any(sign * seg < 0):
            raise InconsistentDistribution("potential not monotone between branches")
    return table, float(table[-1])


# -- canonical flow ----------------------------------------------------------

def _canonical_potential(gamma, A, beta, G):
    return -2.0 * A * np.cos(gamma - beta) + G * gamma / (2 * np.pi)


def _canonical_speed(gamma, A, beta, G):
    return 2.0 * A * np.sin(gamma - beta) + G / (2 * np.pi)


def _stagnation_angles(A, beta, G):
    q = -G / (4 * np.pi * A)
    if abs(q) >= 1.0:
        raise StagnationOffCircle(
            f"|circulation| = {abs(G):.6g} >= 4*pi*v_inf = {4 * np.pi * A:.6g}"
        )
    lo = beta + np.arcsin(q)
    hi = beta + np.pi - np.arcsin(q)
    lo_mod = lo % (2 * np.pi)
    return lo_mod, lo_mod + (hi - lo)


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


@dataclass(frozen=True)
class CircleCorrespondence:
    """Boundary correspondence between arc length and canonical circle angle.

    Potential increments are matched arc by arc in normalized form, so the
    map is a continuous bijection even for data whose potential range does
    not agree with the canonical one (the quasisolution absorbs that
    mismatch later through the constant boundary correction).
    """

    dist: VelocityDistribution
    circulation: float
    canonical_speed: float
    flow_angle: float
    stagnation_angles: tuple[float, float]
    delta_plus: float
    delta_minus: float
    deltac_plus: float
    deltac_minus: float

    @property
    def v_inf(self) -> float:
        return self.dist.v_inf

    def canonical_potential(self, gamma):
        return _canonical_potential(gamma, self.canonical_speed, self.flow_angle,
                                    self.circulation)

    def gamma_of_s(self, s) -> np.ndarray:
        """Canonical angle of the contour point at arc position s, mod 2*pi."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        L = self.dist.total_length
        s_a, s_b = self.dist.rise_interval
        th_lo, th_hi = self.stagnation_angles
        sm = np.mod(s - s_a, L)
        rising = sm <= (s_b - s_a) + 1e-15 * L
        out = np.empty_like(sm)
        phi = self.dist.potential_at
        phi_a = phi(s_a)
        phi_b = phi(s_b)
        if np.any(rising):
            tau = (phi(s_a + sm[rising]) - phi_a) / self.delta_plus
            targ = self.canonical_potential(th_lo) + tau * self.deltac_plus
            out[rising] = _bisect_monotone(self.canonical_potential, th_lo, th_hi, targ)
        if np.any(~rising):
            tau = (phi(s_a + sm[~rising]) - phi_b) / self.delta_minus
            targ = self.canonical_potential(th_hi) + tau * self.deltac_minus
            out[~rising] = _bisect_monotone(self.canonical_potential, th_hi,
                                            th_lo + 2 * np.pi, targ)
        return np.mod(out, 2 * np.pi)

    def s_of_gamma(self, gamma) -> np.ndarray:
        """Arc position of the boundary point at canonical angle gamma.

        Returned unwrapped over [s_a, s_a + L) relative to the rising-arc
        start, then reduced mod L.
        """
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        L = self.dist.total_length
        s_a, s_b = self.dist.rise_interval
        th_lo, th_hi = self.stagnation_angles
        gm = np.mod(gamma - th_lo, 2 * np.pi)
        rising = gm <= (th_hi - th_lo) + 1e-15
        out = np.empty_like(gm)
        phi = self.dist.potential_at
        phic = self.canonical_potential
        if np.any(rising):
            tau = (phic(th_lo + gm[rising]) - phic(th_lo)) / self.deltac_plus
            targ = phi(s_a) + tau * self.delta_plus
            out[rising] = _bisect_monotone(phi, s_a, s_b, targ)
        if np.any(~rising):
            tau = (phic(th_lo + gm[~rising]) - phic(th_hi)) / self.deltac_minus
            targ = phi(s_b) + tau * self.delta_minus
            out[~rising] = _bisect_monotone(phi, s_b, s_a + L, targ)
        return np.mod(out, L)


def canonical_map(d: VelocityDistribution) -> CircleCorrespondence:
    """Build the arc-to-angle correspondence by normalized potential matching.

    Sub-sample inversion runs on the smooth antiderivative of the periodic
    speed interpolant, which agrees with the trapezoid table of
    `potential_and_circulation` to the interpolation order.
    """
    G = d.circulation_smooth
    A = float(d.v_inf)
    beta = -float(d.incidence)
    th_lo, th_hi = _stagnation_angles(A, beta, G)
    s_a, s_b = d.rise_interval
    dplus = float(d.potential_at(s_b) - d.potential_at(s_a))
    dminus = G - dplus
    dc_plus = float(_canonical_potential(th_hi, A, beta, G)
                    - _canonical_potential(th_lo, A, beta, G))
    dc_minus = G - dc_plus
    if not (dplus > 0 and dminus < 0 and dc_plus > 0 and dc_minus < 0):
        raise InconsistentDistribution(
            "potential range mismatch between the data and the canonical flow"
        )
    return CircleCorrespondence(d, G, A, beta, (th_lo, th_hi),
                                dplus, dminus, dc_plus, dc_minus)


# -- boundary grid gauge -------------------------------------------------------

def _node_gap(x: float, step: float) -> float:
    r = x % step
    return min(r, step - r)


def gauge_angle(corr: CircleCorrespondence, n: int) -> float:
    """Rotation of the canonical frame keeping stagnation angles off the grid.

    Depends only on the stagnation angles modulo the grid step and on the
    rising-arc length, so rotating the incidence rotates the gauge rigidly
    and the working-frame problem is unchanged.
    """
    step = 2 * np.pi / n
    th_lo, th_hi = corr.stagnation_angles
    base = th_lo - (np.floor(th_lo / step) + 0.5) * step
    best = None
    for j in range(16):
        alpha = base + j * step / 16.0
        score = min(_node_gap(th_lo - alpha, step), _node_gap(th_hi - alpha, step))
        if best is None or score > best[0] + 1e-15:
            best = (score, alpha)
    return float(best[1])


def solve_zhukovsky(d: VelocityDistribution, corr: CircleCorrespondence, n: int = 256) -> AnalyticSeries:
    """Regularized Zhukovsky function from the boundary speed data.

    The boundary datum is ``ln(V / |dw_c/dzeta|)``, evaluated through the
    correspondence as ``-ln(ds/dgamma)`` plus the per-arc normalization
    offset; the singular factors at the stagnation angles cancel exactly,
    and the gauge keeps the angles mid-interval so nodes never touch them.
    """
    if n < 8 or n & (n - 1):
        raise BladekitError("boundary grid size must be a power of two >= 8")
    for s_val in corr.dist.rise_interval:
        if abs(float(d.speed_at(s_val))) > 1e-8 * np.max(np.abs(d.speeds)):
            raise SingularityMismatch(
                "boundary speed does not vanish at a mapped stagnation angle"
            )
    L = d.total_length
    alpha = gauge_angle(corr, n)
    gamma_work = 2 * np.pi * np.arange(n) / n
    s_raw = corr.s_of_gamma(gamma_work + alpha)
    # unwrap into an increasing sequence over one period
    jumps = np.concatenate([[0.0], np.cumsum(np.diff(s_raw) < 0)])
    s_mono = s_raw + jumps * L
    p = s_mono - (L / (2 * np.pi)) * gamma_work
    sprime = L / (2 * np.pi) + differentiate_boundary(p - p.mean())
    if np.any(sprime <= 0):
        raise InconsistentDistribution("correspondence is not monotone")
    th_lo, th_hi = corr.stagnation_angles
    gm = np.mod(gamma_work + alpha - th_lo, 2 * np.pi)
    rising = gm <= (th_hi - th_lo)
    offset = np.where(rising,
                      np.log(corr.delta_plus / corr.deltac_plus),
                      np.log(corr.delta_minus / corr.deltac_minus))
    data = -np.log(sprime) + offset
    return analytic_from_real_boundary(BoundarySamples(data), orientation="exterior")


@dataclass(frozen=True)
class ClosureReport:
    """Solvability defects of a candidate Zhukovsky function."""

    closure_defect: complex
    vinf_defect: float
    corrected: bool = False
    correction_norm: float = 0.0

    @property
    def max_defect(self) -> float:
        return max(abs(self.closure_defect), abs(self.vinf_defect))

    def to_json(self) -> dict:
        return {
            "closure_defect": [self.closure_defect.real, self.closure_defect.imag],
            "vinf_defect": self.vinf_defect,
            "corrected": self.corrected,
            "correction_norm": self.correction_norm,
        }


def _eval_n(chi: AnalyticSeries) -> int:
    """Evaluation grid of the solve that produced chi (degree n/2 - 1).

    Defects are measured on the same grid the reconstruction integrates
    over, so a corrected solution closes on that grid exactly.
    """
    n = 8
    while n < 2 * (chi.degree + 1):
        n *= 2
    return n


def closure_conditions(chi: AnalyticSeries, corr: CircleCorrespondence) -> ClosureReport:
    """Measure the closure and far-field-speed defects spectrally.

    The closure defect is the loop integral of ``dz = exp(-chi) dzeta``
    (two real conditions); the speed defect is Re chi at infinity minus
    ``ln(v_inf / A)``, which vanishes when the far-field speed comes out as
    prescribed.
    """
    n = _eval_n(chi)
    gamma = 2 * np.pi * np.arange(n) / n
    zprime = np.exp(-boundary_values(chi, n))
    a1 = np.mean(zprime * np.exp(1j * gamma))
    closure = 2j * np.pi * a1
    vinf = float(chi.coefficient(0).real - np.log(corr.v_inf / corr.canonical_speed))
    return ClosureReport(complex(closure), vinf)


def _with_correction(chi: AnalyticSeries, lams: np.ndarray) -> AnalyticSeries:
    delta = AnalyticSeries(np.array([lams[1] + 1j * lams[2], lams[0] + 0j]), low=-1)
    return chi + delta


def quasisolution_correct(d: VelocityDistribution, chi: AnalyticSeries,
                          corr: CircleCorrespondence, tol: float = _NEWTON_TOL,
                          maxiter: int = 50) -> tuple[AnalyticSeries, ClosureReport]:
    """Restore the three solvability conditions by a low-harmonic correction.

    The boundary datum is modified by ``lam0 + lam1*cos + lam2*sin``; the
    three real parameters solve the three defect equations by a damped
    Newton iteration with a finite-difference Jacobian.  Already-solvable
    data returns unchanged with zero correction.
    """

    def defects(lams):
        rep = closure_conditions(_with_correction(chi, lams), corr)
        return np.array([rep.closure_defect.real, rep.closure_defect.imag,
                         rep.vinf_defect])

    lams = np.zeros(3)
    f = defects(lams)
    if np.max(np.abs(f)) < 10 * tol:
        report = closure_conditions(chi, corr)
        return chi, replace(report, corrected=False, correction_norm=0.0)

    scale = max(1.0, float(np.max(np.abs(chi.coefficients))))
    for _ in range(maxiter):
        if np.max(np.abs(f)) < tol * scale:
            break
        jac = np.empty((3, 3))
        h = 1e-7
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            jac[:, j] = (defects(lams + e) - defects(lams - e)) / (2 * h)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise QuasisolutionDiverged("singular correction Jacobian") from exc
        t = 1.0
        base = np.max(np.abs(f))
        while t > 1e-4:
            trial = defects(lams + t * step)
            if np.max(np.abs(trial)) < base:
                lams = lams + t * step
                f = trial
                break
            t *= 0.5
        else:
            raise QuasisolutionDiverged("damped step failed to reduce the defects")
    else:
        raise QuasisolutionDiverged(
            f"no convergence in {maxiter} iterations; defects {f}"
        )
    corrected = _with_correction(chi, lams)
    report = closure_conditions(corrected, corr)
    norm = float(np.sqrt(lams[0] ** 2 + 0.5 * (lams[1] ** 2 + lams[2] ** 2)))
    return corrected, replace(report, corrected=True, correction_norm=norm)


def reconstruct_contour(chi: AnalyticSeries, corr: CircleCorrespondence, n: int,
                        z_start: complex = 0.0) -> Contour:
    """Integrate ``dz = exp(-chi) dzeta`` along the circle into contour nodes.

    The contour is anchored so the rising-arc branch (stagnation) point sits
    exactly at ``z_start``; shifting z_start translates the contour rigidly
    and rotating the incidence rotates it about z_start.
    """
    nodes = _reconstruct_nodes(chi, corr, n, z_start)
    return Contour.from_complex(nodes, closed=True)


def _periodic_integral_at(values: np.ndarray, theta: float) -> complex:
    """Antiderivative in angle of nodal values, evaluated at one angle."""
    n = len(values)
    spec = np.fft.fft(values) / n
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    nz = k != 0
    out = spec[0] * theta
    out += np.sum(spec[nz] * (np.exp(1j * k[nz] * theta) - 1.0) / (1j * k[nz]))
    return complex(out)


def _reconstruct_nodes(chi: AnalyticSeries, corr: CircleCorrespondence, n: int,
                       z_start: complex) -> np.ndarray:
    alpha = gauge_angle(corr, n)
    gamma = 2 * np.pi * np.arange(n) / n
    zprime = np.exp(-boundary_values(chi, n))
    integrand = zprime * 1j * np.exp(1j * gamma)
    table, mean = cumulative_boundary_integral(integrand)
    perimeter = float(np.sum(np.abs(zprime))) * 2 * np.pi / n
    gap = abs(2 * np.pi * mean)
    if gap > 1e-8 * perimeter:
        raise NotClosed(f"closure gap {gap:.3e} exceeds 1e-8 of the perimeter")
    theta_branch = (corr.stagnation_angles[0] - alpha) % (2 * np.pi)
    z_branch = _periodic_integral_at(integrand, theta_branch)
    z_work = table + mean * gamma - z_branch
    return complex(z_start) + np.exp(1j * alpha) * z_work


def reconstruction_map(chi: AnalyticSeries, corr: CircleCorrespondence, n: int,
                       z_start: complex = 0.0) -> SeriesMap:
    """Series map z(zeta) of the reconstruction, in the gauge frame."""
    alpha = gauge_angle(corr, n)
    zprime = np.exp(-boundary_values(chi, n))
    spec = np.fft.fft(zprime) / n
    coeffs = np.empty(n // 2, dtype=complex)     # a_k of zeta**-k
    coeffs[0] = spec[0]
    coeffs[1:] = spec[:n // 2 - 1:-1][: n // 2 - 1]
    ext = AnalyticSeries.exterior(coeffs)
    theta_branch = (corr.stagnation_angles[0] - alpha) % (2 * np.pi)
    anti = integrate_series(ext, np.exp(1j * theta_branch), residue_rtol=1e-7)
    series = anti * np.exp(1j * alpha) + AnalyticSeries.interior([complex(z_start)])
    return SeriesMap(series.trimmed(1e-15), label="blade")


# -- complete per-blade solve --------------------------------------------------

@dataclass(frozen=True)
class PlanarSolution:
    """Everything the downstream assembly needs from one blade solve."""

    dist: VelocityDistribution
    effective_dist: VelocityDistribution
    corr: CircleCorrespondence
    n: int
    chi: AnalyticSeries
    closure: ClosureReport
    z_start: complex
    w1: float = 0.0

    @property
    def gauge(self) -> float:
        return gauge_angle(self.corr, self.n)

    @cached_property
    def contour(self) -> Contour:
        return reconstruct_contour(self.chi, self.corr, self.n, self.z_start)

    @cached_property
    def map(self) -> SeriesMap:
        return reconstruction_map(self.chi, self.corr, self.n, self.z_start)

    @cached_property
    def velocity_series(self) -> AnalyticSeries:
        """Analytic completion g(zeta) = (dw_c/dzeta)(zeta*e^{i*gauge}) * e^chi.

        Its pullback ``g(zeta(z))`` is the conjugate in-plane velocity of
        the modified problem; multiplied by i it is the analytic datum the
        field assembly consumes.
        """
        n = self.n
        alpha = self.gauge
        A = self.corr.canonical_speed
        b = self.corr.flow_angle
        G = self.corr.circulation
        p_coeffs = np.array([
            -A * np.exp(-1j * b),
            G / (2j * np.pi) * np.exp(-1j * alpha),
            A * np.exp(1j * b) * np.exp(-2j * alpha),
        ])
        p_series = AnalyticSeries.exterior(p_coeffs)
        echi = np.exp(boundary_values(self.chi, n))
        spec = np.fft.fft(echi) / n
        coeffs = np.empty(n // 2, dtype=complex)
        coeffs[0] = spec[0]
        coeffs[1:] = spec[:n // 2 - 1:-1][: n // 2 - 1]
        e_series = AnalyticSeries.exterior(coeffs)
        return (p_series * e_series).trimmed(1e-14)

    def branch_point(self) -> complex:
        """Physical position of the rising-arc stagnation point (the anchor)."""
        return complex(self.z_start)


def solve_distribution(d: VelocityDistribution, n: int = 256,
                       z_start: complex = 0.0, w1: float = 0.0) -> PlanarSolution:
    """Run the full per-blade pipeline, optionally on the modified data.

    For w1 != 0 the data becomes ``V + w1*|s|`` first (the modified
    problem); w1 = 0 reduces exactly to the classical pipeline.
    """
    eff = d.modified(w1)
    potential_and_circulation(eff)           # validates the quadrature contract
    corr = canonical_map(eff)
    chi0 = solve_zhukovsky(eff, corr, n)
    chi, report = quasisolution_correct(eff, chi0, corr)
    return PlanarSolution(d, eff, corr, n, chi, report, complex(z_start), float(w1))


def solve_modified(d: VelocityDistribution, w1: float, n: int = 256,
                   z_start: complex = 0.0) -> tuple[AnalyticSeries, CircleCorrespondence, PlanarSolution]:
    """Modified-problem solve returning the analytic datum and correspondence.

    The returned series is the analytic completion of the in-plane velocity
    (the field assembly subtracts the ``(i*w1/2)*conj(z)`` summand when
    unpacking it into components).
    """
    sol = solve_distribution(d, n=n, z_start=z_start, w1=w1)
    return sol.velocity_series, sol.corr, sol
