"""Planar inverse problem per blade with quasisolution correction.

Pipeline: a prescribed tangential speed V(s) along an unknown closed blade
contour is transferred to the unit circle of a canonical flow by potential
matching, the regularized Zhukovsky function

    chi(zeta) = ln(dw/dz) - ln(dw_c/dzeta) = -ln(dz/dzeta)

is recovered from its boundary real part by the Schwarz operator, the three
solvability defects (contour closure, two conditions; speed at infinity,
one) are measured spectrally, and a minimal low-harmonic boundary correction
``lam0 + lam1*cos(gamma) + lam2*sin(gamma)`` restores them.  The blade is
then one object, the map ``z(zeta)``: the exterior modes of
``dz/dzeta = exp(-chi)`` on the circle nodes, integrated term by term.  The
contour is that map's image of the circle nodes, and the velocity series
is projected from the same nodes.

The canonical flow past the unit circle with circulation is

    w_c(zeta) = -A*(exp(-i*b)*zeta + exp(i*b)/zeta) + (G/(2*pi*i))*ln(zeta)

with A the prescribed far-field speed, b the internal flow angle (minus the
incidence, so that rotating the incidence by ``a`` rotates the reconstructed
contour by ``-a``) and G the circulation.  Stagnation angles are kept in the
middle of boundary-grid intervals by a gauge rotation of the canonical
frame, so nodal data never samples the vanishing speed.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    BladekitError,
    InconsistentDistribution,
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
    differentiate_boundary,
    exterior_projection,
    integrate_series,
)
from .planefield import SeriesMap
from .spline import PeriodicCubic

_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 50
# The correspondence's safeguarded Newton takes 4-12 steps on the test flows;
# the cap leaves room for bisecting a bracket all the way to 4 ulp (~51).
_CORRESPONDENCE_MAXITER = 64


def _finite_real(value, key: str) -> float:
    # bools are ints; strings, NaN and inf are not finite real numbers
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and abs(value) <= sys.float_info.max):
        raise InconsistentDistribution(f"{key} must be a finite real number, got {value!r}")
    return float(value)


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
        L = _finite_real(self.total_length, "total_length")
        v_inf = _finite_real(self.v_inf, "v_inf")
        if not (L > 0 and v_inf > 0):
            raise InconsistentDistribution("total_length and v_inf must be positive")
        s = samples[:, 0]
        if not (np.all(np.diff(s) > 0) and s[0] >= 0 and s[-1] < L):
            raise InconsistentDistribution(
                "arc positions must increase strictly inside [0, L)"
            )
        m = len(s)
        idx = self.branch_indices
        if not (isinstance(idx, (tuple, list)) and len(idx) == 2
                and all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                        and 0 <= i < m for i in idx)):
            raise InconsistentDistribution(
                f"branch_indices must be two integers in [0, {m}), got {idx!r}"
            )
        ia, ib = sorted(int(i) for i in idx)
        if ia == ib:
            raise InconsistentDistribution("need two distinct branch samples")
        v = samples[:, 1]
        if v[ia] != 0.0 or v[ib] != 0.0:
            raise InconsistentDistribution("speed must vanish at branch samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "total_length", L)
        object.__setattr__(self, "v_inf", v_inf)
        object.__setattr__(self, "incidence", _finite_real(self.incidence, "incidence"))
        object.__setattr__(self, "branch_indices", (ia, ib))
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
    def _speed_spline(self) -> PeriodicCubic:
        # knots s_0 .. s_0 + L: the period is L wherever the first sample sits
        s = self.arc_positions
        s = np.concatenate([s, [s[0] + self.total_length]])
        v = np.concatenate([self.speeds, [self.speeds[0]]])
        return PeriodicCubic.interpolate(s, v)

    def speed_at(self, s) -> np.ndarray:
        return self._speed_spline(s)

    def potential_at(self, s) -> np.ndarray:
        """Smooth running integral of the speed, unwrapped over periods."""
        return self._speed_spline.integral(s)

    @property
    def knot_potentials(self) -> np.ndarray:
        """The potential at the knots s_0 .. s_0 + L; the last is the circulation."""
        return self._speed_spline.knot_integrals

    @property
    def circulation_smooth(self) -> float:
        return float(self.knot_potentials[-1])

    def _potential_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots x and quartic coefficients c of the potential over two periods.

        Between knots k and k+1 the potential is ``c[0, k]*t**4 + ... +
        c[4, k]`` in ``t = s - x[k]``, so ``c[4, k]`` is its value at knot k.
        The second period repeats the first with every constant raised by
        the circulation, so an arc [lo, hi] with hi <= lo + L never wraps.
        """
        spline = self._speed_spline
        L = self.total_length
        x = np.concatenate([spline.x[:-1], spline.x + L])
        c = np.concatenate([spline.quartics, spline.quartics], axis=1)
        c[-1, spline.quartics.shape[1]:] += self.circulation_smooth
        return x, c

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
        rows = obj["samples"]
        if not (isinstance(rows, list) and all(type(r) is list and len(r) == 2 for r in rows)):
            raise InconsistentDistribution("samples must be pairs of JSON numbers")
        values = list(chain.from_iterable(rows))
        # JSON numbers parse to int and float; np.asarray would also read "0.1" and true
        if not set(map(type, values)) <= {int, float}:
            raise InconsistentDistribution("samples must be pairs of JSON numbers")
        return VelocityDistribution(
            samples=np.array(values, dtype=float).reshape(len(rows), 2),
            total_length=obj["total_length"],
            branch_indices=obj["branch_indices"],
            v_inf=obj["v_inf"],
            incidence=obj.get("incidence", 0.0),
        )


# -- canonical flow ----------------------------------------------------------

def _canonical_potential(gamma, A, beta, G):
    return -2.0 * A * np.cos(gamma - beta) + G * gamma / (2 * np.pi)


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


def _quartic(c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope of ``c[0]*t**4 + ... + c[4]``, by one Horner pass."""
    p = c[0]
    dp = np.zeros_like(t)
    for ck in c[1:]:
        dp = dp * t + p
        p = p * t + ck
    return p, dp


@dataclass(frozen=True)
class _PotentialArc:
    """The potential along one arc, bracketed at its knots for inversion.

    ``nodes`` are the arc's ends with the knots strictly between them and
    ``values`` the potential there, strictly monotone.  Between nodes i and
    i+1 the potential is the quartic ``coeffs[:, i]`` in ``t = s - origins[i]``.
    """

    nodes: np.ndarray
    values: np.ndarray
    origins: np.ndarray
    coeffs: np.ndarray

    def solve(self, targets: np.ndarray) -> np.ndarray:
        """Arc positions at which the potential takes the given values, by
        the safeguarded Newton of `CircleCorrespondence.s_of_gamma`.
        Targets at or past an end of the arc map to that end."""
        sign = 1.0 if self.values[-1] > self.values[0] else -1.0
        y = sign * np.asarray(targets, dtype=float)
        v = sign * self.values
        # the potential's roundoff is absolute, set by the arc's constants
        ftol = 4 * np.spacing(max(abs(v[0]), abs(v[-1])))
        s = np.where(y <= v[0], self.nodes[0], self.nodes[-1])
        idx = np.flatnonzero((y > v[0]) & (y < v[-1]))
        k = np.searchsorted(v, y[idx], side="right") - 1
        c = sign * self.coeffs[:, k]
        origin = self.origins[k]
        a = self.nodes[k] - origin
        b = self.nodes[k + 1] - origin
        y = y[idx]
        t = 0.5 * (a + b)
        for _ in range(_CORRESPONDENCE_MAXITER):
            p, dp = _quartic(c, t)
            f = p - y
            a = np.where(f < 0, t, a)
            b = np.where(f > 0, t, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = t - f / dp
            step = np.where((newton > a) & (newton < b), newton, 0.5 * (a + b)) - t
            fits = np.abs(f) <= ftol
            t = np.where(fits, t, t + step)
            done = fits | (np.abs(step) <= 4 * np.spacing(np.abs(origin + t)))
            s[idx[done]] = origin[done] + t[done]
            keep = ~done
            idx, c, origin, a, b, y, t = (idx[keep], c[:, keep], origin[keep],
                                          a[keep], b[keep], y[keep], t[keep])
            if idx.size == 0:
                return s
        raise InconsistentDistribution(
            f"arc-to-angle correspondence unconverged after {_CORRESPONDENCE_MAXITER}"
            f" iterations at {idx.size} points"
        )


def _potential_arc(x: np.ndarray, c: np.ndarray, lo: float, hi: float) -> _PotentialArc:
    """Bracket the potential with knots x and pieces c on the arc [lo, hi]."""
    j0 = int(np.searchsorted(x, lo, side="right"))
    j1 = int(np.searchsorted(x, hi, side="left"))
    origins = x[j0 - 1:j1]
    coeffs = c[:, j0 - 1:j1]
    ends, _ = _quartic(coeffs[:, [0, -1]], np.array([lo, hi]) - origins[[0, -1]])
    values = np.concatenate([ends[:1], c[-1, j0:j1], ends[1:]])
    return _PotentialArc(np.concatenate([[lo], x[j0:j1], [hi]]), values, origins, coeffs)


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

    def arcs(self) -> tuple[_PotentialArc, _PotentialArc]:
        """The potential on the rising and on the falling arc, bracketed at
        its knots; built per call, so a kept correspondence holds no table."""
        s_a, s_b = self.dist.rise_interval
        x, c = self.dist._potential_pieces()
        return (_potential_arc(x, c, s_a, s_b),
                _potential_arc(x, c, s_b, s_a + self.dist.total_length))

    def on_rising_arc(self, gamma) -> np.ndarray:
        """Whether each canonical angle lies on the rising arc [th_lo, th_hi]."""
        th_lo, th_hi = self.stagnation_angles
        return np.mod(gamma - th_lo, 2 * np.pi) <= th_hi - th_lo

    def s_of_gamma(self, gamma) -> np.ndarray:
        """Arc position of the boundary point at canonical angle gamma, mod L.

        The canonical potential increment from the angle's arc start,
        rescaled from the canonical to the data's range on that arc, is a
        potential target.  One ``searchsorted`` on the arc's knot values
        gives each target its knot interval, where the potential is a
        quartic; Newton runs on it from the interval's midpoint, the
        bracket shrinks by the sign of the residual, and a step that would
        leave the bracket bisects instead (``rtsafe``, Press et al.,
        Numerical Recipes, 3rd ed., section 9.4).  A point stops when its
        step is at most 4 ulp of s or its residual at most 4 ulp of the
        arc's largest potential.  The second clause is needed near a
        stagnation point: there the speed vanishes, roundoff in the
        potential keeps the Newton step far above the ulp of s, and a
        step-only stop bisects toward a bracket end that never moves.
        """
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        th_lo, th_hi = self.stagnation_angles
        phic = self.canonical_potential(th_lo + np.mod(gamma - th_lo, 2 * np.pi))
        rising = self.on_rising_arc(gamma)
        rising_arc, falling_arc = self.arcs()
        out = np.empty_like(gamma)
        for mask, arc, start, dc, delta in (
                (rising, rising_arc, th_lo, self.deltac_plus, self.delta_plus),
                (~rising, falling_arc, th_hi, self.deltac_minus, self.delta_minus)):
            if np.any(mask):
                tau = (phic[mask] - self.canonical_potential(start)) / dc
                out[mask] = arc.solve(arc.values[0] + tau * delta)
        return np.mod(out, self.dist.total_length)


def canonical_map(d: VelocityDistribution) -> CircleCorrespondence:
    """Build the arc-to-angle correspondence by normalized potential matching.

    The potential is the antiderivative of the periodic cubic speed spline,
    a quartic on each knot interval; its full-turn value is the circulation.
    `CircleCorrespondence.arcs` tabulates it at each arc's knots for
    `s_of_gamma`.  Knot values that are not strictly monotone along an arc
    are refused here: the spline's integral over a whole interval has the
    wrong sign there, though every sample has the right one, and the arc
    has no inverse.  The arc ends are knots, so every knot interval lies on
    one arc, whose sign both of the interval's samples carry or vanish with.
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
    v = d.speeds
    if not np.all(np.diff(d.knot_potentials) * (v + np.roll(v, -1)) > 0):
        raise InconsistentDistribution("speed spline changes sign inside an arc")
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
    offset = np.where(corr.on_rising_arc(gamma_work + alpha),
                      np.log(corr.delta_plus / corr.deltac_plus),
                      np.log(corr.delta_minus / corr.deltac_minus))
    data = -np.log(sprime) + offset
    return analytic_from_real_boundary(BoundarySamples(data))


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

    Defects are measured on the same grid the reconstruction projects
    from, so a corrected solution closes on that grid exactly.
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


def quasisolution_correct(chi: AnalyticSeries,
                          corr: CircleCorrespondence) -> tuple[AnalyticSeries, ClosureReport]:
    """Restore the three solvability conditions by a low-harmonic correction.

    The boundary datum gains ``lam0 + lam1*cos + lam2*sin``, so chi gains
    ``lam0 + c/zeta`` with ``c = lam1 + i*lam2``, and the defects decouple.
    The speed defect reads only chi's constant term: ``lam0 = -vinf_defect``.
    The constant scales ``z' = exp(-chi)`` by ``exp(-lam0)`` at every node,
    so the closure defect is ``exp(-lam0) * F(c)`` with the holomorphic
    ``F(c) = 2*pi*i * mean(z' exp(-c/zeta) zeta)`` over the circle nodes,
    zeroed by scalar complex Newton with the exact ``F'(c)`` from c = 0.
    Already-solvable data returns unchanged with zero correction.
    """
    report = closure_conditions(chi, corr)
    closure = report.closure_defect
    if max(abs(closure.real), abs(closure.imag), abs(report.vinf_defect)) < 10 * _NEWTON_TOL:
        return chi, report

    tol = _NEWTON_TOL * max(1.0, float(np.max(np.abs(chi.coefficients))))
    n = _eval_n(chi)
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    zprime = np.exp(-boundary_values(chi, n))
    lam0 = -report.vinf_defect
    c = 0j
    for _ in range(_NEWTON_MAXITER):
        dz = zprime * np.exp(-c / zeta)
        a1 = np.mean(dz * zeta)
        closure = 2j * np.pi * np.exp(-lam0) * a1
        if max(abs(closure.real), abs(closure.imag)) < tol:
            break
        c += a1 / np.mean(dz)              # c - F(c)/F'(c)
    else:
        raise QuasisolutionDiverged(
            f"no convergence in {_NEWTON_MAXITER} iterations; closure defect {closure}"
        )
    corrected = _with_correction(chi, np.array([lam0, c.real, c.imag]))
    report = closure_conditions(corrected, corr)
    norm = float(np.sqrt(lam0 ** 2 + 0.5 * abs(c) ** 2))
    return corrected, replace(report, corrected=True, correction_norm=norm)


def reconstruction_map(chi: AnalyticSeries, corr: CircleCorrespondence, n: int,
                       z_start: complex = 0.0) -> SeriesMap:
    """Series map z(zeta) of the reconstruction, in the gauge frame.

    ``dz/dzeta = exp(-chi)`` at the n circle nodes is projected onto its
    n/2 exterior modes and integrated term by term.  Its residue is
    ``closure_defect / (2*pi*i)``, so an unclosed chi is refused here with
    `MultivaluedAntiderivative`.  The map sends the rising-arc branch
    (stagnation) angle to ``z_start``: shifting z_start translates the
    blade rigidly and rotating the incidence rotates it about z_start.
    """
    alpha = gauge_angle(corr, n)
    ext = exterior_projection(np.exp(-boundary_values(chi, n)))
    theta_branch = (corr.stagnation_angles[0] - alpha) % (2 * np.pi)
    anti = integrate_series(ext, np.exp(1j * theta_branch), residue_rtol=1e-7)
    series = anti * np.exp(1j * alpha) + AnalyticSeries.interior([complex(z_start)])
    return SeriesMap(series.trimmed(1e-15))


def reconstruct_contour(zmap: SeriesMap, n: int) -> Contour:
    """Contour nodes: the map's image of the n circle nodes, by one FFT."""
    return Contour.from_complex(boundary_values(zmap.series, n), closed=True)


# -- complete per-blade solve --------------------------------------------------

@dataclass(frozen=True)
class PlanarSolution:
    """Everything the downstream assembly needs from one blade solve."""

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
        return reconstruct_contour(self.map, self.n)

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
        e_series = exterior_projection(np.exp(boundary_values(self.chi, n)))
        return (p_series * e_series).trimmed(1e-14)


def solve_distribution(d: VelocityDistribution, n: int = 256,
                       z_start: complex = 0.0, w1: float = 0.0) -> PlanarSolution:
    """Run the full per-blade pipeline, optionally on the modified data.

    For w1 != 0 the data becomes ``V + w1*|s|`` first (the modified
    problem); w1 = 0 reduces exactly to the classical pipeline.
    """
    eff = d.modified(w1)
    corr = canonical_map(eff)
    chi0 = solve_zhukovsky(eff, corr, n)
    chi, report = quasisolution_correct(chi0, corr)
    return PlanarSolution(corr, n, chi, report, complex(z_start), float(w1))


def solve_modified(d: VelocityDistribution, w1: float, n: int = 256,
                   z_start: complex = 0.0) -> tuple[AnalyticSeries, CircleCorrespondence, PlanarSolution]:
    """Modified-problem solve returning the analytic datum and correspondence.

    The returned series g(zeta) is the analytic completion of the in-plane
    velocity; the field assembly takes ``i*g(zeta(z))`` as the blade's plane
    and adds the ``-(i*w1/2)*conj(z)`` summand of the modified problem.
    """
    sol = solve_distribution(d, n=n, z_start=z_start, w1=w1)
    return sol.velocity_series, sol.corr, sol
