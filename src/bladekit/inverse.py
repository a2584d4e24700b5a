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
contour is that map's image of the circle nodes, and the blade's flow is its
canonical potential carried through that map (`PlanarSolution.potential`).

Blades are solved in batches (`solve_modified`; `solve_distribution` is the
batch of one).  The modified data, the correspondence, the gauge and the
quasisolution run per blade; the correspondence's Newton sweep and the
Zhukovsky datum's FFTs run once for the batch, on (blades, n) arrays, and
act on each blade's points alone, so every blade is bit for bit its solve
alone.  The pipeline solves every blade of a config in one batch.

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
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import (
    BladekitError,
    InconsistentDistribution,
    QuasisolutionDiverged,
    StagnationOffCircle,
)
from .geometry import Contour
from .harmonic import (
    AnalyticSeries,
    analytic_from_real_boundary,
    boundary_values,
    differentiate_boundary,
    exterior_projection,
    integrate_series,
    value_at_angle,
)
from .planefield import Pullback, SeriesMap
from .spline import horner, periodic_potential

_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 50
# The correspondence's safeguarded Newton takes 4-12 steps on the test flows;
# the cap leaves room for bisecting a bracket all the way to 4 ulp (~51).
_CORRESPONDENCE_MAXITER = 64
DISTRIBUTION_KEYS = ("samples", "total_length", "branch_indices", "v_inf")  # incidence: 0 if absent


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
        if not (np.all(s[1:] > s[:-1]) and s[0] >= 0 and s[-1] < L):
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
    def potential_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots x and quartic pieces c of the potential over two periods.

        The potential is the running integral from s_0 of the periodic cubic
        speed spline on the knots s_0 .. s_0 + L.  Between knots k and k+1
        it is ``c[0, k]*t**4 + ... + c[4, k]`` in ``t = s - x[k]``, so
        ``c[4, k]`` is its value at knot k.  The second period repeats the
        first with every constant raised by the circulation, so an arc from
        knot a to knot b <= a + m, for m samples, is one slice.
        """
        s, v = self.arc_positions, self.speeds
        knots = np.concatenate([s, [s[0] + self.total_length]])
        pieces, circulation = periodic_potential(knots, np.concatenate([v, v[:1]]))
        c = np.concatenate([pieces, pieces], axis=1)
        c[-1, len(s):] += circulation
        return np.concatenate([s, knots + self.total_length]), c

    @property
    def rise_knots(self) -> tuple[int, int]:
        """Knot indices (a, b) of the table with V > 0 between them, b > a."""
        ia, ib = self.branch_indices
        if self.speeds[ia + 1] > 0:
            return ia, ib
        return ib, ia + len(self.speeds)

    @property
    def circulation_smooth(self) -> float:
        return float(self.potential_table[1][-1, len(self.speeds)])

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

        ``|s|`` is the arc distance to the nearest branch point, exactly 0 at
        the branch samples, which stay zeros; the sign structure must survive.
        """
        if w1 == 0.0:
            return self
        v = self.speeds + w1 * self.branch_distance(self.arc_positions)
        samples = np.column_stack([self.arc_positions, v])
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
        if not isinstance(obj, dict):
            raise InconsistentDistribution(f"not a distribution object: {type(obj).__name__}")
        for key in DISTRIBUTION_KEYS:
            if key not in obj:
                raise InconsistentDistribution(f"distribution is missing {key!r}")
        rows = obj["samples"]
        if not (isinstance(rows, list) and all(type(r) is list and len(r) == 2 for r in rows)):
            raise InconsistentDistribution("samples must be pairs of JSON numbers")
        values = list(chain.from_iterable(rows))
        # JSON numbers parse to int and float; np.asarray would also read "0.1" and true
        if not set(map(type, values)) <= {int, float}:
            raise InconsistentDistribution("samples must be pairs of JSON numbers")
        try:
            samples = np.array(values, dtype=float).reshape(len(rows), 2)
        except OverflowError:       # an integer beyond the float range
            raise InconsistentDistribution("samples must be finite") from None
        return VelocityDistribution(
            samples=samples,
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


@dataclass(frozen=True)
class _PotentialArc:
    """The potential along one arc, bracketed at its knots for inversion.

    ``nodes`` are the arc's ends with the knots strictly between them and
    ``values`` the potential there, strictly monotone.  Between nodes i and
    i+1 the potential is the quartic ``coeffs[:, i]`` in ``t = s - nodes[i]``.
    """

    nodes: np.ndarray
    values: np.ndarray
    coeffs: np.ndarray

    def bracket(self, targets: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Targets at or past an end of the arc at that end, and the Newton
        state of the others, one column each, for `_newton_sweep`: their
        indices, the potential's quartic in their knot interval and its
        origin and width, the target and the residual stop, all with the
        arc's sign folded in so that the potential rises."""
        sign = 1.0 if self.values[-1] > self.values[0] else -1.0
        y = sign * np.asarray(targets, dtype=float)
        v = sign * self.values
        # the potential's roundoff is absolute, set by the arc's constants
        ftol = 4 * np.spacing(max(abs(v[0]), abs(v[-1])))
        s = np.where(y <= v[0], self.nodes[0], self.nodes[-1])
        idx = np.flatnonzero((y > v[0]) & (y < v[-1]))
        k = np.searchsorted(v, y[idx], side="right") - 1
        origin = self.nodes[k]
        return s, (idx, sign * self.coeffs.take(k, axis=1), origin, self.nodes[k + 1] - origin,
                   y[idx], np.full(idx.size, ftol))


def _newton_sweep(s, idx, c, origin, b, y, ftol) -> np.ndarray:
    """Fill ``s[idx]`` with the roots of the rising quartics ``c - y`` in
    ``origin + [0, b]``, one column a point, as `CircleCorrespondence.s_of_gamma`
    describes; each point's iterates depend on its own column alone."""
    a = np.zeros_like(origin)
    t = 0.5 * (a + b)
    for _ in range(_CORRESPONDENCE_MAXITER):
        p, dp = horner(c, t)
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
        # compress keeps each coefficient row contiguous; c[:, keep] would stride them
        idx, c, origin, a, b, y, t, ftol = (idx[keep], c.compress(keep, axis=1), origin[keep],
                                            a[keep], b[keep], y[keep], t[keep], ftol[keep])
        if idx.size == 0:
            return s
    raise InconsistentDistribution(
        f"arc-to-angle correspondence unconverged after {_CORRESPONDENCE_MAXITER}"
        f" iterations at {idx.size} points"
    )


def _potential_arc(x: np.ndarray, c: np.ndarray, a: int, b: int) -> _PotentialArc:
    """Bracket the potential with knots x and pieces c on the arc from knot a to b."""
    end, _ = horner(c[:, b - 1], x[b] - x[b - 1])
    return _PotentialArc(x[a:b + 1], np.append(c[-1, a:b], end), c[:, a:b])


@dataclass(frozen=True)
class CircleCorrespondence:
    """Boundary correspondence between arc length and canonical circle angle.

    Potential increments are matched arc by arc in normalized form, so the
    map is a continuous bijection even for data whose potential range does
    not agree with the canonical one (the quasisolution absorbs that
    mismatch later through the constant boundary correction).
    ``increments`` holds the data's and the canonical potential increments
    ``(delta, delta_c)`` over the rising and over the falling arc.
    """

    dist: VelocityDistribution
    stagnation_angles: tuple[float, float]
    increments: tuple[tuple[float, float], tuple[float, float]]

    def canonical_potential(self, gamma):
        d = self.dist
        return _canonical_potential(gamma, d.v_inf, -d.incidence, d.circulation_smooth)

    def arcs(self) -> tuple[_PotentialArc, _PotentialArc]:
        """The potential on the rising and on the falling arc, bracketed at
        its knots."""
        x, c = self.dist.potential_table
        a, b = self.dist.rise_knots
        return (_potential_arc(x, c, a, b),
                _potential_arc(x, c, b, a + len(self.dist.speeds)))

    def branch_angle(self, alpha: float) -> float:
        """The angle in [0, 2*pi) of zeta_B, the rising-arc stagnation point,
        in the frame of the gauge ``alpha``."""
        return (self.stagnation_angles[0] - alpha) % (2 * np.pi)

    def branch_preimage(self, alpha: float) -> complex:
        """zeta_B, ``exp(i*branch_angle(alpha))``."""
        return np.exp(1j * self.branch_angle(alpha))

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
        Both arcs' targets run in one sweep, each with its arc's sign and
        residual stop; every operation acts on one point's column alone, so
        a point's result does not depend on the points that share the call.
        This is `_arc_positions` of this blade alone.
        """
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        s, _ = _arc_positions([self], gamma[None])
        return s[0]


def _arc_positions(corrs, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`CircleCorrespondence.s_of_gamma` of each blade at its row of gamma,
    (blades, points): both arcs of every blade in one `_newton_sweep`,
    whose columns are pointwise, so each row is bit for bit its blade's
    call alone.  Also returns each blade's `on_rising_arc` of its row."""
    out = np.empty(gamma.shape)
    rising = np.empty(gamma.shape, dtype=bool)
    states = []
    for row, corr in enumerate(corrs):
        g = gamma[row]
        th_lo = corr.stagnation_angles[0]
        phic = corr.canonical_potential(th_lo + np.mod(g - th_lo, 2 * np.pi))
        rising[row] = rise = corr.on_rising_arc(g)
        for mask, arc, start, (delta, dc) in zip((rise, ~rise), corr.arcs(),
                                                 corr.stagnation_angles, corr.increments):
            where = np.flatnonzero(mask)
            tau = (phic[where] - corr.canonical_potential(start)) / dc
            out[row, where], (idx, *state) = arc.bracket(arc.values[0] + tau * delta)
            states.append((row * gamma.shape[1] + where[idx], *state))
    # the quartics' columns side by side, the rest end to end
    _newton_sweep(out.reshape(-1), *map(np.hstack, zip(*states)))
    return np.mod(out, [[corr.dist.total_length] for corr in corrs]), rising


def canonical_map(d: VelocityDistribution) -> CircleCorrespondence:
    """Build the arc-to-angle correspondence by normalized potential matching.

    The potential is the antiderivative of the periodic cubic speed spline,
    a quartic on each knot interval; its full-turn value is the circulation.
    Everything here reads `VelocityDistribution.potential_table` at its
    knots, and `CircleCorrespondence.arcs` brackets each arc by them for
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
    knot_values = d.potential_table[1][-1]
    a, b = d.rise_knots
    dplus = float(knot_values[b] - knot_values[a])
    dminus = G - dplus
    dc_plus = float(_canonical_potential(th_hi, A, beta, G)
                    - _canonical_potential(th_lo, A, beta, G))
    dc_minus = G - dc_plus
    if not (dplus > 0 and dminus < 0 and dc_plus > 0 and dc_minus < 0):
        raise InconsistentDistribution(
            "potential range mismatch between the data and the canonical flow"
        )
    v = d.speeds
    if not np.all(np.diff(knot_values[:len(v) + 1]) * (v + np.roll(v, -1)) > 0):
        raise InconsistentDistribution("speed spline changes sign inside an arc")
    return CircleCorrespondence(d, (th_lo, th_hi), ((dplus, dc_plus), (dminus, dc_minus)))


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


def solve_zhukovsky(corrs, n: int, alphas) -> list[AnalyticSeries]:
    """Regularized Zhukovsky functions of a batch of blades, one per correspondence.

    Blade b's boundary datum is ``ln(V / |dw_c/dzeta|)`` of ``corrs[b].dist``,
    evaluated through the correspondence as ``-ln(ds/dgamma)`` plus the
    per-arc normalization offset; the singular factors at the stagnation
    angles cancel exactly.  It is sampled at the n circle nodes of the gauge
    ``alphas[b]``, the frame the map must be built in, where `gauge_angle`
    keeps those angles off the nodes.  The batch is one (blades, n) array:
    one correspondence sweep (`_arc_positions`), then the unwrap, the
    spectral derivative, the log and the Schwarz operator's FFT, each along
    the last axis, so every blade's series is bit for bit its solve alone.
    """
    if n < 8 or n & (n - 1):
        raise BladekitError("boundary grid size must be a power of two >= 8")
    L = np.array([[corr.dist.total_length] for corr in corrs])
    gamma_work = 2 * np.pi * np.arange(n) / n
    gamma = gamma_work + np.array(alphas, dtype=float)[:, None]
    s_raw, rising = _arc_positions(corrs, gamma)
    # unwrap into an increasing sequence over one period
    jumps = np.zeros_like(s_raw)
    jumps[:, 1:] = np.cumsum(np.diff(s_raw) < 0, axis=-1)
    s_mono = s_raw + jumps * L
    p = s_mono - (L / (2 * np.pi)) * gamma_work
    sprime = L / (2 * np.pi) + differentiate_boundary(p - p.mean(axis=-1, keepdims=True))
    if np.any(sprime <= 0):
        raise InconsistentDistribution("correspondence is not monotone")
    offset = np.empty_like(sprime)
    for row, corr, mask in zip(offset, corrs, rising):
        rise, fall = (np.log(delta / dc) for delta, dc in corr.increments)
        row[:] = np.where(mask, rise, fall)
    return analytic_from_real_boundary(-np.log(sprime) + offset)


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


@lru_cache(maxsize=32)
def _circle_nodes(n: int) -> np.ndarray:
    """The n circle nodes ``exp(2*pi*i*k/n)``, one read-only array per n."""
    zeta = np.exp(1j * (2 * np.pi * np.arange(n) / n))
    zeta.flags.writeable = False
    return zeta


def _measured(zprime: np.ndarray, vinf: float) -> ClosureReport:
    """The loop integral of nodal ``z' = exp(-chi)`` on the circle nodes the
    reconstruction projects from, so a corrected chi closes there exactly,
    and ``vinf``: Re chi at infinity, the log of the far-field speed over
    `canonical_map`'s A = v_inf."""
    closure = 2j * np.pi * np.mean(zprime * _circle_nodes(len(zprime)))
    return ClosureReport(complex(closure), vinf)


def _with_correction(chi: AnalyticSeries, lams: np.ndarray) -> AnalyticSeries:
    delta = AnalyticSeries(np.array([lams[1] + 1j * lams[2], lams[0] + 0j]), low=-1)
    return chi + delta


def quasisolution_correct(chi: AnalyticSeries, n: int
                          ) -> tuple[AnalyticSeries, ClosureReport, np.ndarray]:
    """Restore the three solvability conditions by a low-harmonic correction.

    The boundary datum gains ``lam0 + lam1*cos + lam2*sin``, so chi gains
    ``lam0 + c/zeta`` with ``c = lam1 + i*lam2``, and the defects decouple.
    The speed defect reads only chi's constant term: ``lam0 = -vinf_defect``.
    The constant scales ``z' = exp(-chi)`` by ``exp(-lam0)`` at every node,
    so the closure defect is ``exp(-lam0) * F(c)`` with the holomorphic
    ``F(c) = 2*pi*i * mean(z' exp(-c/zeta) zeta)`` over the circle nodes,
    zeroed by scalar complex Newton with the exact ``F'(c)`` from c = 0.
    Already-solvable data returns unchanged with zero correction.

    Returns the corrected chi, its defects and its nodal ``z'``.  That is
    the only ``exp(-chi)`` at the n circle nodes a solve forms: chi's own
    before the correction, the last Newton iterate ``z' exp(-c/zeta)``
    times ``exp(-lam0)`` after it.  Both defects are measured from it, and
    `reconstruction_map` projects it.
    """
    zeta = _circle_nodes(n)
    zprime = np.exp(-boundary_values(chi, n))
    report = _measured(zprime, float(chi.coefficient(0).real))
    closure = report.closure_defect
    if max(abs(closure.real), abs(closure.imag), abs(report.vinf_defect)) < 10 * _NEWTON_TOL:
        return chi, report, zprime

    tol = _NEWTON_TOL * max(1.0, float(np.max(np.abs(chi.coefficients))))
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
    zprime = dz * np.exp(-lam0)            # exp(-corrected chi) at the nodes
    report = _measured(zprime, float(corrected.coefficient(0).real))
    norm = float(np.sqrt(lam0 ** 2 + 0.5 * abs(c) ** 2))
    return corrected, replace(report, corrected=True, correction_norm=norm), zprime


def reconstruction_map(zprime: np.ndarray, alpha: float, phi_b: float,
                       z_start: complex = 0.0) -> SeriesMap:
    """Series map z(zeta) of the reconstruction, in the frame of the gauge ``alpha``.

    ``zprime`` is ``dz/dzeta = exp(-chi)`` at the n circle nodes, as
    `quasisolution_correct` keeps it; it is projected onto its n/2
    exterior modes and integrated term by term.  Its residue is
    ``closure_defect / (2*pi*i)``, so an unclosed chi is refused here with
    `MultivaluedAntiderivative`.  The map is fixed at the branch point
    ``zeta_B = exp(i*phi_b)``, on the circle, which lands on ``z_start``:
    shifting z_start translates the blade rigidly and rotating the incidence
    rotates it about z_start.  The antiderivative's value there is its
    one-angle sum (`value_at_angle`).
    """
    anti = integrate_series(exterior_projection(zprime))
    rotation = np.exp(1j * alpha)
    pin = complex(z_start) - value_at_angle(anti, phi_b) * rotation
    series = anti * rotation + AnalyticSeries.interior([pin])
    return SeriesMap(series.trimmed(1e-15))


def reconstruct_contour(zmap: SeriesMap, n: int) -> Contour:
    """Contour nodes: the map's image of the n circle nodes, by one FFT."""
    return Contour.from_complex(boundary_values(zmap.series, n))


# -- complete per-blade solve --------------------------------------------------

@dataclass(frozen=True)
class PlanarSolution:
    """Everything the downstream assembly needs from one blade solve.

    ``zprime`` is ``z' = exp(-chi)`` at the n circle nodes, formed once by
    `quasisolution_correct`: the map projects it and `velocity_series`
    reads ``e^chi`` there as its reciprocal.
    """

    corr: CircleCorrespondence
    n: int
    gauge: float                # the frame of the datum, the map, the flow and zeta_B
    chi: AnalyticSeries
    closure: ClosureReport
    zprime: np.ndarray
    z_start: complex
    w1: float = 0.0

    @cached_property
    def contour(self) -> Contour:
        return reconstruct_contour(self.map, self.n)

    @cached_property
    def node_speeds(self) -> np.ndarray:
        """|F'| of the blade's plane at its contour nodes, the images of the circle nodes."""
        return np.abs(self.potential.derivative(_circle_nodes(self.n),
                                                boundary_values(self.map.deriv, self.n)))

    @cached_property
    def map(self) -> SeriesMap:
        return reconstruction_map(self.zprime, self.gauge,
                                  self.corr.branch_angle(self.gauge), self.z_start)

    @cached_property
    def canonical_flow(self) -> tuple[AnalyticSeries, float]:
        """Laurent terms S and log coefficient of ``i*W = S + log*ln(zeta)`` up to a
        constant, with W the canonical potential ``w_c(zeta*e^{i*gauge})``."""
        d = self.corr.dist
        A = d.v_inf
        r = np.exp(1j * (self.gauge + d.incidence))
        return (AnalyticSeries(1j * np.array([-A / r, 0.0, -A * r]), low=-1),
                d.circulation_smooth / (2 * np.pi))

    @cached_property
    def velocity_series(self) -> AnalyticSeries:
        """Analytic completion g(zeta) = (dw_c/dzeta)(zeta*e^{i*gauge}) * e^chi.

        The first factor is ``(S' + log/zeta)*(-i*e^{-i*gauge})``, from
        `canonical_flow`.  The pullback ``g(zeta(z))`` is the conjugate in-plane
        velocity of the modified problem, with e^chi, the reciprocal of the
        nodal ``zprime``, cut to its n/2 exterior modes: a second projection
        of the flow that `potential` carries, which nothing in the library
        reads.  It is kept only for the benchmark's ``SolveOp`` and for
        tests; ROADMAP item 6 deletes it.
        """
        series, log = self.canonical_flow
        dw = series.derivative() + AnalyticSeries([log], low=-1)
        e_series = exterior_projection(1.0 / self.zprime)
        return (dw * (-1j * np.exp(-1j * self.gauge)) * e_series).trimmed(1e-14)

    @cached_property
    def potential(self) -> Pullback:
        """The blade's plane ``F = i*W(zeta(z))``: `canonical_flow` carried
        through the map and pinned to vanish at the branch point zeta_B.

        ``F' = i*W'(zeta)/z'(zeta)`` is the analytic datum of the field
        assembly.  The flow it carries is tangent to the contour, the map's
        image of the circle, exactly.  The pin subtracts ``S(zeta_B) +
        log*ln(zeta_B)`` from S's constant, summed in plain complex
        arithmetic from S's three terms.
        """
        series, log = self.canonical_flow
        inv, const, lin = series.coefficients.tolist()      # powers -1, 0 and 1
        zeta_b = complex(self.corr.branch_preimage(self.gauge))
        pin = inv / zeta_b + const + lin * zeta_b + log * complex(np.log(zeta_b))
        return Pullback(AnalyticSeries(np.array([inv, const - pin, lin]), low=-1),
                        self.map, log=log)


def solve_modified(blades, n: int, z_start: complex = 0.0) -> list[PlanarSolution]:
    """Solve the modified problems of a batch of blades, each ``(distribution, w1)``, at one n.

    Each blade's data becomes ``V + w1*|s|`` first (the modified problem)
    and gets its `canonical_map` and `gauge_angle`, one gauge for datum,
    map and potential.  `solve_zhukovsky` then runs every blade at once,
    and `quasisolution_correct` each alone.  Maps and potentials are fixed
    at zeta_B, which lands on ``z_start``, where F = 0.  Every solution is
    bit for bit the blade's solve alone, `solve_distribution`; one blade's
    failure raises for the batch.
    """
    corrs = [canonical_map(d.modified(w1)) for d, w1 in blades]
    alphas = [gauge_angle(corr, n) for corr in corrs]
    chis = solve_zhukovsky(corrs, n, alphas)
    out = []
    for (_, w1), corr, alpha, chi0 in zip(blades, corrs, alphas, chis):
        chi, report, zprime = quasisolution_correct(chi0, n)
        out.append(PlanarSolution(corr, n, alpha, chi, report, zprime, complex(z_start),
                                  float(w1)))
    return out


def solve_distribution(d: VelocityDistribution, n: int,
                       z_start: complex = 0.0, w1: float = 0.0) -> PlanarSolution:
    """One blade's solve: `solve_modified` of the batch of one."""
    return solve_modified([(d, w1)], n, z_start)[0]
