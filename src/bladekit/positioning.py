"""Mutual placement of adjacent blade contours.

`position` is the one entry point: it places two contours by one of
`METHODS`, for the design pipeline and for ``blade position`` alike.

A shift (dx, dy) always means the displacement of the second contour's
nodes relative to the first: the least-squares optimum is the mean of the
nodewise differences.  The ruled-strip objective is evaluated between the
first contour moved by the shift and the second contour, which keeps its
minimizer in the same convention (for congruent contours both optima are
the translation between them).

The strip spans the field's blade planes, h = 0 and h = 1.  Its area is a
convex sum of Euclidean norms: with the upper contour translated by t,
twice a triangle's area is ``hypot(a_i, b_i + n_i . t)`` (``_strip_terms``),
smooth as every ``a_i > 0``.  Since
``hypot(a, r) >= a sqrt(1 - w^2) + r w`` for ``|w| <= 1``, any w with
``sum w_i n_i = 0`` gives the lower bound ``sum (a_i sqrt(1 - w_i^2) +
b_i w_i) / 2`` on the minimum, whose gap to the area certifies it (Andersen,
Christiansen, Conn & Overton, SIAM J. Sci. Comput. 22(1), 2000).

The lift score is a difference of two convex sums, so its maximum over a
box is found by DC branch and bound (Horst & Thoai, "DC programming:
overview", JOTA 103, 1999) to a stated tolerance.  A cell's bound replaces
the subtracted sum by its least tangent plane at the five points the cell
evaluates, each below that sum by convexity; see ``maximize_lift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BladekitError, CountMismatch, OptimizerFailed
from .geometry import Contour

METHODS = ("lsq", "area", "lift")    # the first is the default
LIFT_RTOL = 1e-12       # lift maximum, relative to sum|w_i| * max_i |d_i + s|
AREA_RTOL = 1e-13       # strip-area duality gap, relative to the area
_AREA_STEPS = 50        # Newton steps before the area minimum counts as failed
_HALVINGS = 40          # step halvings before a Newton step counts as failed
_MAX_CELLS = 256        # live branch-and-bound cells kept per level
_CHUNK = 1024 * 284     # largest temporary of the lift evaluation, in floats


@dataclass(frozen=True)
class ShiftVector:
    dx: float
    dy: float
    objective: float
    method: str

    def __post_init__(self):
        if not (np.isfinite(self.dx) and np.isfinite(self.dy) and np.isfinite(self.objective)):
            raise BladekitError("shift must be finite")
        if self.method not in METHODS:
            raise BladekitError(f"unknown method {self.method!r}")

    def to_json(self) -> dict:
        return {"dx": self.dx, "dy": self.dy, "objective": self.objective,
                "method": self.method}


@dataclass(frozen=True)
class NodePartition:
    """Split of the node range into lower (1..k) and upper (k+1..n) surfaces."""

    k: int
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        v1 = np.asarray(self.v1, dtype=float)
        v2 = np.asarray(self.v2, dtype=float)
        if len(v1) != len(v2):
            raise CountMismatch("velocity arrays differ in length")
        if not 1 <= self.k < len(v1):
            raise BladekitError(f"partition index {self.k} out of range")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


def _check_counts(c1: Contour, c2: Contour):
    if len(c1) != len(c2):
        raise CountMismatch(f"contours have {len(c1)} and {len(c2)} nodes")


def lsq_objective(c1: Contour, c2: Contour, shift) -> float:
    """Sum over nodes of ``(x1 - x2 + dx)^2 + (y1 - y2 + dy)^2``."""
    _check_counts(c1, c2)
    d = c1.points - c2.points + np.asarray(shift, dtype=float)
    return float(np.sum(d * d))


def least_squares_shift(c1: Contour, c2: Contour) -> ShiftVector:
    """Closed-form minimizer: the mean of the nodewise differences c2 - c1."""
    _check_counts(c1, c2)
    delta = np.mean(c2.points - c1.points, axis=0)
    dx, dy = float(delta[0]), float(delta[1])
    return ShiftVector(dx, dy, lsq_objective(c1, c2, (dx, dy)), "lsq")


def _strip_terms(lower: Contour, upper: Contour):
    """``(a, b, n)``: the strip between ``lower`` in the plane h = 0 and ``upper``
    in h = 1 splits into 2n triangles, (lower i, lower i+1, upper i) and
    (upper i, upper i+1, lower i+1) with indices modulo n, and twice triangle
    i's area with the upper contour moved by t is ``hypot(a_i, b_i + n_i . t)``.
    Its edge e_i inside one contour stays put, so with ``n_i = (-e_iy, e_ix)``
    its cross product is ``(n_i, n_i . (d_i + t))`` up to signs, d_i running
    from the lower node to the upper: ``up_i - lo_i`` in the first triangles,
    ``up_i - lo_{i+1}`` in the second.  Each has height 1, so ``a_i = |e_i|``:
    `assembly` puts the section's blade planes at h = 0 and h = 1 and sums
    ``u_x + v_y + w_h``, so h is in the contours' length unit, 1 apart.
    """
    _check_counts(lower, upper)
    lo, up = lower.points, upper.points
    lo_next = np.roll(lo, -1, axis=0)
    e = np.concatenate([lo_next - lo, np.roll(up, -1, axis=0) - up])
    d = np.concatenate([up - lo, up - lo_next])
    n = np.column_stack([-e[:, 1], e[:, 0]])
    return np.hypot(*e.T), np.einsum("ij,ij->i", n, d), n


def area_objective(c1: Contour, c2: Contour, shift) -> float:
    """Ruled-strip area between c1 moved by the shift and c2, one unit apart."""
    a, b, n = _strip_terms(c1, c2)
    # moving the lower contour by s equals moving the upper one by -s
    return 0.5 * float(np.hypot(a, b + n @ -np.asarray(shift, dtype=float)).sum())


def minimize_area_shift(c1: Contour, c2: Contour) -> ShiftVector:
    """Damped Newton on the strip area from the least-squares shift, returned
    once the duality gap is at most ``AREA_RTOL`` of the area.

    The step solves ``H p = -g`` by least squares, so contours whose edge
    normals do not span the plane take the minimum-norm step.  The dual point
    is ``v = r / hypot(a, r)``, ``r = b + n t``, projected onto
    ``sum w_i n_i = 0`` and scaled into [-1, 1]: at the minimum it is v.

    The planes are one unit apart.  Between planes s apart the area is
    ``s**2`` times that of ``c1 / s, c2 / s`` and the optimal shift s times
    theirs, so such a caller divides the coordinates by s.
    """
    a, b, n = _strip_terms(c1, c2)
    lsq = least_squares_shift(c1, c2)
    t = -np.array([lsq.dx, lsq.dy])
    project = np.linalg.pinv(n.T @ n)
    r = b + n @ t
    rho = np.hypot(a, r)
    area = 0.5 * float(rho.sum())
    for steps in range(_AREA_STEPS + 1):
        v = r / rho
        w = v - n @ (project @ (n.T @ v))       # sum w_i n_i = 0 ...
        w /= max(1.0, float(np.abs(w).max()))   # ... and |w_i| <= 1: a dual point
        gap = area - 0.5 * float(a @ np.sqrt((1.0 - w) * (1.0 + w)) + b @ w)
        if gap <= AREA_RTOL * area:
            return ShiftVector(-float(t[0]), -float(t[1]), area, "area")
        if steps == _AREA_STEPS:
            break
        g = 0.5 * n.T @ v
        p = np.linalg.lstsq(0.5 * (n.T * (a * a / rho**3)) @ n, -g, rcond=None)[0]
        for halvings in range(_HALVINGS):
            step = 0.5**halvings
            trial_r = b + n @ (t + step * p)
            trial_rho = np.hypot(a, trial_r)
            trial = 0.5 * float(trial_rho.sum())
            if trial <= area + 1e-4 * step * float(g @ p):     # Armijo
                t, r, rho, area = t + step * p, trial_r, trial_rho, trial
                break
        else:
            break
    raise OptimizerFailed(f"strip area {area:.17g} not certified after {steps} Newton "
                          f"steps: duality gap {gap:.3g}")


def _lift_terms(c1: Contour, c2: Contour, p: NodePartition):
    """Nodewise offsets ``d = c1 - c2`` and signed speed sums ``w`` of the lift score."""
    _check_counts(c1, c2)
    if len(p.v1) != len(c1):
        raise CountMismatch("partition length does not match the contours")
    w = np.where(np.arange(len(c1)) < p.k, 1.0, -1.0) * (p.v1 + p.v2)
    return c1.points - c2.points, w


def _distance_sums(d: np.ndarray, weights: np.ndarray, shifts: np.ndarray) -> list:
    """Per row s of ``shifts``: ``|d_i + s| @ weights`` and its x and y derivatives."""
    rows = max(1, _CHUNK // len(d))     # no temporary holds more than _CHUNK floats
    out = []
    for j in range(0, len(shifts), rows):
        ex, ey = d[:, 0] + shifts[j:j + rows, :1], d[:, 1] + shifts[j:j + rows, 1:]
        r = np.hypot(ex, ey)
        # 0 where r = 0 is a subgradient; 1 / r would overflow at a subnormal r
        ux, uy = (np.divide(e, r, out=np.zeros_like(r), where=r > 0) for e in (ex, ey))
        out.append((r @ weights, ux @ weights, uy @ weights))
    return [np.concatenate(col) for col in zip(*out)]


def lift_score(c1: Contour, c2: Contour, p: NodePartition, shift) -> float:
    """``F(s) = sum_i w_i |d_i + s|``, ``d = c1 - c2``, ``w = v1 + v2`` negated on
    the upper surface: lower nodes push up, upper pull down."""
    d, w = _lift_terms(c1, c2, p)
    s = np.asarray(shift, dtype=float).reshape(1, 2)
    return float(_distance_sums(d, w[:, None], s)[0][0, 0])


def maximize_lift(c1: Contour, c2: Contour, p: NodePartition, box) -> ShiftVector:
    """Maximum of ``lift_score`` over the box (F is unbounded on the plane).

    Cells keep their exact endpoints and split at their midpoints.  With
    ``F = P - N`` over the positive and the negative weights and ``T_q`` the
    tangent plane of N at q, a cell's bound is ``min over q of max over
    corners of (P - T_q)``, q its centre or a corner.  N is convex, so
    ``T_q <= N`` (where ``d_i + q = 0`` the zero gradient is a subgradient
    of ``|.|``) and ``F <= P - T_q``, a convex function and so largest at a
    corner.  At q itself ``P - T_q`` is F(q), so a maximum on a corner of
    the box is certified after few splits.  At the centre the bound is at
    most ``F(centre) + sum|w_i| * half-diagonal``.  With ``tol =
    LIFT_RTOL * sum|w_i| * max_i |d_i + s|`` over the box corners, cells
    bounded by the best value + tol/2 are dropped, so the floor is a
    half-diagonal of ``tol / (2 sum|w_i|)``.  Tie rule: the smallest-norm
    evaluated point within tol/2 of the best, the box point nearest the
    origin included; it is within tol of the maximum.  Not certified: cells
    whose midpoint rounds onto an endpoint, and levels over ``_MAX_CELLS``
    cells (F flat to tol on a region), which keep the cells of highest bound.
    """
    d, w = _lift_terms(c1, c2, p)
    x0, y0, x1, y1 = map(float, box)
    if not (np.isfinite((x0, y0, x1, y1)).all() and x1 > x0 and y1 > y0):
        raise BladekitError("shift box must be finite with positive extent")
    pn = np.column_stack([np.maximum(w, 0.0), np.maximum(-w, 0.0)])
    lip = float(np.abs(w).sum())
    reach = np.hypot(d[:, :1] + [x0, x1, x0, x1], d[:, 1:] + [y0, y0, y1, y1]).max()
    eps = 0.5 * LIFT_RTOL * lip * reach         # tol/2; lip * reach bounds |F| on the box
    pts = [np.array([[min(max(0.0, x0), x1), min(max(0.0, y0), y1)]])]
    vals = [_distance_sums(d, pn, pts[0])[0] @ (1.0, -1.0)]
    best = float(vals[0][0])
    cells = np.array([[x0, x1, y0, y1]])
    while len(cells):
        cx0, cx1, cy0, cy1 = cells.T
        mx, my = 0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1)
        xs = np.column_stack([mx, cx0, cx1, cx0, cx1])      # centre, then corners
        ys = np.column_stack([my, cy0, cy0, cy1, cy1])
        pts.append(np.column_stack([xs.ravel(), ys.ravel()]))
        pnv, gx, gy = (a.reshape(len(cells), 5, 2) for a in _distance_sums(d, pn, pts[-1]))
        vals.append((pnv @ (1.0, -1.0)).ravel())
        best = max(best, float(vals[-1].max()))
        # tangent[c, q, k]: N's tangent plane at point q of cell c, at its corner k
        tangent = (pnv[..., 1, None] + gx[..., 1, None] * (xs[:, None, 1:] - xs[..., None])
                   + gy[..., 1, None] * (ys[:, None, 1:] - ys[..., None]))
        bound = (pnv[:, None, 1:, 0] - tangent).max(axis=2).min(axis=1)
        alive = (bound > best + eps) & (cx0 < mx) & (mx < cx1) & (cy0 < my) & (my < cy1)
        alive[np.argsort(np.where(alive, -bound, np.inf), kind="stable")[_MAX_CELLS:]] = False
        ends = np.column_stack([cx0, mx, cx1, cy0, my, cy1])[alive]
        cells = np.concatenate([ends[:, [i, i + 1, j, j + 1]] for j in (3, 4) for i in (0, 1)])
    pts, vals = np.concatenate(pts), np.concatenate(vals)
    norms = np.where(vals >= best - eps, np.hypot(*pts.T), np.inf)
    dx, dy = (float(v) for v in pts[np.argmin(norms)])
    return ShiftVector(dx, dy, lift_score(c1, c2, p, (dx, dy)), "lift")


def position(c1: Contour, c2: Contour, method: str,
             lift_inputs: Callable[[], tuple[tuple, NodePartition]]) -> ShiftVector:
    """Shift of c2 relative to c1 by ``method``, one of `METHODS`.

    ``lift_inputs()`` returns the box and node partition of the lift method
    and is called for it alone, so callers derive node speeds, or refuse
    their absence, only when lift needs them.  A floating-point overflow,
    invalid operation or division by zero is refused, naming the method,
    instead of being carried into the shift.
    """
    if method not in METHODS:
        raise BladekitError(f"unknown method {method!r}")
    if method == "lift":
        box, partition = lift_inputs()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if method == "lsq":
                return least_squares_shift(c1, c2)
            if method == "area":
                return minimize_area_shift(c1, c2)
            return maximize_lift(c1, c2, partition, box)
    except FloatingPointError as exc:
        raise BladekitError(f"{method} positioning: {exc}") from None
