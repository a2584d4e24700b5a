"""Mutual placement of adjacent blade contours.

A shift (dx, dy) always means the displacement of the second contour's
nodes relative to the first: the least-squares optimum is the mean of the
nodewise differences.  The ruled-strip objective is evaluated between the
first contour moved by the shift and the second contour, which keeps its
minimizer in the same convention (for congruent contours both optima are
the translation between them).

The lift score is a difference of two convex sums, so its maximum over a
box is found by DC branch and bound (Horst & Thoai, "DC programming:
overview", JOTA 103, 1999) to a stated tolerance; see ``maximize_lift``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, CountMismatch, OptimizerFailed
from .geometry import Contour, RuledTriangulation, ruled_surface_area

LIFT_RTOL = 1e-12       # lift maximum, relative to sum|w_i| * max_i |d_i + s|
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
        if self.method not in ("lsq", "area", "lift"):
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


def area_objective(c1: Contour, c2: Contour, spacing: float, shift) -> float:
    """Ruled-strip area between c1 moved by the shift and c2."""
    _check_counts(c1, c2)
    tri = RuledTriangulation(c1, c2, spacing)
    # moving the lower contour by s equals moving the upper one by -s
    return ruled_surface_area(tri, -np.asarray(shift, dtype=float))


def minimize_area_shift(c1: Contour, c2: Contour, spacing: float,
                        seed: tuple[float, float]) -> ShiftVector:
    """Direct search on the strip area, seeded at the least-squares optimum."""
    # imported on use: the only scipy call in bladekit, which no default
    # reaches, so `import bladekit` and the other commands load no scipy
    from scipy.optimize import minimize

    tri = RuledTriangulation(c1, c2, spacing)

    def f(s):
        return ruled_surface_area(tri, (-s[0], -s[1]))

    res = minimize(f, np.asarray(seed, dtype=float), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    if not res.success:
        # coarse grid fallback around the seed, then a second local pass
        span = max(c1.perimeter, c2.perimeter) / 8.0
        gx = np.linspace(seed[0] - span, seed[0] + span, 41)
        gy = np.linspace(seed[1] - span, seed[1] + span, 41)
        vals = np.array([[f((x, y)) for y in gy] for x in gx])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        res = minimize(f, np.array([gx[i], gy[j]]), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
        if not res.success:
            raise OptimizerFailed("area minimization did not converge")
    dx, dy = float(res.x[0]), float(res.x[1])
    return ShiftVector(dx, dy, float(res.fun), "area")


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
        inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)   # 0: a subgradient
        out.append((r @ weights, (ex * inv) @ weights, (ey * inv) @ weights))
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
    ``F = P - N`` over the positive and the negative weights, a cell's bound
    is the lesser of ``max over corners of (P - tangent plane of N at the
    centre)`` and ``F(centre) + sum|w_i| * half-diagonal``.  With ``tol =
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
    return ShiftVector(dx, dy, lift_score(c1, c2, p, (dx, dy)), "lift")
