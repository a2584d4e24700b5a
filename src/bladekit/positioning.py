"""Mutual placement of adjacent blade contours.

A shift (dx, dy) always means the displacement of the second contour's
nodes relative to the first: the least-squares optimum is the mean of the
nodewise differences.  The ruled-strip objective is evaluated between the
first contour moved by the shift and the second contour, which keeps its
minimizer in the same convention (for congruent contours both optima are
the translation between them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BladekitError, CountMismatch, OptimizerFailed
from .geometry import Contour, Point2, RuledTriangulation, ruled_surface_area


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
    sx, sy = (shift.x, shift.y) if isinstance(shift, Point2) else (float(shift[0]), float(shift[1]))
    d = c1.points - c2.points + np.array([sx, sy])
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
    sx, sy = (shift.x, shift.y) if isinstance(shift, Point2) else (float(shift[0]), float(shift[1]))
    tri = RuledTriangulation(c1, c2, spacing)
    # moving the lower contour by s equals moving the upper one by -s
    return ruled_surface_area(tri, (-sx, -sy))


def minimize_area_shift(c1: Contour, c2: Contour, spacing: float,
                        seed: tuple[float, float]) -> ShiftVector:
    """Direct search on the strip area, seeded at the least-squares optimum."""
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


def verify_statement(c1: Contour, scale: float, spacing: float):
    """Compare the least-squares and strip-area optima for similar contours.

    The second contour is c1 scaled about its centroid, which makes the pair
    similar by construction.  Returns both optima and their distance.
    """
    c2 = c1.scaled_about_centroid(scale)
    lsq = least_squares_shift(c1, c2)
    area = minimize_area_shift(c1, c2, spacing, (lsq.dx, lsq.dy))
    dist = float(np.hypot(lsq.dx - area.dx, lsq.dy - area.dy))
    return lsq, area, dist


def lift_score(c1: Contour, c2: Contour, p: NodePartition, shift) -> float:
    """Signed distance-weighted speed sum: lower nodes push up, upper pull down."""
    _check_counts(c1, c2)
    if len(p.v1) != len(c1):
        raise CountMismatch("partition length does not match the contours")
    sx, sy = (shift.x, shift.y) if isinstance(shift, Point2) else (float(shift[0]), float(shift[1]))
    d = c1.points - c2.points + np.array([sx, sy])
    dist = np.hypot(d[:, 0], d[:, 1])
    weights = p.v1 + p.v2
    sign = np.ones(len(c1))
    sign[p.k:] = -1.0
    return float(np.sum(sign * dist * weights))


def maximize_lift(c1: Contour, c2: Contour, p: NodePartition, box) -> ShiftVector:
    """Grid search over the admissible box, then a bounded local refinement.

    The objective is unbounded on the whole plane, so the box is part of the
    problem statement.  Ties resolve to the smallest-norm maximizer.
    """
    x0, y0, x1, y1 = map(float, box)
    if not (x1 > x0 and y1 > y0):
        raise BladekitError("empty shift box")
    step = np.hypot(x1 - x0, y1 - y0) / 400.0
    gx = np.linspace(x0, x1, int(np.ceil((x1 - x0) / step)) + 1)
    gy = np.linspace(y0, y1, int(np.ceil((y1 - y0) / step)) + 1)

    d = c1.points - c2.points
    weights = p.v1 + p.v2
    sign = np.ones(len(c1))
    sign[p.k:] = -1.0
    w = sign * weights

    best = None
    for x in gx:
        ddx = d[:, 0] + x
        dist = np.sqrt(ddx[:, None] ** 2 + (d[:, 1][:, None] + gy[None, :]) ** 2)
        vals = w @ dist
        j = int(np.argmax(vals))
        cand = (float(vals[j]), float(x), float(gy[j]))
        if best is None or cand[0] > best[0] + 1e-15:
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-15:
            if np.hypot(cand[1], cand[2]) < np.hypot(best[1], best[2]):
                best = cand
    score, bx, by = best

    res = minimize(lambda s: -lift_score(c1, c2, p, (s[0], s[1])),
                   np.array([bx, by]), method="Nelder-Mead",
                   bounds=[(x0, x1), (y0, y1)],
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 1000})
    if res.success and -res.fun >= score:
        fx, fy, fval = float(res.x[0]), float(res.x[1]), float(-res.fun)
    else:
        fx, fy, fval = bx, by, score
    if score == 0.0 and fval == 0.0:
        # identically-zero objective: smallest-norm point of the box
        fx = min(max(0.0, x0), x1)
        fy = min(max(0.0, y0), y1)
        fval = lift_score(c1, c2, p, (fx, fy))
    return ShiftVector(fx, fy, fval, "lift")
