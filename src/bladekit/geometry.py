"""Planar contours, resampling, ruled-strip areas, and contour CSV files."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, CountMismatch, DegenerateContour

_EDGE_EPS = 1e-14


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise BladekitError("point coordinates must be finite")


@dataclass(frozen=True)
class Contour:
    """Ordered planar point list; closed contours have an implicit last->first edge."""

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise BladekitError("contour needs an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(pts)):
            raise BladekitError("contour points must be finite")
        object.__setattr__(self, "points", pts)
        if np.any(self._edge_lengths() < _EDGE_EPS):
            raise DegenerateContour("contour has a zero-length edge")

    @staticmethod
    def from_complex(z: np.ndarray, closed: bool = True) -> "Contour":
        z = np.asarray(z, dtype=complex)
        return Contour(np.column_stack([z.real, z.imag]), closed=closed)

    def __len__(self) -> int:
        return self.points.shape[0]

    def _edges(self) -> np.ndarray:
        if self.closed:
            return np.roll(self.points, -1, axis=0) - self.points
        return np.diff(self.points, axis=0)

    def _edge_lengths(self) -> np.ndarray:
        return np.hypot(*self._edges().T)

    @property
    def perimeter(self) -> float:
        return float(self._edge_lengths().sum())


def arc_length_table(c: Contour) -> np.ndarray:
    """Cumulative arc length at each node; entry 0 is 0.

    For closed contours the table has n+1 entries and ends at the perimeter.
    """
    lengths = c._edge_lengths()
    if np.any(lengths < _EDGE_EPS):
        raise DegenerateContour("contour has a zero-length edge")
    return np.concatenate([[0.0], np.cumsum(lengths)])


def resample_uniform(c: Contour, n: int) -> Contour:
    """Resample to n nodes at equal arc-length steps, keeping start and orientation."""
    if n < 3:
        raise BladekitError("need at least 3 points")
    table = arc_length_table(c)
    total = table[-1]
    pts = c.points
    if c.closed:
        pts = np.vstack([pts, pts[:1]])
        targets = total * np.arange(n) / n
    else:
        targets = total * np.arange(n) / (n - 1)
    x = np.interp(targets, table, pts[:, 0])
    y = np.interp(targets, table, pts[:, 1])
    return Contour(np.column_stack([x, y]), closed=c.closed)


@dataclass(frozen=True)
class RuledTriangulation:
    """Strip between two stacked contours, split into the 2n standard triangles.

    Triangle ``D1[i]`` uses (lower i, lower i+1, upper i) and ``D2[i]`` uses
    (upper i, upper i+1, lower i+1); indices wrap modulo n for closed
    contours and the wrap triangles are dropped for open ones.
    """

    lower: Contour
    upper: Contour
    spacing: float

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise CountMismatch(
                f"contours have {len(self.lower)} and {len(self.upper)} nodes"
            )
        if self.lower.closed != self.upper.closed:
            raise BladekitError("contours must be both closed or both open")
        if not 0 < self.spacing < np.inf:
            raise BladekitError("plane spacing must be positive and finite")



def ruled_surface_area(t: RuledTriangulation, shift: tuple[float, float] = (0.0, 0.0)) -> float:
    """Total area of the ruled strip with the upper contour translated by shift.

    Nodes are lifted to the planes h = 0 and h = spacing and each triangle
    area comes from the 3D cross product.
    """
    lo = t.lower.points
    up = t.upper.points + np.asarray(shift, dtype=float)
    n = len(lo)
    nxt = np.roll(np.arange(n), -1)
    if not t.lower.closed:
        keep = np.arange(n - 1)
        nxt = nxt[keep]
        base = np.arange(n - 1)
    else:
        base = np.arange(n)
    h = t.spacing

    def tri_areas(a2, b2, c2, ah, bh, ch):
        ab = np.column_stack([b2 - a2, np.full(len(a2), bh - ah)])
        ac = np.column_stack([c2 - a2, np.full(len(a2), ch - ah)])
        # cross product of (dx, dy, dh) vectors
        cx = ab[:, 1] * ac[:, 2] - ab[:, 2] * ac[:, 1]
        cy = ab[:, 2] * ac[:, 0] - ab[:, 0] * ac[:, 2]
        cz = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
        return 0.5 * np.sqrt(cx**2 + cy**2 + cz**2)

    d1 = tri_areas(lo[base], lo[nxt], up[base], 0.0, 0.0, h)
    d2 = tri_areas(up[base], up[nxt], lo[nxt], h, h, 0.0)
    return float(d1.sum() + d2.sum())


# -- CSV interchange --------------------------------------------------------

def contour_to_csv(c: Contour) -> str:
    """Serialize as ``index,x,y`` rows with shortest round-trip floats."""
    buf = io.StringIO()
    buf.write("index,x,y\n")
    for i, (x, y) in enumerate(c.points):
        buf.write(f"{i},{float(x)!r},{float(y)!r}\n")
    return buf.getvalue()


def contour_from_csv(text: str) -> tuple[Contour, np.ndarray | None]:
    """Parse ``index,x,y`` rows of finite numbers; a fourth ``v`` column, if present,
    is returned too."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise BladekitError("empty contour file")
    header = [h.strip().lower() for h in lines[0][1].split(",")]
    if header[:3] != ["index", "x", "y"]:
        raise BladekitError(f"expected header 'index,x,y', got {lines[0][1]!r}")
    width = 4 if len(header) > 3 and header[3] == "v" else 3
    pts, vel = [], []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        try:
            row = [float(cell) for cell in cells[1:width]]
            if len(cells) < width or not np.isfinite(row).all():
                raise ValueError
        except ValueError:
            raise BladekitError(f"line {lineno}: expected a {','.join(header[:width])} "
                                f"row of numbers, got {ln!r}") from None
        pts.append(row[:2])
        vel += row[2:]
    contour = Contour(np.asarray(pts))
    return contour, (np.asarray(vel) if width == 4 else None)
