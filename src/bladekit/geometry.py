"""Planar contours, resampling, and contour CSV files."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BladekitError, DegenerateContour

_EDGE_EPS = 1e-14


@dataclass(frozen=True)
class Contour:
    """Ordered planar point list of a closed curve: the last node joins the first."""

    points: np.ndarray

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
    def from_complex(z: np.ndarray) -> "Contour":
        z = np.asarray(z, dtype=complex)
        return Contour(np.column_stack([z.real, z.imag]))

    def __len__(self) -> int:
        return self.points.shape[0]

    def _edge_lengths(self) -> np.ndarray:
        return np.hypot(*(np.roll(self.points, -1, axis=0) - self.points).T)


def resample_uniform(c: Contour, n: int) -> Contour:
    """Resample to n nodes at equal arc-length steps, keeping start and orientation."""
    if n < 3:
        raise BladekitError("need at least 3 points")
    table = np.concatenate([[0.0], np.cumsum(c._edge_lengths())])
    pts = np.vstack([c.points, c.points[:1]])
    targets = table[-1] * np.arange(n) / n
    x = np.interp(targets, table, pts[:, 0])
    y = np.interp(targets, table, pts[:, 1])
    return Contour(np.column_stack([x, y]))


# -- CSV interchange --------------------------------------------------------

def contour_to_csv(c: Contour) -> str:
    """Serialize as ``index,x,y`` rows with shortest round-trip floats."""
    # Python floats from one tolist() format faster than numpy scalars, to the same repr
    return "index,x,y\n" + "".join(
        f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(c.points.tolist()))


def contour_from_csv(text: str) -> tuple[Contour, np.ndarray | None]:
    """Parse ``index,x,y`` rows of finite numbers; a fourth ``v`` column, if present,
    is returned too.  A row with more cells than the header is refused."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise BladekitError("empty contour file")
    header = [h.strip().lower() for h in lines[0][1].split(",")]
    if header[:3] != ["index", "x", "y"]:
        raise BladekitError(f"line {lines[0][0]}: expected header 'index,x,y', "
                            f"got {lines[0][1]!r}")
    width = 4 if len(header) > 3 and header[3] == "v" else 3
    pts, vel = [], []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        try:
            row = [float(cell) for cell in cells[1:width]]
            if not width <= len(cells) <= len(header) or not np.isfinite(row).all():
                raise ValueError
        except ValueError:
            raise BladekitError(f"line {lineno}: expected a {','.join(header[:width])} "
                                f"row of numbers, got {ln!r}") from None
        pts.append(row[:2])
        vel += row[2:]
    contour = Contour(np.asarray(pts))
    return contour, (np.asarray(vel) if width == 4 else None)
