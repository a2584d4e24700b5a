"""Planar contours, resampling, and contour CSV files."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

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

def float_text(values) -> list[str]:
    """``repr`` of every float of ``values``, row-major.

    orjson's shortest round-trip writer prints the digits ``repr`` prints for
    zero and for 1e-4 <= |x| < 1e16, in a fraction of the time; outside that
    range it writes 0.000012 for 1.2e-05, 1e16 for 1e+16 and null for NaN and
    the infinities, so those entries are formatted by ``repr`` itself.
    """
    flat = np.asarray(values, dtype=float).ravel()
    if not flat.size:
        return []
    texts = orjson.dumps(flat.tolist()).decode()[1:-1].split(",")
    mag = np.abs(flat)
    for k in np.flatnonzero(((mag < 1e-4) & (mag > 0)) | ~(mag < 1e16)).tolist():
        texts[k] = repr(float(flat[k]))
    return texts


def contour_to_csv(c: Contour) -> str:
    """Serialize as ``index,x,y`` rows; each coordinate is written as its
    ``repr``, the shortest text that reads back to the same float."""
    t = float_text(c.points)
    return "index,x,y\n" + "".join(
        [f"{i},{x},{y}\n" for i, x, y in zip(range(len(c)), t[0::2], t[1::2])])


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
            if not width <= len(cells) <= len(header) or not all(map(math.isfinite, row)):
                raise ValueError
        except ValueError:
            raise BladekitError(f"line {lineno}: expected a {','.join(header[:width])} "
                                f"row of numbers, got {ln!r}") from None
        pts.append(row[:2])
        vel += row[2:]
    contour = Contour(np.asarray(pts))
    return contour, (np.asarray(vel) if width == 4 else None)
