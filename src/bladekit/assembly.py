"""The velocity field of a section: a linear spline in h between two blades.

The blade planes sit at h = 0 and h = 1.  Each plane is given by its
complex potential F, the canonical flow's potential carried through the
blade's map (`inverse.PlanarSolution.potential`); its derivative
``f = F' = v + i*u`` is the analytic completion of the blade's in-plane
velocity.  With ``F_lo``, ``F_up`` the two potentials the field is::

    v + i*u = (1-h)*f_lo(z) + h*f_up(z) - (i/2)*(w1 + 2*w2*h)*conj(z)
    w = Im P(z) - (w2/2)*|z|^2 + h*w1 + h^2*w2,   P = F_up - F_lo

with constant w1 and w2 (degree 1 is w2 = 0); P vanishes at the origin B,
where both blades are pinned, so w(B, 0) = 0.  The conj(z) term absorbs dw/dh,
so the field is divergence free, and grad w = du/dh, dv/dh makes it
irrotational.  Both hold whatever the planes are, so the closed-form
residuals of `field_residuals` are identities of the ansatz that guard only
a hand-built field whose w1 differs from ``absorbed`` (`FieldResiduals`).
The check that measures the planes is the central-difference pass.  Each
blade map is inverted twice, by `planefield.SeriesMap.invert`: once at the
grid nodes, whose plane values the h-differences reuse, and once at the
four point sets shifted in x and y, one array started one first-order step
off the nodes.  Off the circle each map sums only the terms its own tail
bound keeps (`planefield`), and each plane gives its value and slope from
one call, `planefield.Pullback.evaluate`, which sums S and S' one series at
a time.
Each blade plane is a modified planar problem whose conj(z) coefficient is
dw/dh there: w1 on the plane h = 0 and ``w1 + 2*w2`` on h = 1
(`config.SectionConfig.upper_w1`), which is the w1 of a section stacked on
top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planefield import Pullback

FD_STEP = 1e-4
RESIDUAL_TOL_ANALYTIC = 1e-8    # closed-form residuals
RESIDUAL_TOL_FD = 1e-6          # finite-difference residuals
FD_AGREEMENT_TOL = 1e-6         # largest gap between the two
GRID_H = (0.0, 1.0)             # h range of the residual grid: the two blade planes
GRID_SHAPE = (21, 21, 5)        # its node counts in x, y and h


@dataclass(frozen=True)
class GridSpec:
    """Evaluation box of residual reports; the h range and node counts are fixed."""

    x0: float
    x1: float
    y0: float
    y1: float

    def plane_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny, _ = GRID_SHAPE
        gx, gy = np.meshgrid(np.linspace(self.x0, self.x1, nx),
                             np.linspace(self.y0, self.y1, ny), indexing="ij")
        return gx.ravel(), gy.ravel()

    def h_nodes(self) -> np.ndarray:
        return np.linspace(*GRID_H, GRID_SHAPE[2])

    def to_json(self) -> dict:
        return {
            "box": [self.x0, self.x1, self.y0, self.y1],
            "h": list(GRID_H),
            "shape": list(GRID_SHAPE),
        }


@dataclass(frozen=True)
class FieldResiduals:
    """Maximal residuals of the governing system over a grid.

    ``max_div`` and ``max_curl`` are closed-form identities of the ansatz:
    writing ``v + i*u = G(z) + K*conj(z)`` with K imaginary, div is
    ``w1 - absorbed`` and curl_z is ``-2*Re K = 0`` whatever G is, and
    curl_x, curl_y compare f_up - f_lo with P', which is that difference.
    So ``max_div`` guards a hand-built field whose w1 differs from
    ``absorbed`` (``test_changed_w1_breaks_continuity``), and ``max_curl``
    is zero.  The ``fd_*`` twins, central differences at step 1e-4, measure
    the planes.  The figures below are NaN where a residual is, so a NaN
    fails every bound on them.
    """

    max_div: float
    max_curl: tuple[float, float, float]
    fd_max_div: float
    fd_max_curl: tuple[float, float, float]
    grid: GridSpec

    @property
    def fd_agreement(self) -> float:
        """Largest gap between a closed-form residual and its finite-difference twin."""
        return float(np.max(np.abs(np.subtract((self.max_div, *self.max_curl),
                                               (self.fd_max_div, *self.fd_max_curl)))))

    def worst(self) -> float:
        return float(np.max((self.max_div, *self.max_curl)))

    def fd_worst(self) -> float:
        return float(np.max((self.fd_max_div, *self.fd_max_curl)))

    def gates(self) -> tuple:
        """``(name, figure, tolerance)`` of each gated residual check; NaN fails."""
        return (("residual_fd_agreement", self.fd_agreement, FD_AGREEMENT_TOL),
                ("residual_analytic", self.worst(), RESIDUAL_TOL_ANALYTIC),
                ("residual_fd", self.fd_worst(), RESIDUAL_TOL_FD))

    def to_json(self) -> dict:
        return {
            "max_div": self.max_div,
            "max_curl": list(self.max_curl),
            "fd_max_div": self.fd_max_div,
            "fd_max_curl": list(self.fd_max_curl),
            "grid": self.grid.to_json(),
            "tolerance_pass": all(value < tol for _, value, tol in self.gates()),
        }


# -- the assembled field ------------------------------------------------------

@dataclass(frozen=True)
class SplineField:
    """The spline of the module docstring, from the potentials of its planes.

    ``lower`` and ``upper`` are F_lo and F_up, which vanish at B, the
    origin, the blades' common branch point.  ``absorbed`` is w1 as
    assembled, the dw/dh that the conj(z) term absorbs at h = 0, fixed with
    the planes: div = w1 - absorbed (see `FieldResiduals`).
    """

    lower: Pullback
    upper: Pullback
    w1: float
    w2: float
    absorbed: float

    def zetas(self, z, start=(None, None)):
        """``(zeta, z'(zeta))`` of the lower and then of the upper map inverted
        at z, each Newton started from its entry of ``start``."""
        return tuple(plane.map.invert(z, s) for plane, s in zip((self.lower, self.upper), start))

    def planes(self, zetas):
        """Values of f_lo, f_up and P at the points inverted as ``zetas``,
        each plane's F and F' from one `Pullback.evaluate`."""
        (p_lo, f_lo), (p_up, f_up) = (plane.evaluate(*zeta) for plane, zeta
                                      in zip((self.lower, self.upper), zetas))
        return f_lo, f_up, p_up - p_lo

    def spline(self, z, planes, h):
        """``(u, v, w)`` at plane points z and heights h from the plane values there."""
        f_lo, f_up, p = planes
        h = np.asarray(h, dtype=float)
        c = self.absorbed + 2.0 * self.w2 * h
        f = (1.0 - h) * f_lo + h * f_up - 0.5j * c * np.conj(z)
        w = p.imag - 0.5 * self.w2 * (z.real**2 + z.imag**2) + h * self.w1 + h**2 * self.w2
        return f.imag, f.real, w

    def velocity(self, x, y, h):
        """``(u, v, w)`` at plane points (x, y) and heights h; h broadcasts."""
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        return self.spline(z, self.planes(self.zetas(z)), h)


def assemble(lower: Pullback, upper: Pullback, w1: float, w2: float = 0.0) -> SplineField:
    """Build the spline between the planes h = 0 (``lower``) and h = 1 (``upper``).

    Both potentials vanish at B, the origin, where `pipeline.run_section`
    pins both blades' branch points, so ``w(0, h)`` is ``h*w1 + h^2*w2``
    to roundoff.
    """
    return SplineField(lower, upper, float(w1), float(w2), float(w1))


def field_residuals(field: SplineField, grid: GridSpec) -> FieldResiduals:
    """Residuals of continuity and the three irrotationality relations.

    The closed-form figures are `FieldResiduals`' identities, `_fd_residuals` the FD pass.
    """
    fd_div, fd_curl = _fd_residuals(field, grid)
    return FieldResiduals(abs(field.w1 - field.absorbed), (0.0, 0.0, 0.0),
                          fd_div, tuple(fd_curl), grid)


def _fd_residuals(field, grid):
    """Central differences of ``field.spline`` around the grid's nodes.

    Each map inverts the plane nodes z, and the spline is polynomial in h
    over fixed plane values, so the h-differences reuse the planes there.
    The four sets ``z + d``, d = +-e and +-i*e, form one array, which each
    map inverts again from its ``zeta + d/z'(zeta)``.
    """
    x, y = grid.plane_nodes()
    z = x + 1j * y
    zetas = field.zetas(z)
    planes = field.planes(zetas)
    e = FD_STEP
    h = grid.h_nodes()[:, None]
    d = np.array([e, -e, 1j * e, -1j * e])[:, None]
    zs = z + d
    shifted = field.planes(field.zetas(zs, tuple(zeta + d / dz for zeta, dz in zetas)))
    u, v, w = field.spline(zs[:, None], [p[:, None] for p in shifted], h)
    ux, vx, wx = ((a[0] - a[1]) / (2 * e) for a in (u, v, w))
    uy, vy, wy = ((a[2] - a[3]) / (2 * e) for a in (u, v, w))
    uh, vh, wh = ((p - m) / (2 * e) for p, m in zip(field.spline(z, planes, h + e),
                                                    field.spline(z, planes, h - e)))
    fd_div = float(np.max(np.abs(ux + vy + wh)))
    fd_curl = [float(np.max(np.abs(a - b))) for a, b in ((uy, vx), (uh, wx), (vh, wy))]
    return fd_div, fd_curl


def trace_defect(first, second, grid: GridSpec) -> tuple[float, float, float]:
    """Largest |u|, |v| and |w| jumps between ``first`` at h = 1 and ``second`` at h = 0.

    Compared by value on the grid's plane nodes, which must lie clear of
    every blade either field is evaluated over.  The u and v jumps vanish
    for a section whose lower plane is ``first``'s upper one and whose w1 is
    ``first``'s slope ``w1 + 2*w2`` there.  The w jump cannot, so it is
    a measurement, not a gate:

    * its constant part is ``first.w1 + first.w2`` over B, the origin: every
      potential vanishes there, so each section has ``w(B, 0) = 0``, and the
      next section's transversal datum is stated in that w;
    * the rest is fixed by the planes.  Within a section grad w = d(u, v)/dh,
      which jumps across the interface unless the three blade completions
      form an arithmetic progression in h and the two sections share w2.
    """
    x, y = grid.plane_nodes()
    below = first.velocity(x, y, 1.0)
    above = second.velocity(x, y, 0.0)
    return tuple(float(np.max(np.abs(a - b))) for a, b in zip(above, below))
