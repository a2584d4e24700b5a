"""Assembly of velocity fields polynomial in the transversal coordinate h.

The ansatz::

    u = u0 + h*u1,   v = v0 + h*v1,   w = w0 + h*w1 + h^2*w2

has constant w1 and w2; degree 1 is w2 = 0.  (u1, v1) come from an analytic
f1 = v1 + i*u1 with the constant 2*w2 absorbed through the correction
``(i*w2)*conj(z)``, (u0, v0) from an analytic f0 with w1 absorbed through
``(i*w1/2)*conj(z)``, and w0 = Im int f1 dz, plus a radial term for w2, so
that grad w0 = (u1, v1).

All components live in the closed term algebra of `planefield`, so the
governing continuity and irrotationality residuals can be evaluated with
exact derivatives and cross-checked by central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BladekitError
from .geometry import Point2
from .harmonic import AnalyticSeries
from .planefield import (
    ComplexPlaneField,
    ScalarPlaneField,
    SeriesSource,
    imag_part,
    real_part,
)

FD_STEP = 1e-4


def _as_complex_field(f) -> ComplexPlaneField:
    if isinstance(f, ComplexPlaneField):
        return f
    if isinstance(f, AnalyticSeries):
        return ComplexPlaneField.from_series(f)
    raise BladekitError(f"expected a series or complex field, got {type(f)!r}")


@dataclass(frozen=True)
class GridSpec:
    """Evaluation box and node counts for residual reports."""

    x0: float = -1.0
    x1: float = 1.0
    y0: float = -1.0
    y1: float = 1.0
    h0: float = 0.0
    h1: float = 1.0
    nx: int = 21
    ny: int = 21
    nh: int = 5

    def plane_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.linspace(self.x0, self.x1, self.nx)
        y = np.linspace(self.y0, self.y1, self.ny)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        return gx.ravel(), gy.ravel()

    def h_nodes(self) -> np.ndarray:
        return np.linspace(self.h0, self.h1, self.nh)

    def to_json(self) -> dict:
        return {
            "box": [self.x0, self.x1, self.y0, self.y1],
            "h": [self.h0, self.h1],
            "shape": [self.nx, self.ny, self.nh],
        }


@dataclass(frozen=True)
class FieldResiduals:
    """Maximal residuals of the governing system over a grid.

    ``max_div`` and ``max_curl`` use exact derivatives of the term algebra;
    the ``fd_*`` twins repeat the computation with central differences at
    step 1e-4.
    """

    max_div: float
    max_curl: tuple[float, float, float]
    fd_max_div: float
    fd_max_curl: tuple[float, float, float]
    grid: GridSpec

    @property
    def paths_agree(self) -> bool:
        pairs = [(self.max_div, self.fd_max_div)]
        pairs += list(zip(self.max_curl, self.fd_max_curl))
        return all(abs(a - b) < 1e-6 for a, b in pairs)

    def worst(self) -> float:
        return max(self.max_div, *self.max_curl)

    def to_json(self, tolerance: float = 1e-8) -> dict:
        return {
            "max_div": self.max_div,
            "max_curl": list(self.max_curl),
            "fd_max_div": self.fd_max_div,
            "fd_max_curl": list(self.fd_max_curl),
            "grid": self.grid.to_json(),
            "tolerance_pass": bool(self.worst() < tolerance),
        }


def analytic_correction(g, w1: float):
    """Unpack the transversal-constant summand from analytic data g.

    Returns (u0, v0) with ``v0 + i*u0 = g(z) - (i*w1/2)*conj(z)``, which
    satisfies the modified relations ``du0/dx = -dv0/dy - w1`` and
    ``du0/dy = dv0/dx``.

    The factor 1/2 is forced: ``(i*c*w1)*conj(z)`` added to ``v0 + i*u0``
    is analytic exactly when c = 1/2, as the modified-pair residual check
    verifies.
    """
    cf = _as_complex_field(g) + ComplexPlaneField.zbar_multiple(-0.5j * w1)
    return imag_part(cf), real_part(cf)


def compute_w0(f1, z_ref: complex, w2: float = 0.0) -> ScalarPlaneField:
    """Harmonic w0 = Im int f1 dz, zeroed at z_ref, so grad w0 = (u1, v1).

    When (u1, v1) carries the 2*w2 shift of a degree-2 field, w0 gains the
    radial term -(w2/2)*(x^2 + y^2), written as Im((-i*w2/2)*conj(z)*z) to
    fit the term algebra.
    """
    w0 = imag_part(_as_complex_field(f1).antiderivative(complex(z_ref)))
    if w2 == 0.0:
        return w0
    zmono = AnalyticSeries(np.array([1.0 + 0.0j]), low=1)
    radial = ComplexPlaneField.from_source(SeriesSource(zmono), coeff=-0.5j * w2, kind="zbar")
    return w0 + imag_part(radial)


def fix_w0_constant(w0: ScalarPlaneField, B: Point2) -> ScalarPlaneField:
    """Shift the free constant so the field vanishes at the branch point."""
    value = float(w0(B.x, B.y))
    return w0.plus_const(-value)


def check_cauchy_riemann(pair, variant: str = "classical", coefficient: float = 0.0,
                         grid: "GridSpec | None" = None) -> tuple[float, float]:
    """Max residuals of ``u_x + v_y + shift`` and ``u_y - v_x`` over the grid.

    ``variant`` selects the shift: classical (0), modified (w1 = coefficient),
    or modified2 (2*w2 with w2 = coefficient).  Fields may be ScalarPlaneField
    objects (exact derivatives) or plain callables (central differences).
    """
    shifts = {"classical": 0.0, "modified": coefficient, "modified2": 2.0 * coefficient}
    if variant not in shifts:
        raise BladekitError(f"unknown variant {variant!r}")
    shift = shifts[variant]
    u, v = pair
    grid = grid or GridSpec()
    x, y = grid.plane_nodes()
    if isinstance(u, ScalarPlaneField) and isinstance(v, ScalarPlaneField):
        ux, uy = u.dx()(x, y), u.dy()(x, y)
        vx, vy = v.dx()(x, y), v.dy()(x, y)
    else:
        ux = (u(x + FD_STEP, y) - u(x - FD_STEP, y)) / (2 * FD_STEP)
        uy = (u(x, y + FD_STEP) - u(x, y - FD_STEP)) / (2 * FD_STEP)
        vx = (v(x + FD_STEP, y) - v(x - FD_STEP, y)) / (2 * FD_STEP)
        vy = (v(x, y + FD_STEP) - v(x, y - FD_STEP)) / (2 * FD_STEP)
    r1 = float(np.max(np.abs(ux + vy + shift)))
    r2 = float(np.max(np.abs(uy - vx)))
    return r1, r2


# -- the assembled field ------------------------------------------------------

@dataclass(frozen=True)
class SplineField:
    """Velocity field polynomial in h with all compatibility relations built in.

    ``u = u0 + h*u1``, ``v = v0 + h*v1`` and ``w = w0 + h*w1 + h^2*w2`` with
    constant w1 and w2; degree 1 is w2 = 0.  ``extra_div`` is the in-plane
    shift a chained section inherits (see `glue_sections`), 0 otherwise:
    (u0, v0) absorb ``w1 + extra_div``, so div = -extra_div everywhere.
    """

    f0: ComplexPlaneField
    f1: ComplexPlaneField
    w1: float
    w2: float
    extra_div: float
    branch_point: Point2
    u0: ScalarPlaneField = dc_field(repr=False)
    v0: ScalarPlaneField = dc_field(repr=False)
    u1: ScalarPlaneField = dc_field(repr=False)
    v1: ScalarPlaneField = dc_field(repr=False)
    w0: ScalarPlaneField = dc_field(repr=False)

    def u(self, x, y, h):
        return self.u0(x, y) + np.asarray(h) * self.u1(x, y)

    def v(self, x, y, h):
        return self.v0(x, y) + np.asarray(h) * self.v1(x, y)

    def w(self, x, y, h):
        h = np.asarray(h)
        return self.w0(x, y) + h * self.w1 + h**2 * self.w2


def assemble(f0, f1, w1: float, B: Point2, w2: float = 0.0,
             extra_div: float = 0.0) -> SplineField:
    """Build the field from the analytic data of its planes.

    ``f0`` (the plane h = 0) and ``f1`` (the h-linear part) are series or
    complex fields.  (u1, v1) are unpacked from f1 with 2*w2, the h-linear
    part of dw/dh, and (u0, v0) from f0 with ``w1 + extra_div``; w0 =
    Im int f1 dz (with the radial term of w2) vanishes at B, which also
    anchors the antiderivative.
    """
    f0_cf = _as_complex_field(f0)
    f1_cf = _as_complex_field(f1)
    u1, v1 = analytic_correction(f1_cf, 2.0 * w2)
    u0, v0 = analytic_correction(f0_cf, w1 + extra_div)
    w0 = fix_w0_constant(compute_w0(f1_cf, complex(B.x, B.y), w2), B)
    return SplineField(f0_cf, f1_cf, float(w1), float(w2), float(extra_div), B,
                       u0=u0, v0=v0, u1=u1, v1=v1, w0=w0)


def field_residuals(field: SplineField, grid: "GridSpec | None" = None) -> FieldResiduals:
    """Residuals of continuity and the three irrotationality relations.

    Exact derivatives come from the term algebra; w1 and w2 are constants,
    so only u0, v0, u1, v1 and w0 are differentiated.  The finite-difference
    pass uses central differences at step 1e-4 in x, y, and h.
    """
    grid = grid or GridSpec()
    x, y = grid.plane_nodes()
    hs = grid.h_nodes()

    def grad(f):
        return f.dx()(x, y), f.dy()(x, y)

    u0_x, u0_y = grad(field.u0)
    u1_x, u1_y = grad(field.u1)
    v0_x, v0_y = grad(field.v0)
    v1_x, v1_y = grad(field.v1)
    w0_x, w0_y = grad(field.w0)

    # du/dh = dw/dx and dv/dh = dw/dy hold at every h or at none
    max_curl = [0.0,
                float(np.max(np.abs(field.u1(x, y) - w0_x))),
                float(np.max(np.abs(field.v1(x, y) - w0_y)))]
    max_div = 0.0
    for h in hs:
        div = u0_x + h * u1_x + v0_y + h * v1_y + field.w1 + 2.0 * h * field.w2
        cxy = u0_y + h * u1_y - v0_x - h * v1_x
        max_div = max(max_div, float(np.max(np.abs(div))))
        max_curl[0] = max(max_curl[0], float(np.max(np.abs(cxy))))

    fd_div, fd_curl = _fd_residuals(field, x, y, hs)
    return FieldResiduals(max_div, tuple(max_curl), fd_div, tuple(fd_curl), grid)


def _fd_residuals(field, x, y, hs):
    e = FD_STEP
    fd_div = 0.0
    fd_curl = [0.0, 0.0, 0.0]
    for h in hs:
        ux = (field.u(x + e, y, h) - field.u(x - e, y, h)) / (2 * e)
        uy = (field.u(x, y + e, h) - field.u(x, y - e, h)) / (2 * e)
        uh = (field.u(x, y, h + e) - field.u(x, y, h - e)) / (2 * e)
        vx = (field.v(x + e, y, h) - field.v(x - e, y, h)) / (2 * e)
        vy = (field.v(x, y + e, h) - field.v(x, y - e, h)) / (2 * e)
        vh = (field.v(x, y, h + e) - field.v(x, y, h - e)) / (2 * e)
        wx = (field.w(x + e, y, h) - field.w(x - e, y, h)) / (2 * e)
        wy = (field.w(x, y + e, h) - field.w(x, y - e, h)) / (2 * e)
        wh = (field.w(x, y, h + e) - field.w(x, y, h - e)) / (2 * e)
        fd_div = max(fd_div, float(np.max(np.abs(ux + vy + wh))))
        fd_curl[0] = max(fd_curl[0], float(np.max(np.abs(uy - vx))))
        fd_curl[1] = max(fd_curl[1], float(np.max(np.abs(uh - wx))))
        fd_curl[2] = max(fd_curl[2], float(np.max(np.abs(vh - wy))))
    return fd_div, fd_curl


def glue_sections(first: SplineField, transversal: "tuple[float, float] | None" = None) -> dict:
    """Chaining data for the section stacked on top of ``first``.

    The new section's lower blade is ``first``'s upper one, so its f0 is that
    blade's completion, whose conj(z) coefficient ``first.w1 + 2*first.w2 +
    first.extra_div`` splits into

    * ``w1_const = first.w1 + first.w2``, the chaining rule: w of ``first``
      at h = 1 over its branch point, where w0 vanishes;
    * ``extra_div = first.w2 + first.extra_div``, the in-plane shift that the
      new w1 does not account for;
    * ``w2`` comes from the optional (w_ref, h_ref) datum through
      ``w(B, h_ref) = h_ref*w1 + h_ref^2*w2`` with w0(B) = 0, and is 0 without it.

    `trace_defect` and `w1_rule_defect` measure how well a section assembled
    from these data continues ``first``.
    """
    w1_const = first.w1 + first.w2
    w2 = 0.0
    if transversal is not None:
        w_ref, h_ref = transversal
        w2 = (w_ref - h_ref * w1_const) / h_ref**2
    return {"w1_const": float(w1_const), "w2": float(w2),
            "extra_div": first.w2 + first.extra_div}


def w1_rule_defect(first: SplineField, w1_const: float) -> float:
    """Distance of ``w1_const`` from w of ``first`` at h = 1 over its branch point."""
    B = first.branch_point
    return abs(w1_const - float(first.w(B.x, B.y, 1.0)))


def trace_defect(first, second, grid: GridSpec) -> tuple[float, float]:
    """Largest |u| and |v| jumps between ``first`` at h = 1 and ``second`` at h = 0.

    Compared by value on the grid's plane nodes, which must lie clear of
    every blade either field is evaluated over.
    """
    x, y = grid.plane_nodes()
    du = np.max(np.abs(second.u(x, y, 0.0) - first.u(x, y, 1.0)))
    dv = np.max(np.abs(second.v(x, y, 0.0) - first.v(x, y, 1.0)))
    return float(du), float(dv)
