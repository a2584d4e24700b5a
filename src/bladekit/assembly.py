"""Assembly of velocity fields polynomial in the transversal coordinate h.

Degree 1 ansatz::

    u = u0 + h*u1,   v = v0 + h*v1,   w = w0 + h*w1

with (u1, v1) a conjugate pair from an analytic f1 = v1 + i*u1, the constant
w1 absorbed into (u0, v0) through the correction ``(i*w1/2)*conj(z)``, and
w0 = Im int f1 dz so that grad w0 = (u1, v1).

Degree 2 adds (u2, v2) from analytic f2 = v2 + i*u2, the constant w2 shifted
into (u1, v1) the same way, the harmonic w1 = 2*Im int f2 dz + c1, and a
particular divergence term so that div(u0, v0) = -w1 pointwise even when w1
is not constant.

All components live in the closed term algebra of `planefield`, so the
governing continuity and irrotationality residuals can be evaluated with
exact derivatives and cross-checked by central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import AnsatzInconsistent, BladekitError, GluingUnsupportedInLinearMode
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


def conjugate_pair(f: AnalyticSeries | ComplexPlaneField) -> tuple[ScalarPlaneField, ScalarPlaneField]:
    """(u, v) with v + i*u = f(z); a classical conjugate pair."""
    cf = _as_complex_field(f)
    return imag_part(cf), real_part(cf)


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


def compute_w1_quadratic(f2, z_ref: complex) -> ScalarPlaneField:
    """Harmonic w1 = 2*Im int f2 dz, zeroed at z_ref, so grad w1 = (2u2, 2v2)."""
    cf = _as_complex_field(f2)
    return imag_part(cf.antiderivative(complex(z_ref)) * 2.0)


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


# -- assembled fields --------------------------------------------------------

@dataclass(frozen=True)
class LinearSplineField:
    """Velocity field linear in h with all compatibility relations built in."""

    f1: ComplexPlaneField
    f0_analytic: ComplexPlaneField
    w1: float
    branch_point: Point2
    u0: ScalarPlaneField = dc_field(repr=False, default=None)
    v0: ScalarPlaneField = dc_field(repr=False, default=None)
    u1: ScalarPlaneField = dc_field(repr=False, default=None)
    v1: ScalarPlaneField = dc_field(repr=False, default=None)
    w0: ScalarPlaneField = dc_field(repr=False, default=None)

    @property
    def degree(self) -> int:
        return 1

    def u(self, x, y, h):
        return self.u0(x, y) + np.asarray(h) * self.u1(x, y)

    def v(self, x, y, h):
        return self.v0(x, y) + np.asarray(h) * self.v1(x, y)

    def w(self, x, y, h):
        return self.w0(x, y) + np.asarray(h) * self.w1

    def w1_field(self) -> ScalarPlaneField:
        return ScalarPlaneField.constant(self.w1)

    def component_fields(self):
        zero = ScalarPlaneField.zero()
        return ((self.u0, self.u1, zero), (self.v0, self.v1, zero),
                (self.w0, self.w1_field(), zero))


@dataclass(frozen=True)
class QuadraticSplineField:
    """Velocity field quadratic in h.

    ``w2`` is constant, ``w1`` is harmonic plus the constant ``w1_const``
    (anchored so that w1(branch_point) = w1_const), and (u0, v0) carry a
    particular divergence part so div(u0, v0) = -w1 - extra_div holds
    pointwise (``extra_div`` is 0 except in chained sections).
    """

    f2: ComplexPlaneField
    f1_analytic: ComplexPlaneField
    f0_analytic: ComplexPlaneField
    w2: float
    w1_const: float
    branch_point: Point2
    u0: ScalarPlaneField = dc_field(repr=False, default=None)
    v0: ScalarPlaneField = dc_field(repr=False, default=None)
    u1: ScalarPlaneField = dc_field(repr=False, default=None)
    v1: ScalarPlaneField = dc_field(repr=False, default=None)
    u2: ScalarPlaneField = dc_field(repr=False, default=None)
    v2: ScalarPlaneField = dc_field(repr=False, default=None)
    w0: ScalarPlaneField = dc_field(repr=False, default=None)
    w1: ScalarPlaneField = dc_field(repr=False, default=None)
    extra_div: float = 0.0

    @property
    def degree(self) -> int:
        return 2

    def u(self, x, y, h):
        h = np.asarray(h)
        return self.u0(x, y) + h * self.u1(x, y) + h**2 * self.u2(x, y)

    def v(self, x, y, h):
        h = np.asarray(h)
        return self.v0(x, y) + h * self.v1(x, y) + h**2 * self.v2(x, y)

    def w(self, x, y, h):
        h = np.asarray(h)
        return self.w0(x, y) + h * self.w1(x, y) + h**2 * self.w2

    def w1_at_branch(self) -> float:
        return float(self.w1(self.branch_point.x, self.branch_point.y))

    def component_fields(self):
        w2f = ScalarPlaneField.constant(self.w2)
        return ((self.u0, self.u1, self.u2), (self.v0, self.v1, self.v2),
                (self.w0, self.w1, w2f))


def assemble_linear(f0a, f1, w1: float, B: Point2) -> LinearSplineField:
    """Build the degree-1 field from its analytic data.

    ``f0a`` and ``f1`` are analytic (series or complex fields); w1 is the
    transversal constant; B anchors both the w0 constant and the
    antiderivative defining w0.
    """
    f1_cf = _as_complex_field(f1)
    f0_cf = _as_complex_field(f0a)
    u1, v1 = conjugate_pair(f1_cf)
    u0, v0 = analytic_correction(f0_cf, w1)
    w0 = fix_w0_constant(compute_w0(f1_cf, complex(B.x, B.y)), B)
    return LinearSplineField(f1_cf, f0_cf, float(w1), B,
                             u0=u0, v0=v0, u1=u1, v1=v1, w0=w0)


def assemble_quadratic(f0a, f1a, f2, w2: float, B: Point2,
                       w1_const: float = 0.0, extra_div: float = 0.0) -> QuadraticSplineField:
    """Build the degree-2 field from its analytic data.

    ``f1a`` is adjusted by the constant 2*w2 shift; ``f0a`` is adjusted by
    the full harmonic w1 = 2*Im int f2 dz + w1_const, whose non-constant part
    requires the particular solution

        u0 - i*v0  +=  (i/4)*W(z)*conj(z) + i*conj(G(z)),
        W = 2*int f2 dz,  G = -(1/4)*int W dz,

    all antiderivatives anchored at B.  With f2 = 0 and w2 = 0 this reduces
    exactly to `assemble_linear`.

    ``extra_div`` is the in-plane shift a chained section inherits (see
    `glue_sections`): (u0, v0) are unpacked with ``w1_const + extra_div`` so
    that they continue the previous section's trace, while w1 keeps
    ``w1_const``.  The field then carries a constant continuity defect of
    size ``extra_div``.
    """
    f2_cf = _as_complex_field(f2)
    f1_cf = _as_complex_field(f1a)
    f0_cf = _as_complex_field(f0a)
    zb = complex(B.x, B.y)

    u2, v2 = conjugate_pair(f2_cf)
    u1, v1 = analytic_correction(f1_cf, 2.0 * w2)
    u0, v0 = analytic_correction(f0_cf, w1_const + extra_div)
    w1_field = compute_w1_quadratic(f2_cf, zb).plus_const(w1_const)

    has_f2 = any(
        t.coeff != 0 and (not isinstance(t.source, SeriesSource)
                          or np.any(t.source.series.coefficients != 0))
        for t in f2_cf.terms
    )
    if has_f2:
        w_int = w1_field.complex_field                # W, Im W vanishes at B
        for term in w_int.terms:
            if term.kind == "log":
                raise AnsatzInconsistent(
                    "f2 carries circulation; w1 would be multivalued"
                )
        g_int = w_int.antiderivative(zb) * (-0.25)    # G
        particular = ComplexPlaneField(tuple(
            # (i/4) * W * zbar
            type(t)(t.coeff * 0.25j, "zbar", t.source) for t in w_int.terms
        )) + ComplexPlaneField(tuple(
            # i * conj(G); conj flips the stored coefficient outside
            type(t)(1.0j * np.conj(t.coeff), "conj", t.source) for t in g_int.terms
        ))
        u0 = u0 + real_part(particular)               # particular = u0 - i*v0
        v0 = v0 + imag_part(particular * (-1.0))

    w0 = fix_w0_constant(compute_w0(f1_cf, zb, w2), B)
    return QuadraticSplineField(f2_cf, f1_cf, f0_cf, float(w2), float(w1_const), B,
                                u0=u0, v0=v0, u1=u1, v1=v1, u2=u2, v2=v2,
                                w0=w0, w1=w1_field, extra_div=float(extra_div))


def field_residuals(field, grid: "GridSpec | None" = None) -> FieldResiduals:
    """Residuals of continuity and the three irrotationality relations.

    Exact derivatives come from the term algebra; the finite-difference pass
    uses central differences at step 1e-4 in x, y, and h.
    """
    grid = grid or GridSpec()
    x, y = grid.plane_nodes()
    hs = grid.h_nodes()
    (u0, u1, u2), (v0, v1, v2), (w0, w1f, w2f) = field.component_fields()

    def on_grid(f):
        return f(x, y)

    vals = {name: on_grid(f) for name, f in [
        ("u0", u0), ("u1", u1), ("u2", u2), ("v0", v0), ("v1", v1), ("v2", v2),
        ("w1", w1f), ("w2", w2f),
    ]}
    d = {}
    for name, f in [("u0", u0), ("u1", u1), ("u2", u2),
                    ("v0", v0), ("v1", v1), ("v2", v2),
                    ("w0", w0), ("w1", w1f), ("w2", w2f)]:
        d[name + "_x"] = on_grid(f.dx())
        d[name + "_y"] = on_grid(f.dy())

    max_div = 0.0
    max_curl = [0.0, 0.0, 0.0]
    for h in hs:
        div = (d["u0_x"] + h * d["u1_x"] + h**2 * d["u2_x"]
               + d["v0_y"] + h * d["v1_y"] + h**2 * d["v2_y"]
               + vals["w1"] + 2.0 * h * vals["w2"])
        cxy = (d["u0_y"] + h * d["u1_y"] + h**2 * d["u2_y"]
               - d["v0_x"] - h * d["v1_x"] - h**2 * d["v2_x"])
        cuh = (vals["u1"] + 2.0 * h * vals["u2"]
               - d["w0_x"] - h * d["w1_x"] - h**2 * d["w2_x"])
        cvh = (vals["v1"] + 2.0 * h * vals["v2"]
               - d["w0_y"] - h * d["w1_y"] - h**2 * d["w2_y"])
        max_div = max(max_div, float(np.max(np.abs(div))))
        max_curl[0] = max(max_curl[0], float(np.max(np.abs(cxy))))
        max_curl[1] = max(max_curl[1], float(np.max(np.abs(cuh))))
        max_curl[2] = max(max_curl[2], float(np.max(np.abs(cvh))))

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


def glue_sections(first, contours, transversal: "tuple[float, float] | None" = None) -> dict:
    """Chaining data for the section stacked on top of a finished quadratic one.

    The new section's lower plane continues ``first`` at h = 1.  With f2 = 0
    that trace is the analytic ``f0 = first.f0_analytic + first.f1_analytic``
    unpacked with ``w1_const + extra_div``:

    * ``w1_const`` follows the chaining rule ``w1(branch) + w2`` of ``first``;
    * ``extra_div`` (the in-plane shift) is ``first.w2 + first.extra_div``, the
      part of the trace's conj(z) coefficient the new w1 does not account for;
    * ``w2`` comes from the optional (w_ref, h_ref) datum through
      ``w(B, h_ref) = h_ref*w1 + h_ref^2*w2`` with w0(B) = 0, and is 0 without it;
    * ``contours`` lists every blade ``first`` is evaluated clear of; the new
      residual box must clear them too, since ``f0`` carries their pullbacks.

    `trace_defect` measures how well a section assembled from these data
    continues ``first``.  Degree-1 fields cannot be chained: adjacent
    sections simply share no information.
    """
    if getattr(first, "degree", 1) != 2:
        raise GluingUnsupportedInLinearMode("degree-1 fields do not glue")
    w1_const = first.w1_at_branch() + first.w2
    w2 = 0.0
    if transversal is not None:
        w_ref, h_ref = transversal
        w2 = (w_ref - h_ref * w1_const) / h_ref**2
    return {"w1_const": float(w1_const), "w2": float(w2),
            "f0": first.f0_analytic + first.f1_analytic,
            "extra_div": first.w2 + first.extra_div,
            "contours": list(contours)}


def trace_defect(first, second, grid: GridSpec) -> tuple[float, float]:
    """Largest |u| and |v| jumps between ``first`` at h = 1 and ``second`` at h = 0.

    Compared by value on the grid's plane nodes, which must lie clear of
    every blade either field is evaluated over.
    """
    x, y = grid.plane_nodes()
    du = np.max(np.abs(second.u(x, y, 0.0) - first.u(x, y, 1.0)))
    dv = np.max(np.abs(second.v(x, y, 0.0) - first.v(x, y, 1.0)))
    return float(du), float(dv)
