"""End-to-end design flow: per-blade solves, field assembly, chaining, export.

Each section solves two planar inverse problems (one per blade, both as
modified problems with the section's transversal constant), splits the
analytic data between the blade planes at h = 0 and h = 1, builds the
velocity field with `assembly.assemble_linear` (degree 1) or
`assembly.assemble_quadratic` (degree 2, f2 = 0), measures its residuals on
a box clear of every involved blade, and positions the reconstructed
contours.

Degree-1 chains treat sections independently (the shared blade carries no
information across).  A degree-2 section after the first is chained
through `assembly.glue_sections`: it inherits the previous section's trace
at h = 1 and the constant rule ``w1_next = w1(branch) + w2``, which leaves a
constant continuity defect (the in-plane shift) reported as an
informational measurement.  The glue checks compare, at the residual-grid
nodes, the new field at h = 0 with the previous one at h = 1 (``glue_du``,
``glue_dv``) and the new w1 constant with the rule (``glue_w1_rule``).
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from .assembly import (
    FieldResiduals,
    GridSpec,
    assemble_linear,
    assemble_quadratic,
    field_residuals,
    glue_sections,
    trace_defect,
)
from .config import DesignConfig, SectionConfig, TransversalDatum
from .errors import BadValue, BladekitError
from .geometry import Contour, Point2, contour_to_csv
from .inverse import PlanarSolution, solve_distribution
from .planefield import ComplexPlaneField, PullbackSource
from .positioning import (
    NodePartition,
    ShiftVector,
    least_squares_shift,
    maximize_lift,
    minimize_area_shift,
)
from .svgplot import export_svg

log = logging.getLogger("bladekit")

RESIDUAL_TOL_ANALYTIC = 1e-8
RESIDUAL_TOL_FD = 1e-6
CLOSURE_TOL = 1e-10
GLUE_TOL = 1e-10


def determine_w1(section: SectionConfig) -> float:
    """Transversal constant of a section, literal or from a reference datum.

    With w0 normalized to vanish at the branch point, a prescribed
    transversal speed w_ref at height h_ref over that point gives
    ``w1 = w_ref / h_ref`` (degree 1; degree-2 first sections use the same
    rule for the h-linear part).
    """
    if isinstance(section.w1, TransversalDatum):
        return section.w1.w_ref / section.w1.h_ref
    return float(section.w1)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    tolerance: "float | None"
    passed: "bool | None"

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass
class SectionResult:
    id: str
    degree: int
    w1: float
    w2: "float | None"
    lower: PlanarSolution
    upper: PlanarSolution
    field: object
    residuals: FieldResiduals
    shift: ShiftVector
    checks: list = dc_field(default_factory=list)
    glue_info: "dict | None" = None
    contours: list = dc_field(default_factory=list)   # every blade the field is evaluated clear of
    error: "str | None" = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


@dataclass
class RunReport:
    sections: list
    version: str = __version__
    timing_seconds: float = 0.0
    errors: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors and all(s.passed for s in self.sections)

    def to_json(self) -> dict:
        """Artifact form of the report; timing stays out for determinism."""
        return {
            "version": self.version,
            "passed": self.passed,
            "errors": list(self.errors),
            "sections": [
                {
                    "id": s.id,
                    "degree": s.degree,
                    "w1": s.w1,
                    "w2": s.w2,
                    "closure_lower": s.lower.closure.to_json(),
                    "closure_upper": s.upper.closure.to_json(),
                    "residuals": s.residuals.to_json(RESIDUAL_TOL_ANALYTIC),
                    "shift": s.shift.to_json(),
                    "glue": s.glue_info,
                    "checks": [c.to_json() for c in s.checks],
                }
                for s in self.sections
            ],
        }


def _pullback_field(solution: PlanarSolution, coeff: complex = 1.0) -> ComplexPlaneField:
    """Analytic completion of the blade's in-plane velocity, as a plane field."""
    return ComplexPlaneField.from_source(
        PullbackSource(solution.velocity_series, solution.map), coeff=coeff)


def _residual_grid(contours: "list[Contour]") -> GridSpec:
    """Evaluation box to the right of every involved blade."""
    pts = np.vstack([c.points for c in contours])
    x1 = float(pts[:, 0].max())
    diam = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    cy = float(pts[:, 1].mean())
    return GridSpec(x0=x1 + 0.5 * diam, x1=x1 + 1.5 * diam,
                    y0=cy - 0.5 * diam, y1=cy + 0.5 * diam)


def _node_speeds(sol: PlanarSolution) -> np.ndarray:
    """Boundary speed magnitude at the reconstructed contour nodes."""
    from .harmonic import evaluate_series
    gam = 2 * np.pi * np.arange(sol.n) / sol.n
    g = evaluate_series(sol.velocity_series, np.exp(1j * gam))
    return np.abs(g)


def _position(cfg: DesignConfig, sol_lo: PlanarSolution,
              sol_up: PlanarSolution) -> ShiftVector:
    pos = cfg.positioning
    lower, upper = sol_lo.contour, sol_up.contour
    if pos.method == "lsq":
        return least_squares_shift(lower, upper)
    if pos.method == "area":
        seed = least_squares_shift(lower, upper)
        return minimize_area_shift(lower, upper, pos.spacing, (seed.dx, seed.dy))
    k = pos.partition
    if not 1 <= k < len(lower):
        raise BadValue("/positioning/partition", f"partition {k} out of range")
    part = NodePartition(k, _node_speeds(sol_lo), _node_speeds(sol_up))
    return maximize_lift(lower, upper, part, pos.box)


def run_section(cfg: DesignConfig, section: SectionConfig,
                prev: "SectionResult | None" = None) -> SectionResult:
    """Solve, assemble, check and position one section.

    ``prev`` is the finished degree-2 section this one is chained onto; its
    upper blade is this section's lower one.
    """
    n = cfg.n_boundary
    if prev is None:
        glue_info = None
        w1c = determine_w1(section)
        w2 = section.w2 if section.degree == 2 else 0.0
        extra_div = 0.0
        sol_lo = solve_distribution(section.lower, n, z_start=0.0, w1=w1c)
        f0 = _pullback_field(sol_lo, 1.0j)
        involved = [sol_lo.contour]
    else:
        datum = section.w1
        glue = glue_sections(prev.field, prev.contours,
                             (datum.w_ref, datum.h_ref)
                             if isinstance(datum, TransversalDatum) else None)
        w1c, w2, extra_div = glue["w1_const"], glue["w2"], glue["extra_div"]
        glue_info = {"w1_const": w1c, "w2": w2, "extra_div": extra_div}
        sol_lo = prev.upper                   # shared blade, same solve
        f0 = glue["f0"]
        involved = glue["contours"]
    sol_up = solve_distribution(section.upper, n, z_start=0.0,
                                w1=w1c + extra_div + 2.0 * w2)
    involved = involved + [sol_up.contour]

    # the blade planes sit at h = 0 and h = 1: the h-linear data is the
    # difference of the two in-plane completions
    f1 = _pullback_field(sol_up, 1.0j) - f0
    zb = sol_lo.branch_point()
    B = Point2(zb.real, zb.imag)
    if section.degree == 1:
        fld = assemble_linear(f0, f1, w1c, B)
    else:
        fld = assemble_quadratic(f0, f1, ComplexPlaneField(), w2, B,
                                 w1_const=w1c, extra_div=extra_div)
    grid = _residual_grid(involved)
    residuals = field_residuals(fld, grid)
    shift = _position(cfg, sol_lo, sol_up)

    checks = [
        CheckEntry("closure_lower", abs(sol_lo.closure.closure_defect), CLOSURE_TOL,
                   abs(sol_lo.closure.closure_defect) < CLOSURE_TOL),
        CheckEntry("vinf_lower", abs(sol_lo.closure.vinf_defect), CLOSURE_TOL,
                   abs(sol_lo.closure.vinf_defect) < CLOSURE_TOL),
        CheckEntry("closure_upper", abs(sol_up.closure.closure_defect), CLOSURE_TOL,
                   abs(sol_up.closure.closure_defect) < CLOSURE_TOL),
        CheckEntry("vinf_upper", abs(sol_up.closure.vinf_defect), CLOSURE_TOL,
                   abs(sol_up.closure.vinf_defect) < CLOSURE_TOL),
        CheckEntry("residual_fd_agreement",
                   max(abs(residuals.max_div - residuals.fd_max_div),
                       max(abs(a - b) for a, b in
                           zip(residuals.max_curl, residuals.fd_max_curl))),
                   1e-6, residuals.paths_agree),
    ]
    if prev is None:
        checks.append(CheckEntry("residual_analytic", residuals.worst(),
                                 RESIDUAL_TOL_ANALYTIC,
                                 residuals.worst() < RESIDUAL_TOL_ANALYTIC))
        checks.append(CheckEntry("residual_fd", residuals.fd_max_div,
                                 RESIDUAL_TOL_FD,
                                 max(residuals.fd_max_div, *residuals.fd_max_curl)
                                 < RESIDUAL_TOL_FD))
    else:
        # the chaining rule is value-exact on the blade but leaves a known
        # constant continuity excess; record the measurement without a verdict
        checks.append(CheckEntry("residual_analytic_glued", residuals.worst(),
                                 None, None))
        du, dv = trace_defect(prev.field, fld, grid)
        checks.append(CheckEntry("glue_du", du, GLUE_TOL, du < GLUE_TOL))
        checks.append(CheckEntry("glue_dv", dv, GLUE_TOL, dv < GLUE_TOL))
        rule = prev.field.w1_at_branch() + prev.field.w2
        checks.append(CheckEntry("glue_w1_rule", abs(w1c - rule), 0.0, w1c == rule))

    return SectionResult(section.id, section.degree, w1c,
                         w2 if section.degree == 2 else None,
                         sol_lo, sol_up, fld, residuals, shift, checks,
                         glue_info, involved)


def run_pipeline(cfg: DesignConfig) -> RunReport:
    """Run every section; failures are isolated and reported per section."""
    t0 = time.perf_counter()
    results = []
    errors = []
    prev: "SectionResult | None" = None
    for idx, section in enumerate(cfg.sections):
        try:
            if section.degree == 2 and idx > 0:
                if prev is None:
                    raise BladekitError("cannot chain onto a failed section")
                res = run_section(cfg, section, prev=prev)
            else:
                res = run_section(cfg, section)
            results.append(res)
            prev = res if section.degree == 2 else None
        except BladekitError as exc:
            log.error("section %s failed: %s", section.id, exc)
            errors.append(f"{section.id}: {exc}")
            prev = None
    report = RunReport(results, errors=errors)
    report.timing_seconds = time.perf_counter() - t0
    return report


# -- artifact writing ---------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_artifacts(cfg: DesignConfig, report: RunReport, out_dir: str) -> list:
    """Write per-section CSV/JSON/SVG artifacts plus the global report."""
    written = []
    os.makedirs(out_dir, exist_ok=True)
    formats = cfg.output.formats
    for res in report.sections:
        sdir = os.path.join(out_dir, res.id)
        os.makedirs(sdir, exist_ok=True)
        if "csv" in formats:
            for name, contour in (("lower", res.lower.contour),
                                  ("upper", res.upper.contour)):
                path = os.path.join(sdir, f"{name}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(contour_to_csv(contour))
                written.append(path)
        if "json" in formats:
            path = os.path.join(sdir, "shift.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_json_text(res.shift.to_json()))
            written.append(path)
            path = os.path.join(sdir, "residuals.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_json_text(res.residuals.to_json(RESIDUAL_TOL_ANALYTIC)))
            written.append(path)
        if "svg" in formats:
            path = os.path.join(sdir, "section.svg")
            export_svg([res.lower.contour, res.upper.contour], path,
                       shifts=[(0.0, 0.0), (res.shift.dx, res.shift.dy)])
            written.append(path)
    if "json" in formats:
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_text(report.to_json()))
        written.append(path)
    return written
