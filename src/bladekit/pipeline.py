"""End-to-end design flow: per-blade solves, field assembly, chaining, export.

Each section solves two planar inverse problems (one per blade, both as
modified problems with the section's transversal constants) and builds its
velocity field with `assembly.assemble` from the two blades' complex
potentials: the lower blade is the plane h = 0, the upper blade the plane
h = 1.  It then measures the field's residuals on a box clear of every
blade the field is evaluated over, and positions the reconstructed
contours.  The lift reads each contour's node speeds as |F'| of the
field's own plane there, so every figure reads one flow per blade.

Degree-1 chains treat sections independently (the shared blade carries no
information across).  A degree-2 section after the first is chained onto
the previous one: its lower blade is the previous upper blade (the same
solve).  The shared blade was solved with the previous field's slope dw/dh
at h = 1 as its conj(z) coefficient; that slope is the new w1, resolved
with w2 by `config.parse_config_dict`, so every section is a solution of
the field equations and carries the same gated residual checks.  Chained
sections add the glue checks: ``glue_du`` and ``glue_dv`` compare the new
field at h = 0 with the previous one at h = 1 at the residual-grid nodes,
``glue_w1_rule`` the new field's conj(z) coefficient with the w1 the
shared blade was solved with, and ``glue_dw`` measures the w jump without
a verdict (see `assembly.trace_defect`).

On a parsed config only ``closure_*`` and ``residual_fd`` can fail, and
``residual_fd_agreement``, which equals ``residual_fd``'s figure whenever
w1 is the ``absorbed`` of the assembly.  The rest are identities that guard
hand-built `SplineField` and `SectionConfig` objects: ``vinf_*`` (the
quasisolution sets ``lam0 = -Re c0``), ``residual_analytic``
(``|w1 - absorbed|``) and ``glue_du``/``glue_dv``/``glue_w1_rule``, whose
negative control is ``test_zero_shift_breaks_the_glue``.  ``glue_dw`` is
ungated.
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
    SplineField,
    assemble,
    field_residuals,
    trace_defect,
)
from .config import DesignConfig, SectionConfig
from .errors import BladekitError
from .geometry import Contour, contour_to_csv
from .harmonic import boundary_values
from .inverse import PlanarSolution, solve_distribution
from .positioning import NodePartition, ShiftVector, position
from .svgplot import render_svg

log = logging.getLogger("bladekit")

CLOSURE_TOL = 1e-10
GLUE_TOL = 1e-10


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    tolerance: "float | None"
    passed: "bool | None"

    @classmethod
    def gate(cls, name: str, value: float, tolerance: float) -> "CheckEntry":
        """A check that passes when ``value < tolerance``; NaN fails."""
        return cls(name, value, tolerance, value < tolerance)

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass
class SectionResult:
    """One solved section; ``chained`` when its lower blade is the previous upper one."""

    section: SectionConfig
    chained: bool
    lower: PlanarSolution
    upper: PlanarSolution
    field: SplineField
    residuals: FieldResiduals
    shift: ShiftVector
    checks: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


@dataclass
class RunReport:
    sections: list
    timing_seconds: float = 0.0
    errors: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors and all(s.passed for s in self.sections)

    def to_json(self) -> dict:
        """Artifact form of the report; timing stays out for determinism."""
        return {
            "version": __version__,
            "passed": self.passed,
            "errors": list(self.errors),
            "sections": [
                {
                    "id": s.section.id,
                    "degree": s.section.degree,
                    "w1": s.section.w1,
                    "w2": s.section.w2 if s.section.degree == 2 else None,
                    "closure_lower": s.lower.closure.to_json(),
                    "closure_upper": s.upper.closure.to_json(),
                    "residuals": s.residuals.to_json(),
                    "shift": s.shift.to_json(),
                    "glue": ({"w1_const": s.section.w1, "w2": s.section.w2}
                             if s.chained else None),
                    "checks": [c.to_json() for c in s.checks],
                }
                for s in self.sections
            ],
        }


def _residual_grid(contours: "list[Contour]") -> GridSpec:
    """Evaluation box to the right of every involved blade."""
    pts = np.vstack([c.points for c in contours])
    x1 = float(pts[:, 0].max())
    diam = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    cy = float(pts[:, 1].mean())
    return GridSpec(x0=x1 + 0.5 * diam, x1=x1 + 1.5 * diam,
                    y0=cy - 0.5 * diam, y1=cy + 0.5 * diam)


def _node_speeds(sol: PlanarSolution) -> np.ndarray:
    """|F'| of the blade's plane at its contour nodes, the images of the circle nodes."""
    zeta = np.exp(2j * np.pi * np.arange(sol.n) / sol.n)
    return np.abs(sol.potential.derivative(zeta, boundary_values(sol.map.deriv, sol.n)))


def run_section(cfg: DesignConfig, section: SectionConfig,
                prev: "SectionResult | None" = None) -> SectionResult:
    """Solve, assemble, check and position one section.

    ``prev`` is the finished degree-2 section this one is chained onto; its
    upper blade is this section's lower one.
    """
    n = cfg.n_boundary
    w1, w2 = section.w1, section.w2
    if prev is None:
        sol_lo = solve_distribution(section.lower, n, z_start=0.0, w1=w1)
        involved = [sol_lo.contour]
    else:
        sol_lo = prev.upper                   # shared blade, same solve
        # trace_defect evaluates the previous field too
        involved = [prev.lower.contour, sol_lo.contour]
    # the upper plane's conj(z) coefficient is dw/dh there
    sol_up = solve_distribution(section.upper, n, z_start=0.0, w1=w1 + 2.0 * w2)
    involved.append(sol_up.contour)

    fld = assemble(sol_lo.potential, sol_up.potential, w1, sol_lo.z_start, w2)
    grid = _residual_grid(involved)
    residuals = field_residuals(fld, grid)
    pos = cfg.positioning
    shift = position(sol_lo.contour, sol_up.contour, pos.method, pos.spacing,
                     lambda: (pos.box, NodePartition(pos.partition, _node_speeds(sol_lo),
                                                     _node_speeds(sol_up))))

    gate = CheckEntry.gate
    checks = [
        gate("closure_lower", abs(sol_lo.closure.closure_defect), CLOSURE_TOL),
        gate("vinf_lower", abs(sol_lo.closure.vinf_defect), CLOSURE_TOL),
        gate("closure_upper", abs(sol_up.closure.closure_defect), CLOSURE_TOL),
        gate("vinf_upper", abs(sol_up.closure.vinf_defect), CLOSURE_TOL),
        *(gate(*g) for g in residuals.gates()),
    ]
    if prev is not None:
        du, dv, dw = trace_defect(prev.field, fld, grid)
        checks += [
            gate("glue_du", du, GLUE_TOL),
            gate("glue_dv", dv, GLUE_TOL),
            CheckEntry("glue_dw", dw, None, None),
            gate("glue_w1_rule", abs(fld.absorbed - sol_lo.w1), GLUE_TOL),
        ]

    return SectionResult(section, prev is not None, sol_lo, sol_up, fld, residuals,
                         shift, checks)


def run_pipeline(cfg: DesignConfig) -> RunReport:
    """Run every section; failures are isolated and reported per section.

    A section whose arithmetic overflows, divides by zero or forms a NaN
    fails there, with numpy's message, instead of carrying the value on.
    """
    t0 = time.perf_counter()
    results = []
    errors = []
    prev: "SectionResult | None" = None
    for idx, section in enumerate(cfg.sections):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                if section.degree == 2 and idx > 0:
                    if prev is None:
                        raise BladekitError("cannot chain onto a failed section")
                    res = run_section(cfg, section, prev=prev)
                else:
                    res = run_section(cfg, section)
            results.append(res)
            prev = res if section.degree == 2 else None
        except (BladekitError, FloatingPointError) as exc:
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
    """Write per-section CSV/JSON/SVG artifacts plus the global report.

    ``out_dir`` must exist.  Each section's files go to the directory
    named by its id; returns the written paths.
    """
    written = []

    def put(path: str, text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    formats = cfg.output.formats
    for res in report.sections:
        sdir = os.path.join(out_dir, res.section.id)
        os.makedirs(sdir, exist_ok=True)
        if "csv" in formats:
            put(os.path.join(sdir, "lower.csv"), contour_to_csv(res.lower.contour))
            put(os.path.join(sdir, "upper.csv"), contour_to_csv(res.upper.contour))
        if "json" in formats:
            put(os.path.join(sdir, "shift.json"), _json_text(res.shift.to_json()))
            put(os.path.join(sdir, "residuals.json"), _json_text(res.residuals.to_json()))
        if "svg" in formats:
            put(os.path.join(sdir, "section.svg"),
                render_svg([res.lower.contour, res.upper.contour],
                           [(0.0, 0.0), (res.shift.dx, res.shift.dy)]))
    if "json" in formats:
        put(os.path.join(out_dir, "report.json"), _json_text(report.to_json()))
    return written
