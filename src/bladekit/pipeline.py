"""End-to-end design flow: per-blade solves, field assembly, chaining, export.

Each section needs two planar inverse problems (one per blade, both as
modified problems with the section's transversal constants).  The
constants are resolved at parse time, so every blade solve of a config is
known before any section runs, and `run_pipeline` solves them all in one
stage, one `inverse.solve_modified` batch: each unchained section's lower
blade at its w1 and every upper blade at ``w1 + 2*w2``.  Each section then
builds its velocity field with `assembly.assemble` from its two blades'
complex potentials: the lower blade is the plane h = 0, the upper blade
the plane h = 1.  It then measures the field's residuals on a box clear of
every blade the field is evaluated over, and positions the reconstructed
contours.  The lift reads each blade's `PlanarSolution.node_speeds`, |F'|
of the field's own plane at its contour nodes, so every figure reads one
flow per blade, and a chained section reuses the shared blade's speeds.

Degree-1 chains treat sections independently (the shared blade carries no
information across).  A degree-2 section after the first is chained onto
the previous one, and `config.parse_config_dict` marks it so
(`SectionConfig.chained`): its lower blade is the previous upper blade (the
same solve).  The shared blade was solved with the previous field's slope
dw/dh at h = 1 as its conj(z) coefficient; that slope is the new w1,
resolved with w2 by the parser, so every section is a solution of the
field equations and carries the same gated residual checks.  Chained
sections add the glue checks: ``glue_du`` and ``glue_dv`` compare the new
field at h = 0 with the previous one at h = 1 at the residual-grid nodes,
``glue_w1_rule`` the new field's conj(z) coefficient with the w1 the
shared blade was solved with, and ``glue_dw`` measures the w jump without
a verdict (see `assembly.trace_defect`).

Failures stay per section.  When the batch fails, each blade is solved
alone, and a blade that fails fails the sections that use it with its own
error; the other sections still run.

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
from .inverse import PlanarSolution, solve_distribution, solve_modified
from .positioning import NodePartition, ShiftVector, position
from .svgplot import render_svg

log = logging.getLogger("bladekit")

CLOSURE_TOL = 1e-10
GLUE_TOL = 1e-10
# every solve and section fails at its first overflow, zero division or NaN
_FAULTS = {"over": "raise", "invalid": "raise", "divide": "raise"}


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
    """One solved section; a chained one's lower blade is the previous upper one."""

    section: SectionConfig
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
                             if s.section.chained else None),
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


def _solved(sol):
    """A blade of the blade stage: its solution, or the error its solve failed with."""
    if isinstance(sol, Exception):
        raise sol
    return sol


def _solve_alone(d, w1: float, n: int):
    try:
        return solve_distribution(d, n, w1=w1)
    except (BladekitError, FloatingPointError) as exc:
        return exc


def solve_blade_stage(cfg: DesignConfig) -> list:
    """Every blade of the config in one `solve_modified` batch: a (lower, upper)
    pair per section, lower None on a chained section, whose lower blade is
    the previous upper one.

    The upper blade's w1 is `SectionConfig.upper_w1`, dw/dh at h = 1, the upper
    plane's conj(z) coefficient.  If the batch fails, each blade is solved
    alone, and a blade that fails holds its own error.
    """
    n = cfg.n_boundary
    jobs = []
    for section in cfg.sections:
        if not section.chained:
            jobs.append((section.lower, section.w1))
        jobs.append((section.upper, section.upper_w1))
    with np.errstate(**_FAULTS):
        try:
            solved = solve_modified(jobs, n)
        except (BladekitError, FloatingPointError):
            solved = [_solve_alone(d, w1, n) for d, w1 in jobs]
    blades = iter(solved)
    return [(None if s.chained else next(blades), next(blades)) for s in cfg.sections]


def run_section(cfg: DesignConfig, section: SectionConfig, blades: tuple,
                prev: "SectionResult | None" = None) -> SectionResult:
    """Assemble, check and position one section from its pair of
    `solve_blade_stage`.

    ``prev`` is the result of the section before, None if it failed; a
    chained section's lower blade is its upper one.
    """
    w1, w2 = section.w1, section.w2
    if not section.chained:
        sol_lo = _solved(blades[0])
        involved = [sol_lo.contour]
    elif prev is None:
        raise BladekitError("cannot chain onto a failed section")
    else:
        sol_lo = prev.upper                   # shared blade, same solve
        # trace_defect evaluates the previous field too
        involved = [prev.lower.contour, sol_lo.contour]
    sol_up = _solved(blades[1])
    involved.append(sol_up.contour)

    fld = assemble(sol_lo.potential, sol_up.potential, w1, w2)
    grid = _residual_grid(involved)
    residuals = field_residuals(fld, grid)
    pos = cfg.positioning
    shift = position(sol_lo.contour, sol_up.contour, pos.method,
                     lambda: (pos.box, NodePartition(pos.partition, sol_lo.node_speeds,
                                                     sol_up.node_speeds)))

    gate = CheckEntry.gate
    checks = [
        gate("closure_lower", abs(sol_lo.closure.closure_defect), CLOSURE_TOL),
        gate("vinf_lower", abs(sol_lo.closure.vinf_defect), CLOSURE_TOL),
        gate("closure_upper", abs(sol_up.closure.closure_defect), CLOSURE_TOL),
        gate("vinf_upper", abs(sol_up.closure.vinf_defect), CLOSURE_TOL),
        *(gate(*g) for g in residuals.gates()),
    ]
    if section.chained:
        du, dv, dw = trace_defect(prev.field, fld, grid)
        checks += [
            gate("glue_du", du, GLUE_TOL),
            gate("glue_dv", dv, GLUE_TOL),
            CheckEntry("glue_dw", dw, None, None),
            gate("glue_w1_rule", abs(fld.absorbed - sol_lo.w1), GLUE_TOL),
        ]

    return SectionResult(section, sol_lo, sol_up, fld, residuals, shift, checks)


def run_pipeline(cfg: DesignConfig) -> RunReport:
    """Solve every blade, then run every section; failures are isolated and
    reported per section.

    A section whose arithmetic overflows, divides by zero or forms a NaN
    fails there, with numpy's message, instead of carrying the value on.
    """
    t0 = time.perf_counter()
    results = []
    errors = []
    prev: "SectionResult | None" = None
    for section, blades in zip(cfg.sections, solve_blade_stage(cfg)):
        try:
            with np.errstate(**_FAULTS):
                prev = run_section(cfg, section, blades, prev)
            results.append(prev)
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
