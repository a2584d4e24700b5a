"""Workloads of the bladekit benchmark, built from the forward-flow oracle.

Every input comes from ``tests/oracles.py``: Joukowski flows and the
perturbed cylinder.  The seed sets the centre and incidence perturbations
(and the cylinder's perturbation size); bladekit only sees the generated
configuration and distribution JSON files.  Each workload is a fixed list
of operations, one round; the runner repeats rounds for the measured time.

An operation is either one ``blade solve`` through ``bladekit.cli.main``
(exit 0 is done, anything else failed) or one
``inverse.solve_distribution`` call that then builds ``.contour``,
``.map`` and ``.velocity_series``.  Library functions are looked up on
their modules at call time, so span wrappers installed by the traced run
see every call.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

import bladekit.cli
import bladekit.inverse
import oracles
from bladekit.geometry import Contour, resample_uniform

# The pipeline's closure tolerance (ROADMAP: never loosened), restated here
# so the oracle check does not depend on where the library keeps it.
CLOSURE_TOL = 1e-10
# Symmetric Hausdorff distance between the solved contour and the oracle
# contour, both resampled to HAUSDORFF_NODES equal arc steps, as a share of
# the oracle chord.  Measured values are below 7e-4 down to n = 64.
HAUSDORFF_TOL = 2e-3
HAUSDORFF_NODES = 8192
SAMPLES_PER_ARC = 2048
TINY_N = 64

# (lower centre, lower beta, upper centre, upper beta, w1) of the three
# sections; the seed perturbs every centre and beta.
SECTIONS = (
    (-0.08 + 0.05j, 0.10, -0.09 + 0.06j, 0.12, 0.05),
    (-0.10 + 0.08j, 0.20, -0.11 + 0.09j, 0.22, 0.10),
    (-0.06 + 0.03j, 0.30, -0.07 + 0.04j, 0.33,
     {"from_transversal": {"w_ref": 0.15, "h_ref": 1.0}}),
)


def _flow(rng: np.random.Generator, centre: complex, beta: float) -> oracles.ForwardFlow:
    centre = centre + complex(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
    return oracles.joukowski_flow(center=centre, beta=beta + rng.uniform(-0.02, 0.02))


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _load_distribution(path: str) -> bladekit.inverse.VelocityDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return bladekit.inverse.VelocityDistribution.from_json(json.load(fh))


# -- pipeline operations ------------------------------------------------------------

class PipelineOp:
    """One ``blade solve`` of a generated configuration."""

    def __init__(self, config_path: str, out_dir: str, section_ids, formats):
        self.config_path = config_path
        self.out_dir = out_dir
        self.section_ids = list(section_ids)
        self.formats = tuple(formats)
        self.label = os.path.basename(config_path)

    def prepare(self):
        """Remove the previous round's artifacts so stale files cannot pass."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        return bladekit.cli.main(["solve", "--config", self.config_path,
                                  "--out", self.out_dir])

    @staticmethod
    def failure(rc) -> "str | None":
        return None if rc == 0 else f"exit {rc}"

    def check(self, rc, stats: dict) -> list:
        """Names of failing checks: report verdicts and missing artifacts."""
        report_path = os.path.join(self.out_dir, "report.json")
        if not os.path.exists(report_path):
            return ["report.json missing"]
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        failing = [f"{sec['id']}/{c['name']}" for sec in report["sections"]
                   for c in sec["checks"] if c["passed"] is False]
        if [sec["id"] for sec in report["sections"]] != self.section_ids:
            failing.append("report sections")
        expected = []
        for sid in self.section_ids:
            if "csv" in self.formats:
                expected += [f"{sid}/lower.csv", f"{sid}/upper.csv"]
            if "json" in self.formats:
                expected += [f"{sid}/shift.json", f"{sid}/residuals.json"]
            if "svg" in self.formats:
                expected.append(f"{sid}/section.svg")
        failing += [f"missing {rel}" for rel in expected
                    if not os.path.exists(os.path.join(self.out_dir, rel))]
        return failing


def _write_section(rng, work_dir: str, tag: str, spec, degree: int) -> dict:
    lo_c, lo_b, up_c, up_b, w1 = spec
    paths = {}
    for side, centre, beta in (("lower", lo_c, lo_b), ("upper", up_c, up_b)):
        dist = _flow(rng, centre, beta).distribution(SAMPLES_PER_ARC, SAMPLES_PER_ARC)
        paths[side] = _write_json(os.path.join(work_dir, f"{tag}_{side}.json"),
                                  dist.to_json())
    return {"id": tag, "degree": degree, "lower": os.path.basename(paths["lower"]),
            "upper": os.path.basename(paths["upper"]), "w1": w1}


def _pipeline_op(work_dir: str, name: str, sections: list, n: int,
                 positioning: dict, formats) -> PipelineOp:
    cfg = {"sections": sections, "discretization": {"n_boundary": n},
           "positioning": positioning, "output": {"formats": list(formats)}}
    path = _write_json(os.path.join(work_dir, f"{name}.json"), cfg)
    return PipelineOp(path, os.path.join(work_dir, "out", name),
                      [s["id"] for s in sections], formats)


def deg1_triple(rng, work_dir: str, tiny: bool) -> list:
    n = TINY_N if tiny else 256
    ops = []
    for k in range(1 if tiny else 2):
        sections = [_write_section(rng, work_dir, f"t{k}s{i}", spec, 1)
                    for i, spec in enumerate(SECTIONS)]
        ops.append(_pipeline_op(work_dir, f"deg1_triple_{k}", sections, n,
                                {"method": "lsq"}, ("csv", "json", "svg")))
    return ops


def deg2_lift(rng, work_dir: str, tiny: bool) -> list:
    n = TINY_N if tiny else 1024
    ops = []
    for k in range(1 if tiny else 2):
        section = _write_section(rng, work_dir, f"q{k}", SECTIONS[k], 2)
        section["w2"] = 0.1
        positioning = {"method": "lift", "box": [-0.5, -0.5, 0.5, 0.5],
                       "partition": n // 2}
        ops.append(_pipeline_op(work_dir, f"deg2_lift_{k}", [section], n,
                                positioning, ("json",)))
    return ops


def chain_probe(rng, work_dir: str) -> PipelineOp:
    """Three chained degree-2 sections: the configuration ROADMAP reports broken."""
    sections = [_write_section(rng, work_dir, f"c{i}", spec, 2)
                for i, spec in enumerate(SECTIONS)]
    sections[0]["w2"] = 0.1
    return _pipeline_op(work_dir, "chain_probe", sections, TINY_N,
                        {"method": "lsq"}, ("json",))


# -- per-blade solves -------------------------------------------------------------

class SolveOp:
    """One per-blade inverse solve plus the reconstruction the pipeline uses."""

    def __init__(self, dist, n: int, label: str, flow=None):
        self.dist = dist
        self.n = n
        self.label = label
        self.z_start = flow.branch_anchor() if flow is not None else 0.0
        self.oracle = None
        if flow is not None:
            exact = Contour.from_complex(flow.contour_nodes(4096))
            self.oracle = cKDTree(resample_uniform(exact, HAUSDORFF_NODES).points)
            self.chord = flow.chord()

    def prepare(self):
        pass

    def run(self):
        sol = bladekit.inverse.solve_distribution(self.dist, self.n, z_start=self.z_start)
        # the reconstruction is lazy; build what the pipeline would use
        _ = sol.contour, sol.map, sol.velocity_series
        return sol

    @staticmethod
    def failure(sol) -> "str | None":
        return None

    def check(self, sol, stats: dict) -> list:
        failing = []
        if not sol.closure.max_defect < CLOSURE_TOL:
            failing.append(f"{self.label}/closure")
        if self.oracle is not None:
            pts = resample_uniform(sol.contour, HAUSDORFF_NODES).points
            rel = max(self.oracle.query(pts)[0].max(),
                      cKDTree(pts).query(self.oracle.data)[0].max()) / self.chord
            key = "inverse.contour_hausdorff_max"
            stats[key] = max(stats.get(key, 0.0), float(rel))
            if not rel < HAUSDORFF_TOL:
                failing.append(f"{self.label}/hausdorff")
        return failing


def blade_solve(rng, work_dir: str, tiny: bool) -> list:
    ops = []
    for k, spec in enumerate(SECTIONS[:1] if tiny else SECTIONS[:2]):
        flow = _flow(rng, spec[0], spec[1])
        path = _write_json(os.path.join(work_dir, f"jouk{k}.json"),
                           flow.distribution(SAMPLES_PER_ARC, SAMPLES_PER_ARC).to_json())
        dist = _load_distribution(path)
        for n in (TINY_N,) if tiny else (256, 1024, 4096):
            ops.append(SolveOp(dist, n, f"jouk{k}_n{n}", flow))
    if not tiny:
        # not solvable as given: the quasisolution correction does real work.
        # Seven operations keep the median inside the n=1024 cluster of
        # solve times instead of on the gap between two clusters.
        eps = rng.uniform(0.02, 0.05)
        path = _write_json(os.path.join(work_dir, "perturbed_cylinder.json"),
                           oracles.perturbed_cylinder(eps).to_json())
        ops.append(SolveOp(_load_distribution(path), 256, "perturbed_cylinder_n256"))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable      # (rng, work_dir, tiny) -> list of operations


WORKLOADS = {w.name: w for w in (
    Workload("deg1_triple",
             "three degree-1 sections at n=256, lsq positioning, csv/json/svg "
             "artifacts: the ROADMAP baseline, where residual evaluation "
             "(map inversion, Horner) dominates",
             deg1_triple),
    Workload("deg2_lift_n1024",
             "single degree-2 sections at n=1024 with lift positioning: the "
             "quadratic field path with 4x longer series, and the only real "
             "positioning load",
             deg2_lift),
    Workload("blade_solve",
             "per-blade inverse solves at n=256..4096 and a perturbed cylinder: "
             "exercises inverse and the quasisolution, bypasses field evaluation",
             blade_solve),
)}
