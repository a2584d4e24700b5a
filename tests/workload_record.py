"""The seed-7 workloads' figures: their inputs, and the script that records them.

Builds the tiny seed-7 configs of the benchmark's ``deg1_triple`` (three
degree-1 sections, lsq positioning) and ``deg2_lift`` (one degree-2 section
positioned by lift) workloads, and its chain probe (three chained degree-2
sections), from `oracles` as ``benchmarks/workloads.py`` builds them, all at
n_boundary 64.  `run` takes one config through the pipeline, and `figures`
returns the run's ``report.json`` object together with the shifts and a
digest of every contour: node count, centroid and largest |z| of its nodes.

Run as a script, it writes ``workload_record.json`` beside it::

    PYTHONPATH=src:tests python tests/workload_record.py

`test_workload_record.py` compares a fresh run with that record.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

import oracles
from bladekit.config import parse_config
from bladekit.pipeline import run_pipeline

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload_record.json")
SEED = 7
N = 64
SAMPLES_PER_ARC = 2048
# (lower centre, lower beta, upper centre, upper beta, w1) of the three
# sections; the seed perturbs every centre and beta
SECTIONS = (
    (-0.08 + 0.05j, 0.10, -0.09 + 0.06j, 0.12, 0.05),
    (-0.10 + 0.08j, 0.20, -0.11 + 0.09j, 0.22, 0.10),
    (-0.06 + 0.03j, 0.30, -0.07 + 0.04j, 0.33,
     {"from_transversal": {"w_ref": 0.15, "h_ref": 1.0}}),
)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _section(rng, work_dir: str, tag: str, spec, degree: int) -> dict:
    lo_c, lo_b, up_c, up_b, w1 = spec
    files = {}
    for side, centre, beta in (("lower", lo_c, lo_b), ("upper", up_c, up_b)):
        centre = centre + complex(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
        flow = oracles.joukowski_flow(center=centre, beta=beta + rng.uniform(-0.02, 0.02))
        files[side] = f"{tag}_{side}.json"
        _write_json(os.path.join(work_dir, files[side]),
                    flow.distribution(SAMPLES_PER_ARC, SAMPLES_PER_ARC).to_json())
    return {"id": tag, "degree": degree, "lower": files["lower"], "upper": files["upper"],
            "w1": w1}


def _config(work_dir: str, name: str, sections: list, positioning: dict) -> str:
    return _write_json(os.path.join(work_dir, f"{name}.json"),
                       {"sections": sections, "discretization": {"n_boundary": N},
                        "positioning": positioning})


def build_configs(work_dir: str) -> dict:
    """``{name: config path}`` of the three seed-7 configs, written into ``work_dir``.

    The chain probe draws from the generator after ``deg1_triple``, as the
    benchmark's run of that workload draws it.
    """
    rng = np.random.default_rng(SEED)
    triple = [_section(rng, work_dir, f"t0s{i}", spec, 1) for i, spec in enumerate(SECTIONS)]
    chain = [_section(rng, work_dir, f"c{i}", spec, 2) for i, spec in enumerate(SECTIONS)]
    chain[0]["w2"] = 0.1
    lift = _section(np.random.default_rng(SEED), work_dir, "q0", SECTIONS[0], 2)
    lift["w2"] = 0.1
    return {
        "deg1_triple": _config(work_dir, "deg1_triple", triple, {"method": "lsq"}),
        "deg2_lift": _config(work_dir, "deg2_lift", [lift],
                             {"method": "lift", "box": [-0.5, -0.5, 0.5, 0.5],
                              "partition": N // 2}),
        "chain_probe": _config(work_dir, "chain_probe", chain, {"method": "lsq"}),
    }


def _digest(contour) -> dict:
    z = contour.points @ (1, 1j)
    return {"nodes": len(z), "centroid": [float(z.real.mean()), float(z.imag.mean())],
            "max_abs": float(np.max(np.abs(z)))}


def run(config_path: str):
    """The pipeline's `RunReport` of one config."""
    return run_pipeline(parse_config(config_path))


def figures(report) -> dict:
    """The ``report.json`` object of a run, and each section's shift and contour digests."""
    return {
        "report": json.loads(json.dumps(report.to_json())),
        "sections": {s.section.id: {"shift": [s.shift.dx, s.shift.dy],
                                    "lower": _digest(s.lower.contour),
                                    "upper": _digest(s.upper.contour)}
                     for s in report.sections},
    }


def record() -> dict:
    with tempfile.TemporaryDirectory() as work_dir:
        return {name: figures(run(path)) for name, path in build_configs(work_dir).items()}


if __name__ == "__main__":
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
