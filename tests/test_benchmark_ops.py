"""The benchmark's operations must run and pass their own checks.

``benchmarks/workloads.py`` builds every workload from the forward-flow
oracle and checks each operation: exit codes, report verdicts, artifact
files, the closure bound and the oracle Hausdorff bound.  Tier-1 builds
each workload at its tiny size, plus the degree-2 chain probe, and runs
every operation once, so a refactor that breaks what the benchmark uses
fails here; the benchmark files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = _load_workloads()


def _run_and_check(op) -> tuple:
    op.prepare()
    result = op.run()
    return op.failure(result), op.check(result, {})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_passes(name, tmp_path):
    ops = workloads.WORKLOADS[name].build(np.random.default_rng(0), str(tmp_path), True)
    assert ops
    for op in ops:
        assert _run_and_check(op) == (None, []), op.label


def test_chain_probe_passes(tmp_path):
    op = workloads.chain_probe(np.random.default_rng(0), str(tmp_path))
    assert _run_and_check(op) == (None, [])
