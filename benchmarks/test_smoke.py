"""Smoke test of the benchmark: every workload at n_boundary 64, one operation.

    python3 -m pytest benchmarks/test_smoke.py -q

Each workload runs traced and then untraced in one process.  The test checks
that every metric named in BENCHMARK.json is emitted with its unit, and that
the traced run leaves no span wrapper behind for the untraced run, and that
neither run leaves the host-speed sampler's timer or signal handler behind.
"""

import json
import signal

import pytest

import run
import spans

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def checkout():
    run.bootstrap()


def assert_result(record: dict, kind: str):
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def sampler_stopped(handler) -> bool:
    return (signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            and signal.getsignal(signal.SIGALRM) == handler)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload):
    handler = signal.getsignal(signal.SIGALRM)
    traced = run.run(workload, seed=0, seconds=0, trace=True, tiny=True)
    assert spans.installed_wrappers() == []
    assert sampler_stopped(handler)
    assert traced["absent_targets"] == []
    assert_result(traced, "per_layer")
    assert traced["result"]["metrics"]["inverse.solve_calls"]["value"] >= 1

    plain = run.run(workload, seed=0, seconds=0, trace=False, tiny=True)
    assert_result(plain, "end_to_end")
    assert sampler_stopped(handler)
    assert plain["probe"]["outcome"]
    assert plain["host_slowdown"]["median"] > 0
    assert set(plain["wall"]) == {"run_s", "op_s_p50", "op_s_tail", "setup_s"}
