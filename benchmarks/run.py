"""Run one bladekit benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload deg1_triple --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout: the library is imported from
``src/`` and the oracle from ``tests/oracles.py`` of the checkout holding
this file.  ``--trace 0`` measures the end-to-end metrics with no spans
installed.  ``--trace 1`` measures untraced rounds and then traced rounds,
half of ``--seconds`` each, and reports the per-layer split with the
difference between the two as tracing overhead.  Timings are corrected for
the speed of a shared host (``hostspeed.py``); the record and the output
keep the uncorrected wall-clock figures beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, sample counts and the chain probe, is written to
``.bench_results/`` in the checkout.  Generated inputs and artifacts live
in ``.bench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 7
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {"run_s": "s", "op_s_p50": "s", "op_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "inverse.solve_s": "s",
    "inverse.solve_calls": "count",
    "inverse.canonical_map_s": "s",
    "inverse.zhukovsky_s": "s",
    "inverse.quasisolution_s": "s",
    "inverse.reconstruct_s": "s",
    "inverse.closure_defect_max": "1",
    "inverse.correction_norm_max": "1",
    "inverse.contour_hausdorff_max": "chord",
    "planefield.invert_s": "s",
    "planefield.invert_calls": "count",
    "planefield.invert_points": "count",
    "planefield.invert_unique_frac": "frac",
    "harmonic.eval_s": "s",
    "harmonic.eval_calls": "count",
    "harmonic.eval_term_points": "count",
    "assembly.residuals_s": "s",
    "assembly.fd_s": "s",
    "assembly.residual_max": "1",
    "assembly.fd_residual_max": "1",
    "positioning.s": "s",
    "positioning.objective_evals": "count",
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifacts_s": "s",
    "pipeline.artifact_bytes": "B",
    "trace.attributed_frac": "frac",
    "trace_overhead_frac": "frac",
}
MAXIMA = ("inverse.closure_defect_max", "inverse.correction_norm_max",
          "assembly.residual_max", "assembly.fd_residual_max")


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def bootstrap():
    """Pin one BLAS thread and import bladekit and the oracle from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["BLADE_LOG"] = "quiet"
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "bladekit" / "__init__.py").is_file():
        raise SetupError(f"no bladekit sources under {src}")
    if not (tests / "oracles.py").is_file():
        raise SetupError(f"no oracle at {tests / 'oracles.py'}")
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bladekit
    if Path(bladekit.__file__).resolve().parent != (src / "bladekit").resolve():
        raise SetupError(f"bladekit imported from {bladekit.__file__}, not {src}")


SETUP_CODE = """\
import sys, time
sys.path.insert(0, {bench!r})
import hostspeed
with hostspeed.Sampler(with_numpy=False) as sampler:
    t0 = time.perf_counter()
    import bladekit
    t1 = time.perf_counter()
print(*sampler.correct(t0, t1), t1 - t0)
"""


def measure_setup() -> list:
    """(corrected, slowdown, wall) seconds of importing bladekit in fresh processes.

    One import that compiles the bytecode comes first and is not kept.
    """
    code = SETUP_CODE.format(bench=str(Path(__file__).resolve().parent))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(tuple(float(x) for x in proc.stdout.split()[-3:]))
    return samples


def tail_percentile(n: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it; p75 below 40 samples."""
    return 100.0 * (1.0 - TAIL_BEYOND / n) if n >= 4 * TAIL_BEYOND else 75.0


class Tally:
    """Outcomes of every attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.failing_checks = Counter()
        self.stats = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def checks_failed(self) -> int:
        return sum(self.failing_checks.values())


def attempt(op, tally: Tally):
    """Run one operation; any exception or nonzero exit counts as failed.

    Returns its start and end on ``perf_counter``, its output and its error.
    """
    t0 = time.perf_counter()
    try:
        out = op.run()
        err = op.failure(out)
    except (Exception, SystemExit) as exc:
        out, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    tally.attempted += 1
    if err is not None:
        tally.failures[err.split(":")[0]] += 1
    return t0, t1, out, err


@dataclass
class Timed:
    """Seconds of each operation, by label, and the host slowdown around each."""
    seconds: dict        # corrected for host speed
    wall: dict           # as the wall clock read them
    slowdown: list


def measure(ops, seconds: float, tally: Tally, recorder=None):
    """Cycle through the operation list until `seconds` have passed.

    Returns the ``Timed`` operations and, with a span recorder, its record
    of each round.  Untraced runs stop after the operation that passes the
    deadline; traced runs finish their round, because per-layer figures are
    per round.
    """
    intervals = {op.label: [] for op in ops}
    traced = []
    with hostspeed.Sampler() as sampler:
        _cycle(ops, seconds, tally, recorder, intervals, traced)
    timed = Timed({label: [] for label in intervals}, {label: [] for label in intervals}, [])
    for label, pairs in intervals.items():
        for t0, t1 in pairs:
            corrected, slowdown = sampler.correct(t0, t1)
            timed.seconds[label].append(corrected)
            timed.wall[label].append(t1 - t0)
            timed.slowdown.append(slowdown)
    return timed, traced


def _cycle(ops, seconds, tally, recorder, intervals, traced):
    start = time.perf_counter()
    while True:
        record = recorder.new_round() if recorder else None
        for op in ops:
            op.prepare()
            t0, t1, out, err = attempt(op, tally)
            intervals[op.label].append((t0, t1))
            if record is not None:
                record.wall_s += t1 - t0
            if err is None:
                tally.failing_checks.update(check(op, out, tally))
            if record is None and time.perf_counter() - start >= seconds:
                return
        if record is not None:
            traced.append(record)
            if time.perf_counter() - start >= seconds:
                return


def check(op, out, tally: Tally) -> list:
    """Failing checks of one operation's output; a check that raises fails too."""
    try:
        return op.check(out, tally.stats)
    except Exception as exc:
        return [f"{op.label}/check raised {type(exc).__name__}"]


def list_seconds(times: dict) -> float:
    """Seconds for one pass over the operation list: the sum of per-operation medians.

    Medians keep a few operations the host-speed correction misjudged from
    moving the figure.
    """
    return sum(statistics.median(v) for v in times.values())


def describe_probe(op) -> str:
    tally = Tally()
    op.prepare()
    _, _, out, err = attempt(op, tally)
    if err is not None:
        return err
    failing = check(op, out, tally)
    return "exit 0, all checks pass" if not failing else f"exit 0, failing {failing}"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the full record (``result`` is the printed object)."""
    import numpy as np
    import spans
    from workloads import WORKLOADS, chain_probe

    wl = WORKLOADS[workload]
    record = {"workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny}
    setup = [] if trace else measure_setup()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work")
    try:
        rng = np.random.default_rng(seed)
        ops = wl.build(rng, work_dir, tiny)
        record["probe"] = {"config": "3 chained degree-2 sections, n_boundary 64",
                           "outcome": describe_probe(chain_probe(rng, work_dir))}
        tally = Tally()
        half = seconds / 2 if trace else seconds
        timed, _ = measure(ops, half, tally)
        if trace:
            with spans.Recorder(spans.TARGETS) as recorder:
                traced_timed, traced = measure(ops, half, tally, recorder)
            record["absent_targets"] = recorder.absent
            record["observer_errors"] = dict(recorder.observer_errors)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    times = timed.seconds
    all_times = [dt for v in times.values() for dt in v]
    all_wall = [dt for v in timed.wall.values() for dt in v]
    if trace:
        rounds = [spans.layer_metrics(r) for r in traced]
        # median_low keeps counts whole and equal to what one round did
        values = {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
        for name in MAXIMA:
            values[name] = max(r[name] for r in rounds)
        values["inverse.contour_hausdorff_max"] = tally.stats.get(
            "inverse.contour_hausdorff_max", 0.0)
        values["trace_overhead_frac"] = (list_seconds(traced_timed.seconds)
                                         / list_seconds(times) - 1.0)
        units = PER_LAYER_UNITS
        record["samples"] = {"untraced_ops": len(all_times), "traced_rounds": len(traced)}
    else:
        p = tail_percentile(len(all_times))
        values = {
            "run_s": list_seconds(times),
            "op_s_p50": statistics.median(all_times),
            "op_s_tail": float(np.percentile(all_times, p)),
            "setup_s": statistics.median(s[0] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["wall"] = {
            "run_s": list_seconds(timed.wall),
            "op_s_p50": statistics.median(all_wall),
            "op_s_tail": float(np.percentile(all_wall, p)),
            "setup_s": statistics.median(s[2] for s in setup),
        }
        units = END_TO_END_UNITS
        record["samples"] = {
            "run_s": {label: len(v) for label, v in times.items()},
            "op_s_p50": {"ops": len(all_times)},
            "op_s_tail": {"ops": len(all_times), "percentile": p,
                          "beyond": len(all_times) * (1.0 - p / 100.0)},
            "setup_s": {"imports": len(setup), "values": [s[0] for s in setup],
                        "wall": [s[2] for s in setup], "slowdown": [s[1] for s in setup]},
        }
    slowdown = sorted(timed.slowdown)
    record["host_slowdown"] = {"ops": len(slowdown), "min": slowdown[0],
                               "median": statistics.median(slowdown), "max": slowdown[-1]}
    record["op_seconds"] = times
    record["op_wall_seconds"] = timed.wall
    record.update({
        "environment": environment(),
        "ops_failed_frac": tally.failed / tally.attempted,
        "failures": dict(tally.failures),
        "checks_failed": tally.checks_failed,
        "failing_checks": dict(tally.failing_checks),
    })
    record["result"] = {
        "correct": tally.failed == 0 and tally.checks_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except (SetupError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {record['workload']}: {record['why']}")
    print(f"chain probe ({record['probe']['config']}): {record['probe']['outcome']}")
    print(f"ops_failed_frac {record['ops_failed_frac']:.4f} {record['failures']}; "
          f"checks_failed {record['checks_failed']} {record['failing_checks']}")
    if record.get("absent_targets"):
        print(f"absent span targets: {record['absent_targets']}")
    if record.get("observer_errors"):
        print(f"span observers that raised: {record['observer_errors']}")
    hs = record["host_slowdown"]
    print(f"host slowdown over {hs['ops']} ops: median {hs['median']:.3f}, "
          f"range {hs['min']:.3f}-{hs['max']:.3f}")
    if "wall" in record:
        print("wall clock, uncorrected: " + ", ".join(
            f"{k} {v:.4f}" for k, v in record["wall"].items()))
    print(f"samples: {json.dumps(record['samples'])}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
