"""Per-layer spans recorded around bladekit's public functions.

The recorder wraps library functions from outside the library.  Every
module-global binding in a ``bladekit`` module that *is* a target function
is replaced by a timing wrapper, so aliases such as
``from .harmonic import evaluate_series_unchecked as _raw_eval`` are
reached too, and a function keeps its span when another module starts to
import it.  A target written ``Class.method`` is replaced on the class.  A
target that no longer exists is reported as absent instead of failing the
run.  ``uninstall`` puts every original binding back.

Each layer keeps, per round of operations:

* busy time and calls of its outermost spans (a layer calling itself is
  counted once),
* self time, its spans' durations minus the time covered by child spans,
* named counters and maxima filled in by per-target observers.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

MARK = "__bench_span__"


@dataclass(frozen=True)
class Target:
    module: str                      # bladekit submodule defining the function
    name: str                        # "function" or "Class.method"
    layer: str                       # span name shared by related targets
    observe: "Callable | None" = None  # (round, args, kwargs, result), outermost calls


class Round:
    """Everything the spans saw during one pass over a workload's operations."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.unique = defaultdict(set)
        self.top_level_s = 0.0
        self.wall_s = 0.0

    def note_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima[key], float(value))


class Recorder:
    def __init__(self, targets):
        self.targets = list(targets)
        self.absent = []
        self.observer_errors = Counter()
        self._saved = []             # (owner, attribute, original) in install order
        self._depth = defaultdict(int)
        self._stack = []
        self.round = Round()

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = _bladekit_modules()
        seen = set()
        for t in self.targets:
            try:
                mod = importlib.import_module(f"bladekit.{t.module}")
            except ImportError:
                mod = None
            cls_name, _, meth = t.name.rpartition(".")
            if cls_name:
                owner = getattr(mod, cls_name, None) if mod else None
                fn = vars(owner).get(meth) if isinstance(owner, type) else None
                if not callable(fn):
                    self.absent.append(f"{t.module}.{t.name}")
                    continue
                self._saved.append((owner, meth, fn))
                setattr(owner, meth, self._wrap(t, fn))
                continue
            fn = getattr(mod, t.name, None) if mod else None
            if not callable(fn):
                self.absent.append(f"{t.module}.{t.name}")
                continue
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            wrapper = self._wrap(t, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------------

    def new_round(self) -> Round:
        self.round = Round()
        return self.round

    def _wrap(self, target: Target, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec._call(target, fn, args, kwargs)

        setattr(wrapper, MARK, target.layer)
        return wrapper

    def _call(self, target: Target, fn, args, kwargs):
        layer = target.layer
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        frame = [0.0]                       # time covered by child spans
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self._depth[layer] -= 1
            r = self.round
            if self._stack:
                self._stack[-1][0] += dt
            else:
                r.top_level_s += dt
            r.self_time[layer] += dt - frame[0]
            if outermost:
                r.busy[layer] += dt
                r.calls[layer] += 1
        if outermost and target.observe is not None:
            try:
                target.observe(self.round, args, kwargs, result)
            except Exception as exc:
                # a refactored signature or result must not fail the operation
                self.observer_errors[f"{target.module}.{target.name}: {type(exc).__name__}"] += 1
        return result


def _bladekit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bladekit" or name.startswith("bladekit."))]


def installed_wrappers() -> list:
    """Names still bound to a span wrapper; empty once a recorder is uninstalled."""
    found = []
    for m in _bladekit_modules():
        for attr, value in vars(m).items():
            if hasattr(value, MARK):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARK):
                        found.append(f"{m.__name__}.{attr}.{meth}")
    return found


# -- observers -------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _digest(array) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).digest()


def _observe_eval(r: Round, args, kwargs, result):
    series = _arg(args, kwargs, 0, "f")
    z = _arg(args, kwargs, 1, "z")
    r.counts["harmonic.eval_term_points"] += len(series.coefficients) * np.size(z)


def _observe_invert(r: Round, args, kwargs, result):
    smap = args[0]
    z = _arg(args, kwargs, 1, "z")
    r.counts["planefield.invert_points"] += np.size(z)
    # content keys, not object ids, so the count repeats exactly between runs
    key = (_digest(smap.series.coefficients), smap.series.low, _digest(z))
    r.unique["planefield.invert"].add(key)


def _observe_solve(r: Round, args, kwargs, result):
    closure = result.closure
    r.note_max("inverse.closure_defect_max", closure.max_defect)
    r.note_max("inverse.correction_norm_max", closure.correction_norm)


def _observe_residuals(r: Round, args, kwargs, result):
    r.note_max("assembly.residual_max", result.worst())


def _observe_fd(r: Round, args, kwargs, result):
    fd_div, fd_curl = result
    r.note_max("assembly.fd_residual_max", max(fd_div, *fd_curl))


def _observe_artifacts(r: Round, args, kwargs, result):
    r.counts["pipeline.artifact_bytes"] += sum(os.path.getsize(p) for p in result)


TARGETS = (
    Target("config", "parse_config", "config.parse"),
    Target("config", "parse_config_dict", "config.parse"),
    Target("inverse", "solve_distribution", "inverse.solve", _observe_solve),
    Target("inverse", "solve_modified", "inverse.solve"),
    Target("inverse", "canonical_map", "inverse.canonical_map"),
    Target("inverse", "solve_zhukovsky", "inverse.zhukovsky"),
    Target("inverse", "quasisolution_correct", "inverse.quasisolution"),
    Target("inverse", "reconstruct_contour", "inverse.reconstruct"),
    Target("inverse", "reconstruction_map", "inverse.reconstruct"),
    Target("harmonic", "evaluate_series", "harmonic.eval", _observe_eval),
    Target("harmonic", "evaluate_series_unchecked", "harmonic.eval", _observe_eval),
    Target("planefield", "SeriesMap.invert", "planefield.invert", _observe_invert),
    Target("assembly", "field_residuals", "assembly.residuals", _observe_residuals),
    # the one private target: the finite-difference half of field_residuals
    Target("assembly", "_fd_residuals", "assembly.fd", _observe_fd),
    Target("positioning", "least_squares_shift", "positioning"),
    Target("positioning", "minimize_area_shift", "positioning"),
    Target("positioning", "maximize_lift", "positioning"),
    Target("positioning", "lsq_objective", "positioning.objective"),
    Target("positioning", "area_objective", "positioning.objective"),
    Target("positioning", "lift_score", "positioning.objective"),
    Target("pipeline", "run_pipeline", "pipeline.run"),
    Target("pipeline", "write_artifacts", "pipeline.artifacts", _observe_artifacts),
)


def layer_metrics(r: Round) -> dict:
    """Per-layer figures of one round, by metric name."""
    invert_calls = r.calls["planefield.invert"]
    unique = len(r.unique["planefield.invert"])
    return {
        "config.parse_s": r.busy["config.parse"],
        "inverse.solve_s": r.busy["inverse.solve"],
        "inverse.solve_calls": r.calls["inverse.solve"],
        "inverse.canonical_map_s": r.busy["inverse.canonical_map"],
        "inverse.zhukovsky_s": r.busy["inverse.zhukovsky"],
        "inverse.quasisolution_s": r.busy["inverse.quasisolution"],
        "inverse.reconstruct_s": r.busy["inverse.reconstruct"],
        "inverse.closure_defect_max": r.maxima["inverse.closure_defect_max"],
        "inverse.correction_norm_max": r.maxima["inverse.correction_norm_max"],
        "planefield.invert_s": r.busy["planefield.invert"],
        "planefield.invert_calls": invert_calls,
        "planefield.invert_points": r.counts["planefield.invert_points"],
        "planefield.invert_unique_frac": unique / invert_calls if invert_calls else 0.0,
        "harmonic.eval_s": r.busy["harmonic.eval"],
        "harmonic.eval_calls": r.calls["harmonic.eval"],
        "harmonic.eval_term_points": r.counts["harmonic.eval_term_points"],
        "assembly.residuals_s": r.busy["assembly.residuals"],
        "assembly.fd_s": r.busy["assembly.fd"],
        "assembly.residual_max": r.maxima["assembly.residual_max"],
        "assembly.fd_residual_max": r.maxima["assembly.fd_residual_max"],
        "positioning.s": r.busy["positioning"],
        "positioning.objective_evals": r.calls["positioning.objective"],
        "pipeline.run_s": r.busy["pipeline.run"],
        "pipeline.self_s": r.self_time["pipeline.run"],
        "pipeline.artifacts_s": r.busy["pipeline.artifacts"],
        "pipeline.artifact_bytes": r.counts["pipeline.artifact_bytes"],
        "trace.attributed_frac": r.top_level_s / r.wall_s if r.wall_s > 0 else 0.0,
    }
