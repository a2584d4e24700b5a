"""The benchmark's span targets must keep resolving in bladekit.

``benchmarks/spans.py`` times library functions by name.  A refactor that
drops or renames one of them, or routes a layer's work around them, would
silently empty its per-layer figures, so tier-1 checks every target here,
that the blade planes are summed inside the ``harmonic.eval`` span and that
the map inversions run inside the ``planefield.invert`` span; the benchmark
files are only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from bladekit import assembly

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for t in targets:
        obj = importlib.import_module(f"bladekit.{t.module}")
        for part in t.name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{t.module}.{t.name}")
    assert missing == []


def test_plane_evaluation_is_seen_by_the_eval_span(seed7_reports):
    # the planes at the residual nodes of one section: S and S' of each of
    # its two planes, each summed by one outermost `harmonic.eval` call
    spans = _load_spans()
    sec = seed7_reports["deg1_triple"].sections[0]
    x, y = sec.residuals.grid.plane_nodes()
    zetas = sec.field.zetas(x + 1j * y)
    with spans.Recorder(spans.TARGETS) as recorder:
        sec.field.planes(zetas)
    assert recorder.round.calls["harmonic.eval"] == 4
    assert spans.installed_wrappers() == []


def test_map_inversions_are_seen_by_the_invert_span(seed7_reports):
    # the FD pass of one section inverts each of its two maps twice, at the
    # 21*21 residual nodes and at their four shifted sets, each call its own
    # outermost `planefield.invert` span
    spans = _load_spans()
    sec = seed7_reports["deg1_triple"].sections[0]
    with spans.Recorder(spans.TARGETS) as recorder:
        assembly._fd_residuals(sec.field, sec.residuals.grid)
    assert recorder.round.calls["planefield.invert"] == 4
    assert recorder.round.counts["planefield.invert_points"] == 2 * 5 * 441
    assert spans.installed_wrappers() == []
