"""The benchmark's span targets must keep resolving in bladekit.

``benchmarks/spans.py`` times library functions by name.  A refactor that
drops or renames one of them would silently empty its per-layer figures, so
tier-1 checks every target here; the benchmark files are only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
