"""The seed-7 workloads' figures against their committed record.

`workload_record` builds the tiny seed-7 ``deg1_triple``, ``deg2_lift`` and
chain-probe configs and runs each through the pipeline; the record,
``workload_record.json``, holds every ``report.json`` figure and verdict,
the shifts, and a digest of each contour from one such run.  It is a
regression record, not a claim of correctness: it pins today's behaviour,
the under-resolved n 64 blades included.  A change that means to move a
figure regenerates the record with ``tests/workload_record.py`` and states
every move.

Tolerances, by what sets each figure:

* Verdicts, errors, ids, degrees, node counts and the check tolerances are
  exact: they are decisions and counts, not roundoff.
* Contour digests, shifts, the residual box (from the contours), closure
  defects, correction norms and the config's w1 and w2 are sums and
  solves over quantities no larger than the section's scale S, the
  largest |z| of its two contours.  A change that only regroups such
  arithmetic moves each by a few roundings of that scale: within
  ``ULPS * eps * max(S, |figure|)``, ULPS = 4.
* The figures read from the field at inverted points, the ``fd_*``
  residuals with their checks and the glue figures, are set by where
  Newton stops.  `SeriesMap.invert` stops at ``|z(zeta) - z| <= 1e-13``
  of the point's scale, and equally valid inversions differ by ~1e-15 in
  zeta; the central differences divide such differences by 2e-4, which
  has moved the FD figures by up to 1.2e-11.  They are compared at an
  absolute 1e-10.
"""

import json
import math

import pytest

import workload_record

ULPS = 4
EPS = 2.0 ** -52
NEWTON_ABS = 1e-10
FIELD_FIGURES = ("fd_", "residual_fd", "glue_")


@pytest.fixture(scope="module")
def runs(seed7_reports):
    return {name: workload_record.figures(report) for name, report in seed7_reports.items()}


@pytest.fixture(scope="module")
def record():
    with open(workload_record.RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def _leaves(obj, path=()):
    """``(path, value)`` of every leaf; a check's value is keyed by its name."""
    if isinstance(obj, dict):
        key = (obj["name"],) if {"name", "value"} <= obj.keys() else ()
        for k, v in obj.items():
            yield from _leaves(v, path + key + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, obj


def _tolerance(path, scale):
    if any(str(p).startswith(FIELD_FIGURES) for p in path):
        return lambda want: NEWTON_ABS
    return lambda want: ULPS * EPS * max(scale, abs(want))


def _compare(got, want, scale_of):
    moves = []
    got_leaves = dict(_leaves(got))
    want_leaves = dict(_leaves(want))
    assert got_leaves.keys() == want_leaves.keys()
    for path, w in want_leaves.items():
        g = got_leaves[path]
        exact = (isinstance(w, (bool, str, int)) or w is None or path[-1] in ("tolerance", "nodes"))
        if exact:
            if g != w or type(g) is not type(w):
                moves.append((path, w, g))
        elif not (math.isnan(w) and math.isnan(g)):
            if not abs(g - w) <= _tolerance(path, scale_of(path))(w):
                moves.append((path, w, g))
    return moves


@pytest.mark.parametrize("name", ["deg1_triple", "deg2_lift", "chain_probe"])
def test_figures_match_the_record(name, runs, record):
    got, want = runs[name], record[name]
    scales = {sid: max(d["lower"]["max_abs"], d["upper"]["max_abs"])
              for sid, d in want["sections"].items()}
    ids = [s["id"] for s in want["report"]["sections"]]

    def scale_of(path):
        if path[0] == "sections":
            return scales[path[1] if isinstance(path[1], str) else ids[path[1]]]
        return max(scales.values())

    want_report = {k: v for k, v in want["report"].items() if k != "version"}
    got_report = {k: v for k, v in got["report"].items() if k != "version"}
    moves = _compare(got_report, want_report, scale_of)
    moves += _compare({"sections": got["sections"]}, {"sections": want["sections"]}, scale_of)
    assert moves == []


def test_record_has_every_figure_the_report_has(record):
    # each workload passes, and its record carries each section's checks,
    # residuals, shift and both contour digests
    for name, run in record.items():
        assert run["report"]["passed"] is True, name
        for sec in run["report"]["sections"]:
            assert {"checks", "residuals", "shift", "closure_lower", "closure_upper"} <= sec.keys()
            digest = run["sections"][sec["id"]]
            assert digest["lower"]["nodes"] == digest["upper"]["nodes"] == workload_record.N
