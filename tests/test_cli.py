"""The ``blade`` command line on a small degree-1 design, and its config errors."""

import json
import logging
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bladekit import cli
from bladekit.config import parse_config_dict
from bladekit.errors import BadValue, BladekitError, StagnationOffCircle
from bladekit.geometry import Contour
from bladekit.inverse import PlanarSolution, canonical_map
from bladekit.positioning import METHODS

SECTION_FILES = ("lower.csv", "upper.csv", "shift.json", "residuals.json", "section.svg")


@pytest.fixture(scope="module")
def design():
    lower = oracles.joukowski_flow(center=-0.08 + 0.05j, beta=0.10).distribution(512, 512)
    upper = oracles.joukowski_flow(center=-0.09 + 0.06j, beta=0.12).distribution(512, 512)
    return {"sections": [{"id": "s0", "degree": 1, "w1": 0.05,
                          "lower": lower.to_json(), "upper": upper.to_json()}],
            "discretization": {"n_boundary": 64},
            "positioning": {"method": "lsq"}}


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "design.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_solve_writes_artifacts_and_repeats_bytes(design, tmp_path):
    config = _write_config(tmp_path, design)
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["solve", "--config", config, "--out", str(out)]) == 0
        for name in SECTION_FILES:
            assert os.path.getsize(out / "s0" / name) > 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["passed"] is True
    assert [s["id"] for s in report["sections"]] == ["s0"]


def test_verify_passes(design, tmp_path):
    assert cli.main(["verify", "--config", _write_config(tmp_path, design)]) == 0


SMALL = oracles.joukowski_flow().distribution(64, 64).to_json()


def _section(sid, degree=1, **extra):
    return {"id": sid, "degree": degree, "lower": SMALL, "upper": SMALL, **extra}


def _json_with(obj, literal: str) -> bytes:
    """``obj`` as JSON text with its one string ``"@"`` replaced by ``literal``."""
    return json.dumps(obj).replace('"@"', literal).encode()


def _samples_with(literal: str) -> bytes:
    """SMALL with one sample speed written as ``literal``."""
    rows = [list(row) for row in SMALL["samples"]]
    rows[1][1] = "@"
    return _json_with(dict(SMALL, samples=rows), literal)


# a config file whose one section names no file, and whose w1 is "@"
LITERAL_CONFIG = {"sections": [_section("s0", w1="@")], "discretization": {"n_boundary": 64}}
DEEP = "[" * 100_000 + "]" * 100_000


MALFORMED = [
    # (where in the config, the bad value, the reported pointer, the message)
    (["discretization"], [1], "/discretization", "expected an object"),
    (["positioning"], "lsq", "/positioning", "expected an object"),
    (["output"], 3, "/output", "expected an object"),
    (["output"], {"formats": "json"}, "/output/formats", "expected a list"),
    (["output"], {"directory": 1}, "/output/directory", "expected a string"),
    (["sections", 0, "w1"], {"from_transversal": 0.5},
     "/sections/0/w1/from_transversal", "expected an object"),
    (["sections", 0, "w1"], {"from_transversal": {"w_ref": 0.1, "h_ref": 0}},
     "/sections/0/w1/from_transversal/h_ref", "reference height must be nonzero"),
    # a section id names a directory under --out and must not leave it
    (["sections", 0, "id"], "../escaped", "/sections/0/id", "section id must be a plain file name"),
    (["sections", 0, "id"], "a/b", "/sections/0/id", "section id must be a plain file name"),
    (["sections", 0, "id"], "a\\b", "/sections/0/id", "section id must be a plain file name"),
    (["sections", 0, "id"], ".", "/sections/0/id", "section id must be a plain file name"),
    (["sections", 0, "id"], "..", "/sections/0/id", "section id must be a plain file name"),
    # the section directory would take the report's place beside it
    (["sections", 0, "id"], "report.json", "/sections/0/id",
     "section id report.json is the report's file name"),
    # bools are ints to Python, not to the config
    (["sections", 0, "degree"], True, "/sections/0/degree", "degree must be 1 or 2"),
    (["sections", 0, "degree"], 1.0, "/sections/0/degree", "degree must be 1 or 2"),
    (["positioning"], {"method": "lift", "box": [-0.3, -0.5, 0.5, 0.3], "partition": True},
     "/positioning/partition", "partition must be a positive integer"),
    # the design's contours have n_boundary = 64 nodes, the upper surface none
    (["positioning"], {"method": "lift", "box": [-0.3, -0.5, 0.5, 0.3], "partition": 64},
     "/positioning/partition", "partition must be below n_boundary = 64"),
    # a distribution file is strict JSON: no NaN or Infinity literal, no number
    # past the float range (the finite checks behind it take in-memory trees,
    # test_config.py::test_non_finite_distribution_number_is_refused_at_its_pointer)
    (["sections", 0, "lower"], _json_with(dict(SMALL, v_inf="@"), "NaN"), "/sections/0/lower",
     "invalid JSON"),
    (["sections", 0, "lower"], _json_with(dict(SMALL, total_length="@"), "Infinity"),
     "/sections/0/lower", "invalid JSON"),
    (["sections", 0, "lower"], _json_with(dict(SMALL, incidence="@"), "-Infinity"),
     "/sections/0/lower", "invalid JSON"),
    (["sections", 0, "upper"], _json_with(dict(SMALL, incidence="@"), "NaN"), "/sections/0/upper",
     "invalid JSON"),
    (["sections", 0, "lower", "incidence"], "0.1", "/sections/0/lower",
     "incidence must be a finite real number"),
    (["sections", 0, "lower", "branch_indices", 1], 512.7, "/sections/0/lower",
     "branch_indices must be two integers"),
    # samples are JSON numbers: np.asarray reads strings and bools as numbers
    (["sections", 0, "lower", "samples", 1, 1], "0.05", "/sections/0/lower",
     "samples must be pairs of JSON numbers"),
    (["sections", 0, "lower", "samples", 1, 1], True, "/sections/0/lower",
     "samples must be pairs of JSON numbers"),
    (["sections", 0, "lower", "samples", 0, 0], False, "/sections/0/lower",
     "samples must be pairs of JSON numbers"),
    (["sections", 0, "lower", "samples", 1], [0.1, 0.2, 0.3], "/sections/0/lower",
     "samples must be pairs of JSON numbers"),
    # bytes are a file's text: the config's own at the empty path, else that
    # of a file the config names there
    (["sections", 0, "lower"], b'{"samples": [', "/sections/0/lower", "invalid JSON"),
    ([], b'{"sections": "\xff"}', "/", "invalid JSON"),
    # refused at the config's pointer: as too deep by a decoder that limits
    # nesting, or as a top level that is not an object by one that does not
    ([], DEEP.encode(), "/", ""),
    # a distribution path that names no readable file
    (["sections", 0, "lower"], ".", "/sections/0/lower", "cannot read"),
    (["sections", 0, "lower"], "missing.json", "/sections/0/lower", "file not found"),
    # appended below the rows above, so that their ids keep their numbers
    ([], b"[1]", "/", "top level must be an object"),
    ([], b"{}", "/sections", "required field is missing"),
    (["sections"], [], "/sections", "need a nonempty list of sections"),
    (["sections", 0], 3, "/sections/0", "section must be an object"),
    (["sections", 0, "id"], "", "/sections/0/id", "section id must be a nonempty string"),
    (["sections", 0, "lower"], 3, "/sections/0/lower",
     "expected a distribution object or a file path"),
    (["sections", 0, "lower"], {"total_length": 1.0}, "/sections/0/lower/samples",
     "required field is missing"),
    (["discretization"], {"n_boundary": 64.0}, "/discretization/n_boundary",
     "expected an integer"),
    (["discretization"], {"n_boundary": 32}, "/discretization/n_boundary", "must be at least 64"),
    (["discretization"], {"n_boundary": 96}, "/discretization/n_boundary",
     "96 is not a power of two"),
    (["sections", 0, "degree"], 2, "/sections/0/w2", "required field is missing"),
    (["sections"], [_section("s0", 2, w2=0.1), _section("s1", 2, w2=0.1)], "/sections/1/w2",
     "w2 of a chained section comes from its data"),
    # refused where the degree is read, before the section's blades or w2
    (["sections"], [_section("s0"), {"id": "s1", "degree": 2, "w2": 0.1}], "/sections/1/degree",
     "degree must be uniform across sections, section 0 has degree 1"),
    (["sections"], [_section("s0"), _section("s0")], "/sections/1/id",
     "section ids must be unique"),
    (["positioning"], {"method": "simplex"}, "/positioning/method", "method must be one of"),
    (["positioning"], {"box": [0, 0, 1]}, "/positioning/box", "box must be [x0, y0, x1, y1]"),
    (["positioning"], {"box": [0, 0, 0, 1]}, "/positioning/box", "box must have positive extent"),
    # the area method's planes are the field's own, one unit apart
    (["positioning"], {"method": "area", "spacing": 1.0}, "/positioning/spacing",
     "unknown key, positioning takes only ('method', 'box', 'partition')"),
    (["positioning"], {"method": "lift", "partition": 32}, "/positioning/box",
     "required field is missing"),
    (["positioning"], {"method": "lift", "box": [0, 0, 1, 1]}, "/positioning/partition",
     "required field is missing"),
    (["output"], {"formats": ["pdf"]}, "/output/formats/0", "unknown format 'pdf'"),
    # a duplicate id is refused where it is read, before the section's blades
    (["sections"], [_section("s0"), {"id": "s0"}], "/sections/1/id",
     "section ids must be unique"),
    # a number that no float holds
    (["sections", 0, "lower"], _samples_with("1e400"), "/sections/0/lower", "invalid JSON"),
    # the config file is strict JSON too (its NaN and Infinity literals are
    # test_non_finite_config_number_exits_2's)
    ([], _json_with(LITERAL_CONFIG, "1e400"), "/", "invalid JSON"),
    # a lone surrogate escape, which no file name holds
    ([], json.dumps({"sections": [_section("s\ud800")]}).encode(), "/", "invalid JSON"),
    # nesting below the top level, past any recursion limit: refused at the
    # pointer of the file that holds it, whether the decoder or a check finds it
    ([], _json_with({"sections": [_section("s0")], "discretization": "@"}, DEEP), "/",
     "invalid JSON"),
    (["sections", 0, "lower"], _json_with(dict(SMALL, v_inf="@"), DEEP), "/sections/0/lower",
     "invalid JSON"),
    # a key that nothing reads is refused, not dropped, in every config object
    (["positionning"], {"method": "area"}, "/positionning",
     "unknown key, the config takes only ('sections', 'discretization', 'positioning', "
     "'output')"),
    (["sections", 0, "colour"], "red", "/sections/0/colour",
     "unknown key, a section takes only ('id', 'degree', 'lower', 'upper', 'w1', 'w2')"),
    (["discretization"], {"n_boundary": 64, "n": 128}, "/discretization/n",
     "unknown key, discretization takes only ('n_boundary',)"),
    (["output"], {"formats": ["json"], "dir": "elsewhere"}, "/output/dir",
     "unknown key, output takes only ('directory', 'formats')"),
    (["sections", 0, "w1"], {"from_transversal": {"w_ref": 0.1, "h_ref": 1.0}, "h_ref": 2.0},
     "/sections/0/w1/h_ref", "unknown key, w1 takes only ('from_transversal',)"),
    (["sections", 0, "w1"], {"from_transversal": {"w_ref": 0.1, "h_ref": 1.0, "w2": 0.1}},
     "/sections/0/w1/from_transversal/w2",
     "unknown key, from_transversal takes only ('w_ref', 'h_ref')"),
    # RFC 6901 escapes the key's "~" and "/"
    (["output"], {"a/b~c": 1}, "/output/a~1b~0c", "unknown key, output takes only"),
]


@pytest.mark.parametrize("path, value, pointer, message", MALFORMED,
                         ids=[case[2] for case in MALFORMED])
def test_malformed_config_exits_2(design, tmp_path, caplog, path, value, pointer, message):
    cfg = json.loads(json.dumps(design))
    if isinstance(value, bytes) and path:
        (tmp_path / "named.json").write_bytes(value)
        value = "named.json"
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if path:
        node[path[-1]] = value
        config = _write_config(tmp_path, cfg)
    else:
        config = str(tmp_path / "design.json")
        (tmp_path / "design.json").write_bytes(value)
    written = sorted(os.listdir(tmp_path))
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{pointer}: {message}" in caplog.text
    assert sorted(os.listdir(tmp_path)) == written


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("path, value, pointer", [
    (["sections", 0, "lower"], "a\x00b.json", "/sections/0/lower"),
    (["output", "directory"], "a\x00b", "/output/directory"),
    (["output", "directory"], "", "/output/directory"),
], ids=["lower with NUL", "directory with NUL", "empty directory"])
def test_unusable_path_exits_2(design, tmp_path, monkeypatch, caplog, command, path, value,
                               pointer):
    # refused at parse time with a pointer, not a traceback; solve writes into
    # the config's directory, resolved from the working directory
    cfg = dict(json.loads(json.dumps(design)), output={})
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = _write_config(tmp_path, cfg)
    monkeypatch.chdir(tmp_path)
    written = sorted(os.listdir(tmp_path))
    assert cli.main([command, "--config", config]) == 2
    assert f"{pointer}: " in caplog.text
    assert sorted(os.listdir(tmp_path)) == written


def test_section_solvable_only_after_its_transversal_term_exits_0(tmp_path):
    # each distribution as given has a circulation 1% above 4*pi*v_inf, which
    # puts the canonical stagnation points off the circle; the section's w1
    # adds w1 times the distance to the nearest branch point to the speeds,
    # which brings it back, and only that modified data is solved
    raw = []
    for centre, beta in ((-0.08 + 0.05j, 1.2), (-0.09 + 0.06j, 1.22)):
        d = oracles.joukowski_flow(center=centre, beta=beta).distribution(512, 512)
        per_w1 = (d.modified(0.01).circulation_smooth - d.circulation_smooth) / 0.01
        raw.append((d, (1.01 * 4 * np.pi * d.v_inf - d.circulation_smooth) / per_w1))
    w = max(dw for _, dw in raw)
    raw = [d.modified(w) for d, _ in raw]
    for d in raw:
        with pytest.raises(StagnationOffCircle):
            canonical_map(d)
    cfg = {"sections": [{"id": "s0", "degree": 1, "w1": -w,
                         "lower": raw[0].to_json(), "upper": raw[1].to_json()}],
           "discretization": {"n_boundary": 64},
           "positioning": {"method": "lsq"}}
    out = _solve(tmp_path, cfg, "modified")
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["passed"] is True


def test_speed_spline_off_sign_fails_the_section(design, tmp_path, caplog):
    # every sample has the right sign, but the potential rises across the
    # falling arc's first knot interval, also after the section's w1 term
    cfg = json.loads(json.dumps(design))
    cfg["sections"][0]["lower"] = oracles.step_distribution(v31=0.2, v33=-0.01).to_json()
    config = _write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "section s0 failed: speed spline changes sign inside an arc" in caplog.text
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is False


NON_FINITE = [
    # (config updates, the reported pointer)
    ({"positioning": {"method": "lift", "box": [0, 0, float("inf"), 1], "partition": 32}},
     "/positioning/box/2"),
    ({"sections": {"degree": 2, "w2": float("nan")}}, "/sections/0/w2"),
    ({"sections": {"w1": float("inf")}}, "/sections/0/w1"),
]


@pytest.mark.parametrize("updates, pointer", NON_FINITE, ids=[case[1] for case in NON_FINITE])
def test_non_finite_config_number_exits_2(design, tmp_path, caplog, updates, pointer):
    # a library caller's tree may hold NaN and infinities: refused at the
    # number's pointer; json.dumps writes them as NaN and Infinity literals,
    # which no config file may hold
    cfg = json.loads(json.dumps(design))
    for key, values in updates.items():
        (cfg["sections"][0] if key == "sections" else cfg[key]).update(values)
    with pytest.raises(BadValue) as err:
        parse_config_dict(cfg)
    assert str(err.value).startswith(f"{pointer}: expected a finite number")
    config = _write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "/: invalid JSON" in caplog.text
    assert not (tmp_path / "out").exists()


def _datum(w_ref, h_ref):
    return {"from_transversal": {"w_ref": w_ref, "h_ref": h_ref}}


NON_FINITE_CONSTANTS = {
    # degree, first section's w1 and w2, second section's w1 (None: no second
    # section), the reported pointer and message
    "chained datum, h_ref**2 underflows":
        (2, 0.05, 0.1, _datum(0.2, 1e-200), "/sections/1/w1/from_transversal",
         "w2 = inf is not a finite number"),
    "chained datum, w2 overflows":
        (2, 0.05, 0.1, _datum(1e308, 1e-10), "/sections/1/w1/from_transversal",
         "w2 = inf is not a finite number"),
    "chain rule overflows":
        (2, 0.05, 1e308, 0.0, "/sections/1/w1", "w1 = inf is not a finite number"),
    "chain rule overflows before the datum":
        (2, 0.05, 1e308, _datum(0.2, 1.0), "/sections/1/w1", "w1 = inf is not a finite number"),
    "degree-1 datum overflows":
        (1, _datum(1e300, 1e-300), None, None, "/sections/0/w1/from_transversal",
         "w1 = inf is not a finite number"),
}


@pytest.mark.parametrize("degree, w1, w2, next_w1, pointer, message",
                         NON_FINITE_CONSTANTS.values(), ids=NON_FINITE_CONSTANTS)
def test_non_finite_transversal_constant_exits_2(design, tmp_path, caplog, degree, w1, w2,
                                                 next_w1, pointer, message):
    # the constants are resolved at parse time: a run whose w1 or w2 is not a
    # finite number is refused there with a pointer and writes nothing
    cfg = json.loads(json.dumps(design))
    first = cfg["sections"][0]
    first.update(degree=degree, w1=w1)
    if w2 is not None:
        first["w2"] = w2
    if next_w1 is not None:
        cfg["sections"].append({**first, "id": "s1", "w1": next_w1})
        del cfg["sections"][1]["w2"]
    config = _write_config(tmp_path, cfg)
    written = sorted(os.listdir(tmp_path))
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{pointer}: {message}" in caplog.text
    assert sorted(os.listdir(tmp_path)) == written


# for this design the lift score is largest just past the box's edge x1 = 0.5
POSITIONING = {
    "lift": {"method": "lift", "box": [-0.3, -0.5, 0.5, 0.3], "partition": 32},
    "area": {"method": "area"},
}


def _solve(tmp_path, cfg, name):
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("method", sorted(POSITIONING))
def test_degree2_section_with_positioning(design, tmp_path, method):
    cfg = json.loads(json.dumps(design))
    cfg["sections"][0].update(degree=2, w2=0.1)
    cfg["positioning"] = POSITIONING[method]
    out = _solve(tmp_path, cfg, method)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    shift = report["sections"][0]["shift"]
    assert shift["method"] == method
    if method == "lift":
        x0, y0, x1, y1 = POSITIONING["lift"]["box"]
        assert x0 <= shift["dx"] <= x1 and y0 <= shift["dy"] <= y1


@pytest.mark.parametrize("positioning, argv", [
    ({"method": "lsq"}, ["--method", "lsq"]),
    ({"method": "area"}, ["--method", "area"]),
], ids=["lsq", "area"])
def test_position_command_repeats_the_solve_shift(design, tmp_path, monkeypatch,
                                                  positioning, argv):
    # lsq and area never need the node speeds that only lift reads
    def no_speeds(sol):
        raise AssertionError("node speeds computed for " + positioning["method"])

    monkeypatch.setattr(PlanarSolution, "node_speeds", property(no_speeds))
    cfg = json.loads(json.dumps(design))
    cfg["positioning"] = positioning
    s0 = _solve(tmp_path, cfg, positioning["method"]) / "s0"
    shift = tmp_path / "shift.json"
    assert cli.main(["position", "--contours", str(s0 / "lower.csv"), str(s0 / "upper.csv"),
                     *argv, "--out", str(shift)]) == 0
    assert shift.read_bytes() == (s0 / "shift.json").read_bytes()


def test_degree2_without_w2_is_degree1(design, tmp_path):
    # degree 1 is the degree-2 field with w2 = 0: same residuals, same shift
    outs = []
    for degree in (1, 2):
        cfg = json.loads(json.dumps(design))
        cfg["sections"][0]["degree"] = degree
        if degree == 2:
            cfg["sections"][0]["w2"] = 0
        outs.append(_solve(tmp_path, cfg, f"degree{degree}") / "s0")
    for name in ("residuals.json", "shift.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


GOOD_CONTOUR = "index,x,y\n0,0.0,0.0\n1,1.0,0.0\n2,1.0,1.0\n3,0.0,1.0\n"
SPEED_CONTOUR = GOOD_CONTOUR.replace("y\n", "y,v\n").replace(".0\n", ".0,1.0\n")
BAD_CONTOURS = {
    # file text, 1-based line of the bad row
    "short row": ("index,x,y\n0,0.0,0.0\n1,1.0\n2,1.0,1.0\n", 3),
    "no v cell": ("index,x,y,v\n0,0.0,0.0,1.0\n\n1,1.0,0.0,1.0\n2,1.0,1.0\n", 5),
    "not a number": ("index,x,y\n0,abc,1\n1,1.0,0.0\n2,1.0,1.0\n", 2),
    "nan_v": ("index,x,y,v\n0,0.0,0.0,1.0\n1,1.0,0.0,nan\n2,1.0,1.0,1.0\n3,0.0,1.0,1.0\n", 3),
    "inf_x": ("index,x,y\n0,0.0,0.0\n1,1.0,0.0\n2,inf,1.0\n3,0.0,1.0\n", 4),
    # a cell past the header is refused, not dropped
    "extra cell": ("index,x,y\n0,1,2,3\n1,1.0,0.0\n2,1.0,1.0\n3,0.0,1.0\n", 2),
    "extra cell past v": ("index,x,y,v\n0,0.0,0.0,1.0\n1,1.0,0.0,1.0,9\n2,1.0,1.0,1.0\n", 3),
    "not utf-8": (b"index,x,y\n0,0.0,0.0\n\n1,1.0,\xe90.0\n2,1.0,1.0\n", 4),
}


@pytest.mark.parametrize("case", sorted(BAD_CONTOURS))
def test_malformed_contour_csv_exits_2(tmp_path, caplog, case):
    text, line = BAD_CONTOURS[case]
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    good.write_text(GOOD_CONTOUR, encoding="utf-8")
    assert cli.main(["position", "--contours", str(bad), str(good)]) == 2
    assert f"{bad}: line {line}:" in caplog.text


@pytest.mark.parametrize("message, argv", [
    ("shift box must be finite", ["--method", "lift", "--box", "0", "0", "inf", "1",
                                  "--partition", "2"]),
], ids=["box"])
def test_non_finite_position_option_exits_2(tmp_path, caplog, message, argv):
    path = tmp_path / "c.csv"
    path.write_text(SPEED_CONTOUR, encoding="utf-8")
    assert cli.main(["position", "--contours", str(path), str(path), *argv]) == 2
    assert message in caplog.text


def test_position_takes_no_plane_distance(tmp_path, capsys):
    # the area method's planes are the field's, one unit apart; a caller whose
    # planes are s apart passes the contours over s
    path = tmp_path / "c.csv"
    path.write_text(SPEED_CONTOUR, encoding="utf-8")
    out = tmp_path / "shift.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["position", "--contours", str(path), str(path), "--method", "area",
                  "--spacing", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --spacing 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("message, v_column, argv", [
    ("--box is required for the lift method", True, ["--partition", "2"]),
    ("--partition is required for the lift method", True, ["--box", "0", "0", "1", "1"]),
    ("lift positioning needs a 'v' column in both contour files", False,
     ["--box", "0", "0", "1", "1", "--partition", "2"]),
], ids=["box", "partition", "v column"])
def test_lift_position_without_its_inputs_exits_2(tmp_path, caplog, message, v_column, argv):
    path = tmp_path / "c.csv"
    path.write_text(SPEED_CONTOUR if v_column else GOOD_CONTOUR, encoding="utf-8")
    out = tmp_path / "shift.json"
    assert cli.main(["position", "--contours", str(path), str(path), "--method", "lift",
                     *argv, "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


EXTREMES = (1e-320, 1e-300, 1e-10, 1e10, 1e154, 1e300, 1.7e308)
POSITION_NUMBERS = st.floats(-10.0, 10.0) | st.sampled_from(EXTREMES + tuple(-x for x in EXTREMES))
# contour scales: the largest keeps every coordinate below 1.6e308
SCALES = st.sampled_from((1.0, 1e-320, 1e-300, 1e-10, 1e10, 1e154, 1e300, 5e306))
# rows that no header admits: a word, too few cells, too many, non-finite numbers
BAD_ROWS = ("0,abc,1", "0,1", "0,1,2,3,4", "0,nan,1,1", "0,1,1e999,1")


@st.composite
def contour_files(draw, n, speeds, scale, flawed):
    """CSV text of a contour of n rows, with a v column if ``speeds``; its
    points; and, if ``flawed``, the 1-based line of its one malformed line (a
    bad header or a bad row).  Node i has x in [3i - 1, 3i + 1] times the
    scale, so no edge has zero length unless the scale is tiny."""
    unit = st.floats(-1.0, 1.0)
    rows = draw(st.lists(st.tuples(unit, unit, unit), min_size=n, max_size=n))
    rows = [(scale * (x + 3 * i), scale * y, v) for i, (x, y, v) in enumerate(rows)]
    head = draw(st.integers(0, 2))          # blank lines before the header
    lines = [""] * head + ["index,x,y,v" if speeds else "index,x,y"]
    lines += [f"{i},{x!r},{y!r}" + (f",{v!r}" if speeds else "")
              for i, (x, y, v) in enumerate(rows)]
    bad = draw(st.integers(head, len(lines))) if flawed else None
    if bad == head:
        lines[bad] = "index,y,x"
    elif bad is not None:
        lines.insert(bad, draw(st.sampled_from(BAD_ROWS)))
    return "\n".join(lines) + "\n", [row[:2] for row in rows], None if bad is None else bad + 1


class _ErrorLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _position(texts, options) -> tuple:
    """``blade position`` on the contour texts: exit code, error messages,
    the shift written and the two file paths."""
    errors = _ErrorLog()
    logging.getLogger("bladekit").addHandler(errors)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{name}.csv") for name in "ab"]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        out = os.path.join(tmp, "shift.json")
        try:
            rc = cli.main(["position", "--contours", *paths, "--out", out, *options])
        finally:
            logging.getLogger("bladekit").removeHandler(errors)
        shift = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                shift = json.load(fh)
    assert (shift is not None) == (rc == 0) and len(errors.messages) == (rc == 2)
    return rc, errors.messages, shift, paths


@st.composite
def file_pairs(draw):
    """Two contour files of 0-10 rows each, with or without speeds at one
    scale, each malformed or not."""
    speeds, scale = draw(st.booleans()), draw(SCALES)
    return [draw(contour_files(draw(st.integers(0, 10)), speeds, scale, draw(st.booleans())))
            for _ in "ab"]


@given(files=file_pairs())
def test_position_names_the_malformed_file_and_line(files):
    # the first file that is malformed is named, with the line of a bad line
    rc, messages, _, paths = _position([text for text, _, _ in files], [])
    expected = None
    for path, (_, points, bad) in zip(paths, files):
        if bad is not None:
            expected = f"{path}: line {bad}: "
        else:
            try:
                with np.errstate(over="raise"):     # edges past the float range
                    Contour(np.array(points))
            except (BladekitError, FloatingPointError):
                expected = f"{path}: "
        if expected:
            break
    if expected:
        assert rc == 2 and messages[0].startswith(expected), messages
    else:
        assert rc in (0, 2)


@st.composite
def well_formed_pairs(draw):
    """Texts of two well-formed contour files of n nodes with speeds at one
    scale, and a partition index, in range or not.  The scale is also the
    contours' size over the area method's plane distance, which is 1."""
    n, scale = draw(st.integers(3, 10)), draw(SCALES | st.floats(1e-320, 5e306))
    texts = [draw(contour_files(n, True, scale, False))[0] for _ in "ab"]
    return texts, draw(st.integers(1, n - 1) | st.integers(-1, 12))


@pytest.mark.parametrize("method", METHODS)
@given(files=well_formed_pairs(),
       box=st.builds(lambda x, y, wx, wy: (x, y, x + wx, y + wy), POSITION_NUMBERS,
                     POSITION_NUMBERS, *[st.floats(1e-3, 10.0)] * 2)
       | st.tuples(*[POSITION_NUMBERS] * 4))
def test_position_exits_0_or_2_on_any_numbers(method, files, box):
    # well-formed files at any scale and any options: a finite shift (inside
    # the box for lift), or exit 2 with one message; never a traceback
    texts, partition = files
    rc, _, shift, _ = _position(texts, ["--method", method, "--partition", str(partition),
                                        "--box", *map(repr, box)])
    assert rc in (0, 2)
    if rc == 0:
        assert np.isfinite([shift["dx"], shift["dy"], shift["objective"]]).all()
        if method == "lift":
            assert box[0] <= shift["dx"] <= box[2] and box[1] <= shift["dy"] <= box[3]


def test_position_prints_the_shift_without_out(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text(GOOD_CONTOUR, encoding="utf-8")
    out = tmp_path / "shift.json"
    assert cli.main(["position", "--contours", str(path), str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["position", "--contours", str(path), str(path)]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", ["missing contour", "out under a missing directory"])
def test_position_os_error_exits_2(tmp_path, caplog, case):
    path = tmp_path / "c.csv"
    path.write_text(GOOD_CONTOUR, encoding="utf-8")
    missing = tmp_path / "missing" / "shift.json"
    argv = (["--contours", str(path), str(tmp_path / "none.csv")] if case == "missing contour"
            else ["--contours", str(path), str(path), "--out", str(missing)])
    assert cli.main(["position", *argv]) == 2
    assert "No such file or directory" in caplog.text
    assert not missing.parent.exists()


def test_solve_out_naming_a_file_exits_2(design, tmp_path, caplog, monkeypatch):
    # refused before the pipeline runs: no section is solved for nothing
    calls = []
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg: calls.append(cfg))
    out = tmp_path / "out"
    out.write_text("", encoding="utf-8")
    assert cli.main(["solve", "--config", _write_config(tmp_path, design),
                     "--out", str(out)]) == 2
    assert "File exists" in caplog.text
    assert out.read_text(encoding="utf-8") == ""
    assert calls == []


@pytest.mark.parametrize("command", ["solve", "position"])
def test_empty_out_exits_2(design, tmp_path, monkeypatch, caplog, capsys, command):
    # an explicit empty --out is refused, not replaced by the config's
    # directory or by stdout, before any section is solved or positioned
    monkeypatch.chdir(tmp_path)
    calls = []
    for name in ("run_pipeline", "position"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: calls.append(a) or real(*a))
    if command == "solve":
        argv = ["solve", "--config", _write_config(tmp_path, design)]
    else:
        (tmp_path / "c.csv").write_text(GOOD_CONTOUR, encoding="utf-8")
        argv = ["position", "--contours", "c.csv", "c.csv"]
    written = sorted(os.listdir(tmp_path))
    assert cli.main([*argv, "--out", ""]) == 2
    assert "--out: empty path" in caplog.text
    assert sorted(os.listdir(tmp_path)) == written
    assert capsys.readouterr().out == ""
    assert calls == []


@pytest.mark.parametrize("char, message", [
    ("\ud800", "not encodable as a file name"),
    ("\x00", "path contains a NUL character"),
], ids=["surrogate", "NUL"])
@pytest.mark.parametrize("command, flag", [
    ("solve", "--config"), ("solve", "--out"), ("position", "--contours"), ("position", "--out"),
])
def test_path_no_file_name_holds_exits_2(design, tmp_path, monkeypatch, caplog, capsys,
                                         command, flag, char, message):
    # a library caller of main can pass a str that no command line carries; it
    # is refused before anything is read, solved or written
    monkeypatch.chdir(tmp_path)
    calls = []
    for fn in ("run_pipeline", "position"):
        monkeypatch.setattr(cli, fn, lambda *a: calls.append(a))
    (tmp_path / "c.csv").write_text(GOOD_CONTOUR, encoding="utf-8")
    inputs = ["--config", _write_config(tmp_path, design)] if command == "solve" \
        else ["--contours", "c.csv", "c.csv"]
    argv = [command, *inputs, "--out", "out"]
    argv[argv.index(flag) + 1] = f"a{char}b"
    written = sorted(os.listdir(tmp_path))
    assert cli.main(argv) == 2
    assert f"{flag}: {message}" in caplog.text
    assert sorted(os.listdir(tmp_path)) == written
    assert capsys.readouterr().out == ""
    assert calls == []


def test_empty_contour_file_exits_2(tmp_path, caplog):
    empty, good = tmp_path / "empty.csv", tmp_path / "good.csv"
    empty.write_text("\n \n", encoding="utf-8")
    good.write_text(GOOD_CONTOUR, encoding="utf-8")
    assert cli.main(["position", "--contours", str(empty), str(good)]) == 2
    assert f"{empty}: empty contour file" in caplog.text
