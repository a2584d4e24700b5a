"""The ``blade`` command line on a small degree-1 design, and its config errors."""

import json
import os

import numpy as np
import pytest

import oracles
from bladekit import cli
from bladekit.errors import StagnationOffCircle
from bladekit.inverse import canonical_map

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
    # bools are ints to Python, not to the config
    (["sections", 0, "degree"], True, "/sections/0/degree", "degree must be 1 or 2"),
    (["sections", 0, "degree"], 1.0, "/sections/0/degree", "degree must be 1 or 2"),
    (["positioning"], {"method": "lift", "box": [-0.3, -0.5, 0.5, 0.3], "partition": True},
     "/positioning/partition", "partition must be a positive integer"),
    # json.load reads NaN and Infinity; a distribution takes finite reals only
    (["sections", 0, "lower", "v_inf"], float("inf"), "/sections/0/lower",
     "v_inf must be a finite real number"),
    (["sections", 0, "lower", "total_length"], float("inf"), "/sections/0/lower",
     "total_length must be a finite real number"),
    (["sections", 0, "lower", "incidence"], float("nan"), "/sections/0/lower",
     "incidence must be a finite real number"),
    (["sections", 0, "upper", "incidence"], float("inf"), "/sections/0/upper",
     "incidence must be a finite real number"),
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
]


@pytest.mark.parametrize("path, value, pointer, message", MALFORMED,
                         ids=[case[2] for case in MALFORMED])
def test_malformed_config_exits_2(design, tmp_path, caplog, path, value, pointer, message):
    cfg = json.loads(json.dumps(design))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = _write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{pointer}: {message}" in caplog.text
    assert os.listdir(tmp_path) == ["design.json"]


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
    ({"positioning": {"method": "area", "spacing": float("inf")}}, "/positioning/spacing"),
    ({"sections": {"degree": 2, "w2": float("nan")}}, "/sections/0/w2"),
    ({"sections": {"w1": float("inf")}}, "/sections/0/w1"),
]


@pytest.mark.parametrize("updates, pointer", NON_FINITE, ids=[case[1] for case in NON_FINITE])
def test_non_finite_config_number_exits_2(design, tmp_path, caplog, updates, pointer):
    cfg = json.loads(json.dumps(design))
    for key, values in updates.items():
        (cfg["sections"][0] if key == "sections" else cfg[key]).update(values)
    config = _write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{pointer}: expected a finite number" in caplog.text
    assert not (tmp_path / "out").exists()


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
}


@pytest.mark.parametrize("case", sorted(BAD_CONTOURS))
def test_malformed_contour_csv_exits_2(tmp_path, caplog, case):
    text, line = BAD_CONTOURS[case]
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(text, encoding="utf-8")
    good.write_text(GOOD_CONTOUR, encoding="utf-8")
    assert cli.main(["position", "--contours", str(bad), str(good)]) == 2
    assert f"line {line}:" in caplog.text


@pytest.mark.parametrize("message, argv", [
    ("shift box must be finite", ["--method", "lift", "--box", "0", "0", "inf", "1",
                                  "--partition", "2"]),
    ("plane spacing must be positive and finite", ["--method", "area", "--spacing", "inf"]),
], ids=["box", "spacing"])
def test_non_finite_position_option_exits_2(tmp_path, caplog, message, argv):
    path = tmp_path / "c.csv"
    path.write_text(GOOD_CONTOUR.replace("y\n", "y,v\n").replace(".0\n", ".0,1.0\n"),
                    encoding="utf-8")
    assert cli.main(["position", "--contours", str(path), str(path), *argv]) == 2
    assert message in caplog.text
