"""The ``blade`` command line on a small degree-1 design, and its config errors."""

import json
import os

import pytest

import oracles
from bladekit import cli

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
    assert not (tmp_path / "out").exists()
