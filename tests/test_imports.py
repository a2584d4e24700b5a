"""What a fresh process loads: ``import bladekit`` and the ``blade`` commands
run without scipy; only ``blade position --method area`` imports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bladekit
import oracles

# Runs the blade command line in a fresh process, then prints its exit code
# and the scipy modules it loaded.
SCRIPT = """\
import json, sys
import bladekit
if sys.argv[1:]:
    from bladekit.cli import main
    code = main(sys.argv[1:])
else:
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
"""

SQUARE = "index,x,y,v\n0,0.0,0.0,1.0\n1,1.0,0.0,1.0\n2,1.0,1.0,1.0\n3,0.0,1.0,1.0\n"


def _blade(tmp_path, *argv):
    env = dict(os.environ, BLADE_LOG="quiet",
               PYTHONPATH=str(Path(bladekit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, argv)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    lower = oracles.joukowski_flow(center=-0.08 + 0.05j, beta=0.10).distribution(256, 256)
    upper = oracles.joukowski_flow(center=-0.09 + 0.06j, beta=0.12).distribution(256, 256)
    section = {"id": "s0", "degree": 1, "w1": 0.05,
               "lower": lower.to_json(), "upper": upper.to_json()}
    paths = {}
    for name, extra, positioning in (
            ("lsq", {}, {"method": "lsq"}),
            ("lift", {"degree": 2, "w2": 0.1},
             {"method": "lift", "box": [-0.3, -0.5, 0.5, 0.3], "partition": 32})):
        cfg = {"sections": [{**section, **extra}], "discretization": {"n_boundary": 64},
               "positioning": positioning}
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    paths["csv"] = root / "square.csv"
    paths["csv"].write_text(SQUARE, encoding="utf-8")
    return paths


def test_import_loads_no_scipy(tmp_path):
    assert _blade(tmp_path) == [0, []]


@pytest.mark.parametrize("name", ["lsq", "lift"])
def test_solve_loads_no_scipy(tmp_path, configs, name):
    assert _blade(tmp_path, "solve", "--config", configs[name], "--out", tmp_path / "out") == [0, []]
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True


def test_verify_loads_no_scipy(tmp_path, configs):
    assert _blade(tmp_path, "verify", "--config", configs["lsq"]) == [0, []]


@pytest.mark.parametrize("argv", [
    ["--method", "lsq"],
    ["--method", "lift", "--box", "-0.5", "-0.5", "0.5", "0.5", "--partition", "2"],
], ids=["lsq", "lift"])
def test_position_loads_no_scipy(tmp_path, configs, argv):
    out = tmp_path / "shift.json"
    code, loaded = _blade(tmp_path, "position", "--contours", configs["csv"], configs["csv"],
                          *argv, "--out", out)
    assert (code, loaded) == (0, [])
    assert json.loads(out.read_text(encoding="utf-8"))["method"] == argv[1]


def test_position_by_area_still_works(tmp_path, configs):
    out = tmp_path / "shift.json"
    code, loaded = _blade(tmp_path, "position", "--contours", configs["csv"], configs["csv"],
                          "--method", "area", "--out", out)
    assert code == 0 and "scipy.optimize" in loaded
    shift = json.loads(out.read_text(encoding="utf-8"))
    assert shift["method"] == "area"
    assert abs(shift["dx"]) < 1e-6 and abs(shift["dy"]) < 1e-6
