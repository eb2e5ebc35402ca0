import json
import os
import subprocess
import sys

import pytest

import icstalks
from icstalks.cli import main

SQUARE_SPEC = {
    "name": "square",
    "rank": 3,
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
}
CUBE_SPEC = {
    "name": "cube",
    "rank": 4,
    "rays": [[x, y, z, 1] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_SPEC))
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(CUBE_SPEC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_faces_square(capsys, square_file):
    code, out = run_cli(capsys, "faces", "--cone", square_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["faces"]) == 10
    dims = [f["dim"] for f in payload["faces"]]
    assert dims == sorted(dims)


def test_subdivide_square(capsys, square_file):
    code, out = run_cli(capsys, "subdivide", "--cone", square_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["added_rays"]) == 5  # four 2-face barycenters + center
    assert len(payload["maximal_cones"]) == 8
    rows = {(r["tau"], r["l"]): r["count"] for r in payload["d"]}
    assert rows[(9, 3)] == 8


def test_decompose_cube_contains_center_multiplicity(capsys, cube_file):
    # bare decompose uses the interior-ray recipe, matching the closed-form table
    code, out = run_cli(capsys, "decompose", "--cone", cube_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    top = max(row["tau"] for row in payload["D"])
    row = next(r for r in payload["D"] if r["tau"] == top)
    assert row["text"] == "q^-2 + 5 + q^2"


def test_decompose_barycentric_flag(capsys, cube_file):
    code, out = run_cli(
        capsys,
        "decompose",
        "--cone",
        cube_file,
        "--subdivision",
        "barycentric",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    top = max(row["tau"] for row in payload["D"])
    row = next(r for r in payload["D"] if r["tau"] == top)
    assert row["text"] == "q^-2 + 17 + q^2"


def test_icdr_square_sigma(capsys, square_file):
    code, out = run_cli(
        capsys,
        "icdr",
        "--cone",
        square_file,
        "--mu",
        "0",
        "--tau",
        "9",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dr"][0]["text"] == "K^-1*L^-1 + L^-3"


def test_icdr_chi_y_and_verify(capsys, square_file):
    code, out = run_cli(
        capsys,
        "icdr",
        "--cone",
        square_file,
        "--mu",
        "0",
        "--tau",
        "9",
        "--chi-y",
        "--verify",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["dr"][0]["chi_y_text"] == "-1 + y"


def test_omega_both_match(capsys, square_file):
    code, out = run_cli(
        capsys,
        "omega",
        "--fan",
        square_file,
        "--tau",
        "9",
        "--both",
        "--check",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"][0]["match"] is True


def test_shelling_square(capsys, square_file):
    code, out = run_cli(capsys, "shelling", "--fan", square_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["order"]) == 8
    assert payload["type_histogram"]["0"] == 1


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2}')
    code, out = run_cli(capsys, "faces", "--cone", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MalformedInput"


def test_non_pointed_cone_exit_1(capsys, tmp_path):
    spec = {"name": "line", "rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "faces", "--cone", str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotStronglyConvex"


def test_verify_single_failure_for_bad_cone(capsys, tmp_path):
    spec = {"name": "line", "rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "verify", "--cone", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["counts"]["failed"] == 1
    assert "NotStronglyConvex" in payload["checks"][0]["detail"]


def test_verify_corpus_cone(capsys):
    code, out = run_cli(capsys, "verify", "--name", "polygon-5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_deterministic_output(capsys, square_file):
    _, first = run_cli(capsys, "decompose", "--cone", square_file, "--format", "json")
    _, second = run_cli(capsys, "decompose", "--cone", square_file, "--format", "json")
    assert first == second


def test_module_entry_point(square_file):
    # the child process imports the same package as the tests, also when
    # pytest's ``pythonpath`` setting put it on sys.path instead of PYTHONPATH
    src = os.path.dirname(os.path.dirname(icstalks.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "icstalks", "faces", "--cone", square_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "10 faces" in proc.stdout
