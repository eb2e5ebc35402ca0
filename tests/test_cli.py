import json
import subprocess
import sys

import pytest

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


def test_fibers_square(capsys, square_file):
    code, out = run_cli(capsys, "fibers", "--cone", square_file, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["F"]) == 10


@pytest.mark.parametrize(
    "spec, facets, histogram",
    [
        (SQUARE_SPEC, 4, {"0": 1, "1": 2, "2": 1}),
        (CUBE_SPEC, 24, {"0": 1, "1": 11, "2": 11, "3": 1}),
    ],
    ids=["square", "cube"],
)
def test_shelling_appendix_subdivision(capsys, tmp_path, spec, facets, histogram):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(
        capsys, "shelling", "--cone", str(path), "--subdivision", "appendix", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["order"]) == facets
    assert payload["type_histogram"] == histogram


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2}')
    code, out = run_cli(capsys, "faces", "--cone", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MalformedInput"


@pytest.mark.parametrize(
    "spec",
    [
        {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [0.5, 0, 1]]},
        {"rank": 3, "rays": [[True, 0, 1], [0, 1, 1], [0, 0, 1]]},
        {"rank": "3", "rays": [[1, 0, 1], [0, 1, 1], [0, 0, 1]]},
        {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [0, 0, 1]], "expected_face_counts": [1.0]},
    ],
    ids=["float-entry", "bool-entry", "string-rank", "float-face-count"],
)
def test_non_integer_input_exit_2(capsys, tmp_path, spec):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "faces", "--cone", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MalformedInput"


def test_negative_rank_exit_2(capsys, tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"name": "neg", "rank": -1, "rays": []}))
    code, out = run_cli(capsys, "faces", "--cone", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert "rank" in error["message"]


@pytest.mark.parametrize(
    "extra",
    [[1, 0, 2], [1, 1, 2]],
    ids=["on-an-edge", "in-the-interior"],
)
def test_non_extreme_generator_exit_2(capsys, tmp_path, extra):
    # a generator inside the square cone is not a ray of it
    spec = {"rank": 3, "rays": SQUARE_SPEC["rays"] + [extra]}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "faces", "--cone", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert "ray 4" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "--closed-form", "--tau", "99"],
        ["omega", "--closed-form", "--tau", "-1"],
        ["omega", "--oracle", "--tau", "10"],
        ["omega", "--oracle", "--tau", "-1"],
        ["icdr", "--mu", "-1"],
        ["icdr", "--mu", "10"],
        ["icdr", "--tau", "-1"],
        ["icdr", "--mu", "0", "--tau", "99"],
    ],
    ids=[
        "omega-closed-form-tau-99",
        "omega-closed-form-tau-negative",
        "omega-oracle-tau-past-top",
        "omega-oracle-tau-negative",
        "icdr-mu-negative",
        "icdr-mu-past-top",
        "icdr-tau-negative",
        "icdr-tau-99",
    ],
)
def test_face_id_outside_lattice_exit_2(capsys, square_file, argv):
    # the square cone has faces 0..9
    code, out = run_cli(capsys, *argv, "--cone", square_file)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert "0..9" in error["message"]


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


def test_verify_non_extreme_generator_exit_2(capsys, tmp_path):
    # malformed input is exit 2 for verify too, not a failed check
    spec = {"name": "square", "rank": 3, "rays": SQUARE_SPEC["rays"] + [[1, 0, 2]]}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "verify", "--cone", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert "ray 4" in error["message"]


def test_verify_corpus_cone(capsys):
    code, out = run_cli(capsys, "verify", "--name", "polygon-5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_deterministic_output(capsys, square_file):
    _, first = run_cli(capsys, "decompose", "--cone", square_file, "--format", "json")
    _, second = run_cli(capsys, "decompose", "--cone", square_file, "--format", "json")
    assert first == second


def test_module_entry_point(square_file, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "icstalks", "faces", "--cone", square_file],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "10 faces" in proc.stdout


def test_verify_reports_red_check_under_optimize(child_env):
    # the checks raise typed errors, so `python -O` cannot strip them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "icstalks", "verify", "--name", "orthant-2"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 1
    failed = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert "center-multiplicity-independence (CrossCheckMismatch:" in failed[0]
