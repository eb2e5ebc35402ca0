import hashlib
import json
import random
import subprocess
import sys
from math import comb

import pytest

import icstalks.verify
from icstalks.cli import main
from icstalks.cones import face_lattice
from icstalks.subdivision import interior_ray_subdivision

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


def test_decompose_appendix_never_builds_the_barycentric_fan(capsys, monkeypatch, cube_file):
    argv = ("decompose", "--cone", cube_file, "--subdivision", "appendix")
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0

    def refused(lattice):
        raise AssertionError("the barycentric fan was built")

    # the CLI's fans come from verify's ConeContext, which reads its builders there
    monkeypatch.setattr(icstalks.verify, "barycentric_subdivision", refused)
    assert run_cli(capsys, *argv) == expected


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


@pytest.mark.slow
def test_shelling_appendix_subdivision_of_cross6(capsys, tmp_path):
    # 1,920 maximal cones, more than the recursion limit: the search keeps
    # its own stack
    rays = [[s * int(i == j) for j in range(5)] + [1] for i in range(5) for s in (1, -1)]
    path = tmp_path / "cross6.json"
    path.write_text(json.dumps({"name": "cross6", "rank": 6, "rays": rays}))
    code, out = run_cli(
        capsys, "shelling", "--cone", str(path), "--subdivision", "appendix", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["order"]) == 1920
    # the type histogram of a shelling is the h-vector of the complex
    f = [0] * 7
    for cone in interior_ray_subdivision(face_lattice(rays)).cones:
        f[len(cone)] += 1
    h = [sum((-1) ** (j - i) * comb(6 - i, j - i) * f[i] for i in range(j + 1)) for j in range(7)]
    assert {int(j): count for j, count in payload["type_histogram"].items()} == {
        j: count for j, count in enumerate(h) if count
    }
    assert h == [1, 197, 762, 762, 197, 1, 0]
    # the order the search returned before face sets became bitmasks
    digest = hashlib.sha256(json.dumps(payload["order"]).encode()).hexdigest()
    assert digest == "f1db2e736cd5e511bd5e48b3dfd705d550f1797d8cdbb5b27432a207f72d6419"


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2}')
    code, out = run_cli(capsys, "faces", "--cone", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MalformedInput"


def test_deeply_nested_input_exit_2(capsys, tmp_path):
    # deeper than the JSON decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out = run_cli(capsys, "faces", "--cone", str(deep))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert str(deep) in error["message"]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["omega", "--closed-form", "--check"], "--check"),
        (["icdr", "--mu", "3", "--tau", "1"], "--mu 3 is not a face of --tau 1"),
        (["verify", "--name", "cube"], "--cone or --name"),
    ],
    ids=["omega-check-without-oracle", "icdr-pair-not-nested", "verify-cone-and-name"],
)
def test_contradictory_options_exit_2(capsys, square_file, argv, message):
    # square faces 1 and 3 are distinct rays, so neither lies in the other
    code, out = run_cli(capsys, *argv, "--cone", square_file)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert message in error["message"]


@pytest.mark.parametrize(
    "name", [None, [1, 2], 3, True, {"a": 1}], ids=["null", "array", "number", "bool", "object"]
)
def test_non_string_name_exit_2(capsys, tmp_path, name):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(dict(SQUARE_SPEC, name=name)))
    code, out = run_cli(capsys, "verify", "--cone", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert "name must be a JSON string" in error["message"]


def test_absent_name_is_cone(capsys, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": 3, "rays": SQUARE_SPEC["rays"]}))
    code, out = run_cli(capsys, "faces", "--cone", str(path))
    assert code == 0
    assert out.startswith("10 faces of cone (rank 3)")


JSON_KINDS = ("null", "boolean", "integer", "number", "string", "array", "object")


def _json_value(rng, kind, depth=0):
    """A random JSON value of the given kind; containers nest at most three deep."""
    inner = JSON_KINDS if depth < 3 else JSON_KINDS[:5]
    if kind == "array":
        return [_json_value(rng, rng.choice(inner), depth + 1) for _ in range(rng.randint(0, 3))]
    if kind == "object":
        return {
            rng.choice("abxyz"): _json_value(rng, rng.choice(inner), depth + 1)
            for _ in range(rng.randint(0, 3))
        }
    return {
        "null": None,
        "boolean": rng.choice((True, False)),
        "integer": rng.randint(-5, 5),
        "number": rng.randint(-50, 50) / 4,
        "string": "".join(rng.choice("01[]{} ,abc") for _ in range(rng.randint(0, 4))),
    }[kind]


def _placed(spec, place, value):
    """A copy of ``spec`` with ``value`` at the key path ``place``."""
    spec = json.loads(json.dumps(spec))
    *path, last = place
    target = spec
    for step in path:
        target = target[step]
    target[last] = value
    return spec


def _malformed_specs(seed):
    """Seeded malformed cone spec texts, each labelled with what is wrong."""
    rng = random.Random(seed)
    valid = dict(SQUARE_SPEC, expected_face_counts=[1, 4, 4, 1])
    # every place that holds a value, with the JSON kind it must have
    places = {("name",): "string", ("rank",): "integer", ("rays",): "array"}
    places[("expected_face_counts",)] = "array"
    for i, ray in enumerate(valid["rays"]):
        places[("rays", i)] = "array"
        places.update({("rays", i, j): "integer" for j in range(len(ray))})
    places.update({("expected_face_counts", i): "integer" for i in range(4)})
    for place, kind in places.items():
        for wrong in JSON_KINDS:
            if wrong != kind:
                value = _json_value(rng, wrong)
                yield f"{place} {wrong}", json.dumps(_placed(valid, place, value))
        # nesting within the decoder's limit is a wrong type, beyond it unreadable
        for depth in (20, 5_000):
            text = json.dumps(_placed(valid, place, "nest"))
            yield f"{place} nested {depth}", text.replace('"nest"', "[" * depth + "]" * depth)
    for missing in (("rank",), ("rays",), ("rank", "rays"), ("name", "rays")):
        yield f"missing {missing}", json.dumps({k: v for k, v in valid.items() if k not in missing})
    for kind in JSON_KINDS[:-1]:
        yield f"top-level {kind}", json.dumps(_json_value(rng, kind))
    text = json.dumps(valid)
    for cut in [0] + sorted(rng.sample(range(1, len(text)), 20)):
        yield f"truncated at {cut}", text[:cut]
    yield "unclosed nesting", "[" * 100_000
    yield "nested object", '{"rays": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_malformed_specs_exit_2_with_a_structured_error(capsys, tmp_path):
    path = tmp_path / "cone.json"
    cases = list(_malformed_specs(seed=0))
    assert len(cases) > 200
    for label, text in cases:
        path.write_text(text)
        code = main(["faces", "--cone", str(path)])
        captured = capsys.readouterr()
        assert code == 2, label
        assert json.loads(captured.out)["error"]["type"] == "MalformedInput", label
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, label


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
