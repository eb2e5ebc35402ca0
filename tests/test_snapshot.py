"""Byte-level snapshot of the CLI's output.

Every run below goes through ``icstalks.cli.main`` in process: ``verify`` on
the corpus, each command on each corpus cone in both formats and on both
subdivisions, and the malformed inputs of ``test_cli``.  ``snapshot.json``
keeps one sha256 per run over its stdout and exit code, with the directory
that holds the cone files replaced by ``<tmp>``.  A change that moves any
output names the runs it moved.

Regenerate the snapshot, after a change that is meant to move the output, with

    PYTHONPATH=src python tests/test_snapshot.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from icstalks.cli import main
from icstalks.corpus import CORPUS

SNAPSHOT = pathlib.Path(__file__).with_name("snapshot.json")

SQUARE = {"name": "square", "rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]}

# cone file text, then the arguments after "--cone <file>" (no file and no
# "--cone" where the text is None); each run exits 2
MALFORMED = {
    "missing-rays": ('{"rank": 2}', ["faces"]),
    "unclosed-nesting": ("[" * 100_000, ["faces"]),
    "float-entry": ({"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [0.5, 0, 1]]}, ["faces"]),
    "bool-entry": ({"rank": 3, "rays": [[True, 0, 1], [0, 1, 1], [0, 0, 1]]}, ["faces"]),
    "string-rank": ({"rank": "3", "rays": [[1, 0, 1], [0, 1, 1], [0, 0, 1]]}, ["faces"]),
    "float-face-count": (
        {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [0, 0, 1]], "expected_face_counts": [1.0]},
        ["faces"],
    ),
    "negative-rank": ({"name": "neg", "rank": -1, "rays": []}, ["faces"]),
    "generator-on-an-edge": (dict(SQUARE, rays=SQUARE["rays"] + [[1, 0, 2]]), ["faces"]),
    "generator-in-the-interior": (dict(SQUARE, rays=SQUARE["rays"] + [[1, 1, 2]]), ["faces"]),
    "verify-generator-on-an-edge": (dict(SQUARE, rays=SQUARE["rays"] + [[1, 0, 2]]), ["verify"]),
    **{
        f"square {' '.join(argv)}": (SQUARE, argv)
        for argv in (
            ["omega", "--closed-form", "--tau", "99"],
            ["omega", "--closed-form", "--tau", "-1"],
            ["omega", "--oracle", "--tau", "10"],
            ["omega", "--oracle", "--tau", "-1"],
            ["icdr", "--mu", "-1"],
            ["icdr", "--mu", "10"],
            ["icdr", "--tau", "-1"],
            ["icdr", "--mu", "0", "--tau", "99"],
            ["omega", "--closed-form", "--check"],
            ["icdr", "--mu", "3", "--tau", "1"],
            ["verify", "--name", "cube"],
        )
    },
    "short-ray": ({"rank": 3, "rays": [[1, 0, 1], [0, 1]]}, ["faces"]),
    "zero-ray": ({"rank": 3, "rays": [[1, 0, 1], [0, 0, 0], [0, 1, 1]]}, ["faces"]),
    "rays-equal-after-normalization": (
        {"rank": 3, "rays": [[1, 0, 1], [2, 0, 2], [0, 1, 1]]}, ["faces"]
    ),
    "no-cone": (None, ["faces"]),
    "verify-unknown-name": (None, ["verify", "--name", "nosuch"]),
    **{
        f"name-{kind}": (dict(SQUARE, name=name), ["verify"])
        for kind, name in (
            ("null", None), ("array", [1, 2]), ("number", 3), ("bool", True), ("object", {"a": 1})
        )
    },
}


def _runs(directory: pathlib.Path):
    """(name, argv) for every snapshot run; writes the cone files into ``directory``."""
    for fmt in ("text", "json"):
        yield f"verify {fmt}", ["verify", "--format", fmt]
    for spec in CORPUS:
        path = directory / f"{spec.name}.json"
        path.write_text(json.dumps({"name": spec.name, "rank": spec.rank, "rays": spec.rays}))
        commands = [["faces"]]
        for sub in ("barycentric", "appendix"):
            for command in ("subdivide", "fibers", "decompose", "shelling"):
                commands.append([command, "--subdivision", sub])
        commands += [["omega", "--both", "--check"], ["icdr", "--chi-y", "--verify"]]
        for fmt in ("text", "json"):
            for argv in commands:
                yield f"{spec.name} {' '.join(argv)} {fmt}", [
                    *argv, "--cone", str(path), "--format", fmt
                ]
    for label, (text, argv) in MALFORMED.items():
        if text is None:
            yield f"malformed {label}", argv
            continue
        path = directory / "malformed.json"
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        yield f"malformed {label}", [*argv, "--cone", str(path)]


def _digest(argv, directory) -> str:
    """sha256 of one run's stdout, with ``directory`` masked, and its exit code."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(argv)
    text = out.getvalue().replace(str(directory), "<tmp>")
    return hashlib.sha256(f"{text}\nexit {code}\n".encode()).hexdigest()


def snapshot(directory: pathlib.Path) -> dict[str, str]:
    return {name: _digest(argv, directory) for name, argv in _runs(directory)}


def test_cli_output_matches_the_snapshot(tmp_path):
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = snapshot(tmp_path)
    moved = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    assert not moved, f"{len(moved)} of {len(expected)} runs moved: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = snapshot(pathlib.Path(tmp))
    SNAPSHOT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {SNAPSHOT}", file=sys.stderr)
