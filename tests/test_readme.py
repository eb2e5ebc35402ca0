"""The README's library example prints what its comments say, and its CLI
block exits as documented and shows the README's example values."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from icstalks.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.rsplit("#", 1)[1].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected


def test_readme_cli_block_exits_as_documented_and_shows_the_example_values(
    tmp_path, monkeypatch, capsys
):
    text = README.read_text()
    (cone,) = re.findall(r"## Input format\n.*?```json\n(.*?)```", text, re.S)
    (block,) = re.findall(r"## CLI\n.*?```sh\n(.*?)```", text, re.S)
    (examples,) = re.findall(r"Example values.*?```\n(.*?)```", text, re.S)
    (tmp_path / "square.json").write_text(cone)
    monkeypatch.chdir(tmp_path)
    outputs: dict[str, str] = {}
    for line in block.splitlines():
        program, command, *options = shlex.split(line.split("#", 1)[0])
        assert program == "icstalks"
        code = main([command, *options])
        outputs[command] = outputs.get(command, "") + capsys.readouterr().out
        # criterion 7e is red on the corpus and on the cube, so verify exits 1 there
        assert code == (1 if command == "verify" and "--cone" not in options else 0), line
    values = [v for line in examples.splitlines() for v in re.split(r"\s{2,}", line.strip())]
    assert len(values) == 5
    source = {"Ht": "decompose", "D": "decompose", "omega": "omega", "dR": "icdr", "chi_y": "icdr"}
    for value in values:
        # the CLI names faces by id: 0 is the zero face, sigma is face 9
        shown = value.replace("(0,", "(face 0,").replace("sigma", "face 9")
        assert shown in outputs[source[re.match(r"\w+", value).group()]], value
