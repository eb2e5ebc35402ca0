"""Properties of the package source that no behavioural test can see."""

import ast
import pathlib

import pytest

import icstalks

SOURCES = sorted(pathlib.Path(icstalks.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_attribute_reflection(path):
    # an assert vanishes under python -O, taking its check with it; reading
    # or writing attributes by name hides the fields a class really has
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"line {node.lineno}: {ast.unparse(node)[:60]}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "setattr", "hasattr")
    ]
    assert not found, found
