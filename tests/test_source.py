"""Properties of the package source that no behavioural test can see."""

import ast
import pathlib
import re

import pytest

import icstalks
from test_benchmark_view import PERFBENCH, _load_tracer
from test_readme import README

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


def _defined_public_names(tree):
    """Module-level functions, classes and constants, and methods, without a leading _."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        yield from (name for name in names if not name.startswith("_"))


def _used_names(tree):
    """Every name loaded, and every attribute read or written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller():
    # a public name that only the tests call is a second code path kept for
    # them; its reference belongs in the tests.  Callers count in the package,
    # in the benchmark's scripts (the tracer names its functions as strings)
    # and in the README's library example.
    used = set()
    for path in SOURCES + sorted(PERFBENCH.glob("*.py")):
        used.update(_used_names(ast.parse(path.read_text(encoding="utf-8"))))
    used.update(function for _, function, *_ in _load_tracer()["LAYER_FUNCTIONS"])
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    used.update(_used_names(ast.parse(block)))
    unused = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _defined_public_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    ]
    assert not unused, unused
