"""The names of the library that the benchmark in ``perfbench/`` reads.

The tracer wraps the functions it lists by module and name, the pass/fail
gate compares ``verify``'s check names with ``reference.json``, and the fan
digest reads ``SubdivisionMap.cones_by_dim``.  A rename or a deletion in the
library breaks those runs without failing any behavioural test, so these
tests read the benchmark's files (and change nothing there).
"""

import ast
import importlib
import json
import pathlib
import sys

import pytest

import icstalks
from icstalks import verify
from icstalks.corpus import corpus_by_name
from icstalks.subdivision import SubdivisionMap

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer() -> dict:
    # the tracer imports only the standard library; compiling its source
    # here writes no bytecode next to it
    path = PERFBENCH / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


LAYER_FUNCTIONS = [(module, function) for module, function, *_ in _load_tracer()["LAYER_FUNCTIONS"]]


@pytest.mark.parametrize("module, function", LAYER_FUNCTIONS, ids=[".".join(x) for x in LAYER_FUNCTIONS])
def test_every_traced_function_is_in_the_library(module, function):
    assert callable(vars(importlib.import_module(f"icstalks.{module}")).get(function))


def test_verify_checks_are_the_reference_checks():
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    # a key is "cone/check"
    names = {key.rpartition("/")[2] for key in reference["corpus-verify"]}
    assert names == {name for name, _ in verify.CONE_CHECKS}


def test_the_fan_digest_reads_cones_by_dim():
    assert callable(SubdivisionMap.cones_by_dim)


def _names_in(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_module_level_table_holds_a_traced_function():
    # the tracer rebinds module attributes; a function also held in a
    # module-level table keeps its untraced original there, so the traced
    # run would not see the calls made through the table
    traced = {function for _, function in LAYER_FUNCTIONS}
    found = [
        f"{path.name} line {node.lineno}: {name}"
        for path in sorted(pathlib.Path(icstalks.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        for name in _names_in(node.value)
        if name in traced
    ]
    assert not found, found


def test_a_traced_pass_gives_the_verdicts_and_restores_the_library():
    # the traced run installs the tracer around one pass and uninstalls it
    # after; a wrapper whose sizes no longer fit a function's signature or
    # result fails here, not in the traced benchmark run
    spec = corpus_by_name("polygon-5")

    def verdicts(report):
        return [(c.name, c.passed, c.detail) for c in report.checks]

    untraced = verdicts(verify.run_cone(spec))
    modules = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("icstalks")}
    checks = list(verify.CONE_CHECKS)
    tracer = _load_tracer()["Tracer"]()
    tracer.install()
    try:
        report = tracer.run_pass(0, verify.run_cone, spec)
    finally:
        tracer.uninstall()
    assert verdicts(report) == untraced
    counts = tracer.counts[0]
    assert counts["differentials.complexes"] > 0 and counts["linalg.rank_calls"] > 0
    # each entry is rebuilt as (name, original function)
    assert verify.CONE_CHECKS == checks
    changed = [
        f"{name}.{key}"
        for name, before in modules.items()
        for key, value in before.items()
        if vars(sys.modules[name]).get(key) is not value
    ]
    assert not changed, changed
