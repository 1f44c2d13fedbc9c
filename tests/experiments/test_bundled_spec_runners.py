"""Experiments read their bundled scenario specs; none builds its own.

A paper figure that has a spec under ``scenario/specs/`` runs that
spec, so an edit to the TOML moves the figure and the benchmark
together.  Callers shrink a run by overriding the loaded spec
(``load_spec(name).with_overrides({...})``), never by a second copy of
it in Python.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

SPEC_CLASSES = {
    "ScenarioSpec", "TraceSpec", "WorkloadSpec", "FleetSpec", "FaultSpec",
    "SchedSpec",
}


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_no_experiment_constructs_a_scenario_spec():
    where = []
    for path in sorted((SRC / "experiments").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in SPEC_CLASSES:
                where.append(f"{path.name}:{node.lineno}")
    assert where == []
