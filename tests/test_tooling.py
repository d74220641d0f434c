"""Tooling: a failing test is reported, never fatal, the package's imports form a DAG,
and tools/benchpair.py summarizes paired benchmark runs."""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # With warnings as errors, a deprecation warning raised while hypothesis
    # reports a failure used to abort the session before test_passes ran.
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1], run.stdout[-2000:]


def test_package_imports_form_a_dag():
    # Every relative import counts, also one inside a function: a cycle could
    # only load through such a deferred import, and this keeps them out.
    graph = {}
    for path in sorted((ROOT / "src" / "votebias").glob("*.py")):
        deps = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.partition(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
    assert {"cli", "construct", "search"} <= graph.keys()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def _benchpair():
    spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchpair_summary_of_synthetic_runs():
    def run(workload, side, pair, wall, failed=0, correct=True, exit=0):
        metrics = {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.1, "unit": "s"}}
        result = {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}
        return {"workload": workload, "side": side, "pair": pair, "exit": exit, "result": result}

    parent = [1.0, 1.2, 1.1, 1.4, 1.3]
    change = [0.9, 1.3, 0.8, 1.0, 0.7]
    runs = [run("hard-cells", "parent", k, v) for k, v in enumerate(parent, 1)]
    runs += [run("hard-cells", "change", k, v) for k, v in enumerate(change, 1)]
    runs += [run("grid", "change", 1, 2.0, failed=1), run("grid", "parent", 1, 2.0)]
    # A run that failed perfbench's checks (it exits 1) must not count as a fast pass.
    runs += [run("grid", "change", 2, 0.5, correct=False, exit=1), run("grid", "parent", 2, 2.2)]
    summary = _benchpair().summarize(runs)
    assert list(summary) == ["hard-cells", "grid"]
    wall = summary["hard-cells"]["wall_s"]
    # Inclusive quartiles of 1.0..1.4 by 0.1 are 1.1, 1.2, 1.3.
    assert wall["parent"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3, "runs": 5})
    assert wall["change"] == pytest.approx({"median": 0.9, "q1": 0.8, "q3": 1.0, "runs": 5})
    assert wall["change_wins"] == "4/5"  # pair 2 is the change's loss
    assert wall["change_vs_parent"] == -0.25
    assert summary["hard-cells"]["setup_s"]["change_wins"] == "0/5"  # ties are not wins
    assert summary["hard-cells"]["failed"] == {"parent": 0, "change": 0}
    assert summary["hard-cells"]["invalid_runs"] == []
    grid = summary["grid"]
    assert grid["wall_s"]["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": 1}
    assert grid["wall_s"]["change_wins"] == "0/1"
    assert grid["wall_s"]["parent"]["runs"] == 2
    assert grid["failed"] == {"parent": 0, "change": 1}
    assert grid["invalid_runs"] == ["change pair 2"]
