"""Tooling: a failing test is reported, never fatal, and the package's imports form a DAG."""

from __future__ import annotations

import ast
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
