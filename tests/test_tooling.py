"""Tooling: a failing test is reported, never fatal, the package's imports form a DAG,
importing the command line leaves multiprocessing unloaded, the command line prints
through main alone, every package cache is bounded and cleared by perfbench, each
ranking table is built once per order, tools/benchpair.py summarizes paired
benchmark runs and records each tree's size, README's library quick start runs,
README names find_witness's keywords, and README's `votebias` commands parse."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import votebias
from votebias import cli, load

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


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only a parallel scan starts a pool, and a fresh interpreter's import of
    # multiprocessing costs milliseconds that every other command would pay.
    code = "import sys, votebias.cli; print('multiprocessing' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout == "False\n"


def test_cli_commands_print_through_main_alone():
    # Each command returns its output; main alone writes it as JSON, CSV or lines.
    source = (ROOT / "src" / "votebias" / "cli.py").read_text()
    assert source.count("json.dumps(") == 1 and source.count("csv.writer(") == 1
    uses: dict[str, set[str]] = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr":
                    node = ast.Attribute(node.args[0], getattr(node.args[1], "value", ""))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    name = f"{node.value.id}.{node.attr}"
                    if name in {"json.dumps", "csv.writer", "args.json", "args.csv"}:
                        uses.setdefault(func.name, set()).add(name)
    assert uses == {"main": {"json.dumps", "csv.writer", "args.json", "args.csv"}}


# Tables with one entry per n (or per (n, h) or (n, order)), which the bounds on n keep small.
PER_N_TABLES = {
    "upper_pairs", "_cells", "all_rankings", "_packed_rows", "_above_sets",
}


def _package_caches() -> dict[str, object]:
    """Every functools cache a votebias module holds, by the name it is defined under."""
    for info in pkgutil.iter_modules(votebias.__path__):
        if info.name != "__main__":
            importlib.import_module(f"votebias.{info.name}")
    caches: dict[int, tuple[str, object]] = {}
    for name, module in sorted(sys.modules.items()):
        if name == "votebias" or name.startswith("votebias."):
            for key, value in vars(module).items():
                if callable(getattr(value, "cache_info", None)):
                    caches.setdefault(id(value), (key, value))
    return dict(caches.values())


def test_every_package_cache_is_bounded():
    caches = _package_caches()
    assert PER_N_TABLES <= caches.keys()
    unbounded = sorted(k for k, c in caches.items() if c.cache_info().maxsize is None)
    assert unbounded == sorted(PER_N_TABLES)


def test_each_ranking_table_is_built_once_per_order(monkeypatch):
    # lru_cache keys f(n) and f(n, False) apart, so a table reached by two call
    # shapes of one order would be built twice.  The scan reads the
    # lexicographic tables of n = 5 and the sampler the code-order ones.
    monkeypatch.delenv("VOTEBIAS_WORKERS", raising=False)
    tables = (votebias.search._above_sets, votebias.search._packed_rows)
    for table in tables:
        table.cache_clear()
    try:
        votebias.search.scan_minimax(3, 5)
        votebias.search.scan_samples(5, 5, 1, "minimax", 200, 1)
        # n = 1..5 of each order's recursion, and each order's rows of n = 5.
        assert [table.cache_info().currsize for table in tables] == [2 * 5, 2]
    finally:
        for table in tables:
            table.cache_clear()


def test_perfbench_clears_every_package_cache(workloads, monkeypatch):
    monkeypatch.delenv("VOTEBIAS_WORKERS", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workload = workloads.WORKLOADS["sweep"](seed=1, tiny=True)
    assert workload.check(workload.run()).problems == []
    caches = _package_caches()
    filled = {k for k, c in caches.items() if c.cache_info().currsize}
    assert filled >= {
        "_analysis", "_ranking", "_core", "_maxima", "_graph", "_reports", "_violations",
        "_packed_beats", "_alts", "_report", "_component",
    }
    run._clear_lazy_tables()
    assert {k: c.cache_info().currsize for k, c in caches.items() if c.cache_info().currsize} == {}


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
    # A change 30% slower in every pair, against a parent with no spread.
    runs += [run("sweep", side, k, v) for k in (1, 2, 3)
             for side, v in (("parent", 1.0), ("change", 1.3))]
    summary = _benchpair().summarize(runs, {"wall_s": 0.25})
    assert list(summary) == ["hard-cells", "grid", "sweep"]
    wall = summary["hard-cells"]["wall_s"]
    # Inclusive quartiles of 1.0..1.4 by 0.1 are 1.1, 1.2, 1.3.
    assert wall["parent"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3, "runs": 5})
    assert wall["change"] == pytest.approx({"median": 0.9, "q1": 0.8, "q3": 1.0, "runs": 5})
    assert wall["change_wins"] == "4/5"  # pair 2 is the change's loss
    assert wall["change_vs_parent"] == -0.25
    # The 0.3 gap exceeds the parent's quartile spread of 0.2; a fall is never over the bound.
    assert wall["parent_spread"] == pytest.approx(0.2)
    assert (wall["gap_exceeds_spread"], wall["bound"], wall["over_bound"]) == (True, 0.25, False)
    setup = summary["hard-cells"]["setup_s"]
    # Equal medians never exceed a spread of 0, and setup_s has no bound here.
    assert (setup["parent_spread"], setup["gap_exceeds_spread"]) == (0, False)
    assert (setup["bound"], setup["over_bound"]) == (None, None)
    sweep = summary["sweep"]["wall_s"]
    assert sweep["change_vs_parent"] == 0.3 and sweep["change_wins"] == "0/3"
    assert (sweep["gap_exceeds_spread"], sweep["over_bound"]) == (True, True)
    assert summary["grid"]["wall_s"]["parent_spread"] == pytest.approx(0.1)
    assert summary["hard-cells"]["setup_s"]["change_wins"] == "0/5"  # ties are not wins
    assert summary["hard-cells"]["failed"] == {"parent": 0, "change": 0}
    assert summary["hard-cells"]["invalid_runs"] == []
    grid = summary["grid"]
    assert grid["wall_s"]["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": 1}
    assert grid["wall_s"]["change_wins"] == "0/1"
    assert grid["wall_s"]["parent"]["runs"] == 2
    assert grid["failed"] == {"parent": 0, "change": 1}
    assert grid["invalid_runs"] == ["change pair 2"]


def _pyc_is_fresh(source: Path) -> bool:
    """Whether source's timestamp-checked __pycache__ entry records its mtime and size."""
    cached = Path(importlib.util.cache_from_source(source))
    if not cached.is_file():
        return False
    header, stat = cached.read_bytes()[:16], source.stat()
    return header[8:16] == (
        (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
        + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little")
    )


def test_benchpair_byte_compiles_both_trees_before_the_first_run(tmp_path, monkeypatch):
    # With PYTHONDONTWRITEBYTECODE set, a module whose __pycache__ entry is
    # stale is recompiled on every fresh import, in its own tree only, and
    # shows as a slower setup_s; so every source is fresh before any run.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    benchpair = _benchpair()
    sources = []
    for side in benchpair.SIDES:
        for part in ("src/votebias", "perfbench"):
            source = tmp_path / side / part / "mod.py"
            source.parent.mkdir(parents=True)
            source.write_text("X = 1\n")
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(source)], check=True)
            source.write_text("X = 22\n")  # the entry is now stale: another size
            sources.append(source)
    assert not any(map(_pyc_is_fresh, sources))
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "sweep"}]})
    )
    calls = []

    def run_once(tree, workload, seconds):
        assert all(map(_pyc_is_fresh, sources))
        calls.append(tree)
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        return {"info": {"commit": "c", "src_sha256": "d"}, "result": result, "exit": 0}

    monkeypatch.setattr(benchpair, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert benchpair.main([*argv, "--out", str(out)]) == 0
    assert len(calls) == 2 * benchpair.PAIRS
    assert json.loads(out.read_text())["summary"]["sweep"]["invalid_runs"] == []


def test_benchpair_records_each_trees_source_lines(tmp_path, monkeypatch):
    # src_lines is what `cat src/votebias/*.py | wc -l` prints: every newline of
    # the package's own modules, a last line without one not counted, and
    # nothing from subpackages or other files.
    benchpair = _benchpair()
    texts = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3"},
             "change": {"a.py": "x = 1\n", "notes.txt": "one\ntwo\n", "sub/c.py": "w = 4\n"}}
    for side, files in texts.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "votebias" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    for side in benchpair.SIDES:
        shell = subprocess.run("cat src/votebias/*.py | wc -l", shell=True, cwd=tmp_path / side,
                               capture_output=True, text=True, check=True)
        assert benchpair.src_lines(tmp_path / side) == int(shell.stdout)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "sweep"}]})
    )

    def run_once(tree, workload, seconds):
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        return {"info": {"commit": tree.name, "src_sha256": "d"}, "result": result, "exit": 0}

    monkeypatch.setattr(benchpair, "compile_tree", lambda tree: None)
    monkeypatch.setattr(benchpair, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert benchpair.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parent"] == {"commit": "parent", "src_sha256": "d", "src_lines": 2}
    assert report["change"] == {"commit": "change", "src_sha256": "d", "src_lines": 1}


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["minimax", "borda", "copeland"]
    assert lines[3].startswith("witness-found ") and lines[3].endswith(" of 98280")
    assert "'j': 2" in lines[4]


def test_readme_names_the_keywords_find_witness_takes():
    # The paragraph after the quick start lists them, each with its values in
    # parentheses; a keyword added or dropped must show there.
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("`find_witness` also takes", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", paragraph))
    parameters = inspect.signature(votebias.find_witness).parameters.values()
    assert named == [p.name for p in parameters if p.default is not p.empty]


def _readme_commands() -> list[list[str]]:
    """The argv of every `votebias` command in README's sh blocks, pipelines split."""
    blocks = (ROOT / "README.md").read_text().split("```sh\n")[1:]
    commands = []
    for block in blocks:
        for line in block.split("```", 1)[0].splitlines():
            command: list[str] = []
            for token in [*shlex.split(line, comments=True), "|"]:
                if token != "|":
                    command.append(token)
                    continue
                if command[:1] == ["votebias"]:
                    commands.append(command[1:])
                command = []
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 23
    parser = cli._build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: votebias {shlex.join(argv)}")
        if argv[:2] == ["fixtures", "emit"]:
            load(args.id)
