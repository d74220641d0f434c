"""Self-test of the benchmark at tiny sizes: result schema and output checks, never timings.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload through ``run.py --tiny`` with and without tracing,
checks the printed result against ``BENCHMARK.json``, confirms that the
output checks reject tampered outputs, that ``hard-cells`` does the same work
on two seeds, and that the benchmark refuses to run without ``src/``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def check_schema(workload: str, trace: int, spec: dict) -> dict:
    proc = run_benchmark(workload, trace)
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: result keys {sorted(result)}")
    expect(result.get("correct") is True, f"{where}: not correct: {proc.stdout[-2000:]}")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{where}: attempted {result.get('attempted')}")
    expect(result.get("failed") == 0, f"{where}: failed {result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(wanted),
           f"{where}: metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(wanted) - set(metrics))}, extra {sorted(set(metrics) - set(wanted))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        expect(isinstance(value, (int, float)) and not isinstance(value, bool),
               f"{where}: {name} value {value!r}")
        expect(entry.get("unit") == wanted.get(name), f"{where}: {name} unit {entry.get('unit')}")
    expect(any(line.startswith("info ") for line in lines), f"{where}: no info line")
    return metrics


def check_workload_split(traced: dict) -> None:
    calls = {w: m.get("search.scan_minimax.calls", {}).get("value") for w, m in traced.items()}
    expect(calls.get("grid", 0) > 0, f"scan_minimax calls on grid: {calls}")
    expect(calls.get("hard-cells") == 0 and calls.get("sweep") == 0,
           f"scan_minimax runs outside grid: {calls}")
    props = {w: m.get("properties.property_violations.calls", {}).get("value")
             for w, m in traced.items()}
    expect(props.get("sweep", 0) > 0 and props.get("grid") == 0 and props.get("hard-cells") == 0,
           f"property_violations calls: {props}")


def check_output_checks() -> None:
    """Tampered outputs must fail the checks the benchmark runs after each pass."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    grid = workloads.Grid(3, tiny=True)
    clean = grid.run()
    expect(grid.check(clean).failed == 0, "clean tiny grid fails its checks")

    tampered = copy.deepcopy(grid)
    key = next(iter(tampered.reference))
    tampered.reference[key] = list(tampered.reference[key])
    tampered.reference[key][5] += 1
    expect(tampered.check(clean).failed == 1, "grid check misses a changed examined count")

    payload = json.loads(clean.stdout)
    cell = next(c for c in payload["cells"] if c.get("witness"))
    rows = cell["witness"]["profile"].splitlines()
    cell["witness"]["profile"] = "\n".join(rows[::-1])
    forged = workloads.VerifyRun(clean.code, json.dumps(payload))
    expect(grid.check(forged).failed >= 1, "grid check accepts a forged witness")

    broken = workloads.VerifyRun(None, "", "RuntimeError: boom")
    expect(grid.check(broken).failed == len(grid.reference), "grid check ignores an exception")

    runs = [workloads.HardCells(seed, tiny=True).run() for seed in (271828, 314159)]
    cells = [json.loads(r.stdout)["cells"] for r in runs]
    work = [[(c["outcome"], c["examined"]) for c in cs] for cs in cells]
    expect(work[0] == work[1], f"hard-cells work differs between seeds: {work}")
    expect(all(w == [("inconclusive", 200)] for w in work), f"hard-cells hit: {work}")
    expect(runs[0].stdout != runs[1].stdout, "hard-cells ignores the seed")
    contradicted = json.loads(runs[0].stdout)
    contradicted["cells"][0]["consistent"] = False
    bad = workloads.VerifyRun(2, json.dumps(contradicted))
    expect(workloads.HardCells(3, tiny=True).check(bad).failed == 1,
           "hard-cells check accepts a contradicted cell")

    sweep = workloads.Sweep(3, tiny=True)
    result = sweep.run()
    expect(sweep.check(result).failed == 0, "clean tiny sweep fails its checks")
    reports, _, direct = result.records[0]
    result.records[0] = (reports, ["mu=2: injected"], direct)
    result.records[1] = (result.records[1][0], [], frozenset({99}))
    minimax, borda, copeland = result.records[2][0]
    result.records[2] = ([minimax, borda, dataclasses.replace(copeland, type3=True)],
                         [], result.records[2][2])
    expect(sweep.check(result).failed == 3, "sweep check misses bad profiles")
    result.counts[0] -= 1
    expect(sweep.check(result).problems[0].startswith("enumerate_anonymous"),
           "sweep check misses a wrong enumeration count")


def check_refuses_without_source() -> None:
    """With only BENCHMARK.json and perfbench/, the benchmark fails and prints no result."""
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_benchmark("grid", 0, cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark ran without src/")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        check_schema(workload, 0, spec)
        traced[workload] = check_schema(workload, 1, spec)
    check_workload_split(traced)
    check_output_checks()
    check_refuses_without_source()
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
