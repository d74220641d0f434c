"""Run perfbench in a parent tree and a change tree, pair by pair, and write BENCH_<pr>.json.

    python3 tools/benchpair.py --parent DIR --change DIR --out BENCH_<pr>.json

Each tree is a checkout (or an export) with its own ``perfbench/run.py`` and
``src/``.  The workloads and the run length are the change tree's
``BENCHMARK.json``; every run uses the seed SEED and ``--trace 0``, and each
workload gets PAIRS pairs, the fewest that can carry a claimed gain.  Pair k
runs the parent first for odd k and the change first for even k, so that a
drift of the host's speed falls on both sides alike.  Each run's ``info``
line, last-line JSON and exit code are kept.  Before the first pair, each
tree's ``src/`` and ``perfbench/`` are byte-compiled: with
PYTHONDONTWRITEBYTECODE set, a module whose ``__pycache__`` entry is stale
would otherwise be recompiled on every fresh import, and only in the tree
that has it, which shows as a slower ``setup_s``.

The summary gives, per workload and metric, each side's median and quartiles
(``statistics.quantiles`` with ``method="inclusive"``), the pairs in which
the change had the lower value, and the change's median over the parent's,
minus one.  It also states the verdict on those numbers: the parent's
quartile spread (q3 - q1), whether the gap between the medians exceeds it,
and, for a metric with a ``bound`` under ``end_to_end`` in ``BENCHMARK.json``,
whether the change's median exceeds the parent's by more than that fraction.
All ``--trace 0`` metrics are times, so lower is better.  A run that exited
nonzero or failed perfbench's checks is left out of these and named under the
workload's ``invalid_runs``; the script then exits 1.  Beside each side's
``commit`` and ``src_sha256`` it records ``src_lines``, what
``cat src/votebias/*.py | wc -l`` prints in that tree, so that a change's
size is measured with its timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SEED = 271828


def _command(workload: str, seconds: float) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seconds", f"{seconds:g}", "--trace", "0", "--seed", str(SEED)]


def compile_tree(tree: Path) -> None:
    """Byte-compile tree's src/ and perfbench/, so that no run recompiles them
    on import.  Forced, since compileall alone trusts an entry whose recorded
    mtime matches to the second, which import also holds to the source's size."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-f", "--invalidation-mode", "timestamp",
         "src", "perfbench"],
        cwd=tree, check=True,
    )


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One perfbench run in tree: its info line, its last-line JSON and its exit code."""
    argv = _command(workload, seconds)
    done = subprocess.run([sys.executable, *argv[1:]], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    info = [json.loads(line[5:]) for line in lines if line.startswith("info ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"benchpair: {workload} in {tree} exited {done.returncode} without a result line\n"
            + done.stderr[-2000:]
        ) from None
    return {"info": info[0] if info else None, "result": result, "exit": done.returncode}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def _valid(run: dict) -> bool:
    return run["exit"] == 0 and run["result"]["correct"] is True


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Per workload: per metric, each side's spread, change_wins,
    change_vs_parent and the verdict fields; each side's total failed
    operations; and the runs left out as invalid.

    A run is a dict with workload, side, pair, exit and result (perfbench's
    last-line JSON).  A pair counts as a change win for a metric when the
    change's value is lower than the parent's in that pair.  bounds maps a
    metric to the largest allowed rise of its median, as a fraction of the
    parent's; over_bound is None for a metric without one.
    """
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        values: dict = {}
        for run in filter(_valid, mine):
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, {}).setdefault(run["side"], {})[run["pair"]] = metric["value"]
        entry: dict = {}
        for name, sides in values.items():
            parent, change = sides.get("parent", {}), sides.get("change", {})
            if not parent or not change:
                continue
            pairs = sorted(parent.keys() & change.keys())
            wins = sum(change[k] < parent[k] for k in pairs)
            p_spread, c_spread = _spread(list(parent.values())), _spread(list(change.values()))
            rise = c_spread["median"] / p_spread["median"] - 1
            quartiles = p_spread["q3"] - p_spread["q1"]
            bound = bounds.get(name)
            entry[name] = {
                "parent": p_spread,
                "change": c_spread,
                "change_wins": f"{wins}/{len(pairs)}",
                "change_vs_parent": round(rise, 4),
                "parent_spread": quartiles,
                "gap_exceeds_spread": abs(c_spread["median"] - p_spread["median"]) > quartiles,
                "bound": bound,
                "over_bound": None if bound is None else rise > bound,
            }
        entry["failed"] = {
            side: sum(run["result"]["failed"] for run in mine if run["side"] == side)
            for side in SIDES
        }
        entry["invalid_runs"] = [
            f"{run['side']} pair {run['pair']}" for run in mine if not _valid(run)
        ]
        summary[workload] = entry
    return summary


def _machine() -> dict:
    machine = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                machine["cpu_model"] = line.partition(":")[2].strip()
                break
    return machine


def src_lines(tree: Path) -> int:
    """The newlines in tree's src/votebias/*.py, as ``cat src/votebias/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "votebias").glob("*.py"))


def _identity(runs: list[dict], side: str, tree: Path) -> dict:
    info = next(run["info"] for run in runs if run["side"] == side and run["info"])
    return {"commit": info["commit"], "src_sha256": info["src_sha256"], "src_lines": src_lines(tree)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's tree")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        compile_tree(tree)
    runs = []
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                run = run_once(trees[side], workload, seconds)
                runs.append({"workload": workload, "side": side, "pair": pair, **run})
                wall = run["result"]["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: wall_s {wall}", file=sys.stderr)
    summary = summarize(runs, {m["name"]: m["bound"] for m in benchmark.get("end_to_end", [])})
    report = {
        "what": "perfbench/run.py result lines, parent vs change, alternating order per pair",
        "parent": _identity(runs, "parent", args.parent),
        "change": _identity(runs, "change", args.change),
        "commands": {"end_to_end": " ".join(_command("{" + ",".join(workloads) + "}", seconds))},
        "order": (
            f"workloads {', '.join(workloads)} in turn, {PAIRS} pairs each; pair k "
            "runs the parent first for odd k and the change first for even k"
        ),
        "machine": _machine(),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    invalid = {w: entry["invalid_runs"] for w, entry in summary.items() if entry["invalid_runs"]}
    if invalid:
        print(f"benchpair: invalid runs, left out of the summary: {invalid}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
