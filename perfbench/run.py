"""votebias benchmark: closed-loop passes of one workload, checked and timed.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

  grid        verify --j 2,3 over h 2..4, n 2..8: the scan kernel.
  hard-cells  verify of the (5,5,1) cell by 10k seeded samples: the object path.
  sweep       every multiset at five small cells through audit_profile,
              property_violations and minimax_direct: rules, graphs, properties.

One caller in one process runs one pass after another for ``--seconds``, with
the worker pool off.  Each pass starts with the package's lazy tables cleared,
so it pays what a fresh command pays; its outputs are checked after it ends,
outside the timed region.

Times are reported in reference seconds.  On a shared machine the host's speed
can drift by a fifth to a third within minutes, and the drift slows
allocation-heavy Python far more than tight integer loops.  So a fixed probe
loop shaped like the workload's hot path (``kernel`` for grid, ``objects`` for
the rest and for set-up) is timed between passes, and each measured time is
divided by the probe's slowdown (its time over its reference time), averaged
over the probes on either side.  On a shared 2-vCPU Xeon host with Python
3.11 this cut the spread (interquartile range over median) of 30-second
medians from 0.19 to 0.035 on hard-cells and from 0.38 to 0.10 on sweep, and
left grid at 0.05.  The raw seconds and slowdowns are printed too.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass) and
``setup_s`` (median time for a fresh interpreter to import ``votebias.cli``).
``--trace 1`` runs the untraced passes for half the time, adds one traced pass,
and prints the per-layer metrics instead; ``tracing_overhead_s`` is the
traced pass minus the median untraced pass.  The last stdout line is always
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the package cannot be imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 271828
# Fresh-interpreter imports per run for setup_s, half before the passes and half after.
SETUP_RUNS = 10
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import votebias.cli"


def _import_package():
    """Import votebias from this checkout's src/, or None when it is not there."""
    if not (SRC / "votebias" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import votebias

    if SRC.resolve() not in Path(votebias.__file__).resolve().parents:
        return None
    return votebias


def _objects_probe() -> None:
    """Small tuples, frozensets, generator expressions and dict lookups, like the object path."""
    table: dict = {}
    total = 0
    for i in range(150_000):
        key = (i % 5, i % 3, i % 7)
        picked = frozenset(x for x in key if x > 1)
        table[key] = len(picked)
        total += max(key) + table.get(key, 0)


def _kernel_probe() -> None:
    """Integer list updates and small comprehensions, like the scan kernel's leaf."""
    u = [3, 1, 2, 0, 2, 1, 3, 0, 1, 2]
    px = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3]
    py = [1, 2, 3, 4, 2, 3, 4, 3, 4, 4]
    n, h, total = 5, 4, 0
    for step in range(80_000):
        wd = [0] * n
        for k in range(10):
            a = u[k]
            b = h - a
            if b > wd[px[k]]:
                wd[px[k]] = b
            if a > wd[py[k]]:
                wd[py[k]] = a
        low = min(wd)
        total += len([x for x in range(n) if wd[x] == low])
        u[step % 10] = (u[step % 10] + 1) % (h + 1)


# Probe name -> (probe, its time in seconds on the reference host).
PROBES = {"objects": (_objects_probe, 0.15), "kernel": (_kernel_probe, 0.16)}


def calibrate(probe: str) -> float:
    """The host's slowdown now: a probe loop's time over its reference time.

    The probes touch no votebias code, so no change to the program moves them.
    The collector is off so that the size of the program's heap cannot either.
    """
    loop, reference = PROBES[probe]
    gc.disable()
    try:
        started = time.perf_counter()
        loop()
        return (time.perf_counter() - started) / reference
    finally:
        gc.enable()


def scaled(times: list[float], slowdowns: list[float]) -> list[float]:
    """Each time in reference seconds; slowdowns[k] and [k + 1] bracket times[k]."""
    return [t * 2 / (slowdowns[k] + slowdowns[k + 1]) for k, t in enumerate(times)]


def measure_setup(count: int) -> tuple[list[float], list[float]]:
    """Seconds for `count` fresh interpreters to import votebias.cli: scaled and raw."""
    raw, slowdowns = [], [calibrate("objects")]
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - started)
        slowdowns.append(calibrate("objects"))
    return scaled(raw, slowdowns), raw


def _clear_lazy_tables() -> None:
    """Drop every functools cache in the package, as a fresh process would have."""
    for name, module in list(sys.modules.items()):
        if name == "votebias" or name.startswith("votebias."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed_pass(workload, recorder=None):
    _clear_lazy_tables()
    gc.collect()
    started = time.perf_counter()
    result = workload.run(recorder)
    return time.perf_counter() - started, result


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(samples)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return p, sorted(samples)[(p * n + 99) // 100 - 1]


def source_identity() -> dict:
    """Commit from .git when the checkout has one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            loose, packed = ROOT / ".git" / ref, ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "hard-cells", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs for the self-test; results are checked but not comparable",
    )
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.pop("VOTEBIAS_WORKERS", None)
    if _import_package() is None:
        print(f"perfbench: votebias is not importable from {SRC}", file=sys.stderr)
        return 2
    from tracing import SpanRecorder, Tracing, layer_metrics, moves
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    window = args.seconds / 2 if args.trace else args.seconds

    setup, setup_raw = measure_setup(SETUP_RUNS // 2)
    raw, slowdowns, outcomes = [], [calibrate(workload.probe)], []
    started = time.perf_counter()
    while True:
        wall, result = timed_pass(workload)
        raw.append(wall)
        slowdowns.append(calibrate(workload.probe))
        outcomes.append(workload.check(result))
        if time.perf_counter() - started + statistics.median(raw) > window:
            break
    walls = scaled(raw, slowdowns)
    more, more_raw = measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    setup += more
    setup_raw += more_raw
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setup)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        recorder = SpanRecorder()
        before = calibrate(workload.probe)
        with Tracing(recorder) as tracing:
            traced_raw, result = timed_pass(workload, recorder)
        traced_wall = scaled([traced_raw], [before, calibrate(workload.probe)])[0]
        traced = workload.check(result)
        outcomes.append(traced)
        metrics.update(layer_metrics(recorder, tracing.examined))
        metrics["search.visited_fraction"] = (traced.visited_fraction, "ratio")
        metrics["search.witness_yield"] = (traced.witness_yield, "ratio")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["tracing_overhead_s"] = (traced_wall - wall_s, "s")
        recorder.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics["wall_s"] = (wall_s, "s")
        metrics["setup_s"] = (setup_s, "s")

    attempted = sum(o.attempted for o in outcomes)
    settled = sum(o.settled for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    if args.trace:
        metrics["settled_ratio"] = (settled / attempted, "ratio")
        metrics["failed_ratio"] = (failed / attempted, "ratio")

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... and {len(problems) - 20} more")
    tail = tail_percentile(walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}{' + 1 traced' if args.trace else ''}")
    print(f"  wall_s         {wall_s:.6f} s   median of {len(walls)} passes "
          f"(raw {statistics.median(raw):.6f} s); "
          + (f"p{tail[0]} {tail[1]:.6f} s" if tail else
             "no higher percentile has 10 passes beyond it"))
    print(f"  setup_s        {setup_s:.6f} s   median of {len(setup)} fresh interpreters "
          f"(raw {statistics.median(setup_raw):.6f} s)")
    print(f"  settled_ratio  {settled / attempted:.6f} ratio   {settled}/{attempted} operations")
    print(f"  failed_ratio   {failed / attempted:.6f} ratio   {failed}/{attempted} operations")
    if args.trace:
        for name, (value, unit) in metrics.items():
            target = moves(name)
            print(f"  {name:<42} {value:<12.6g} {unit:<6}" + (f" moves {target}" if target else ""))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **source_identity(),
        "operations_per_pass": outcomes[0].attempted,
        "wall_s_samples": len(walls),
        "wall_s_passes": [round(w, 6) for w in walls],
        "raw_wall_s_passes": [round(w, 6) for w in raw],
        "setup_s_samples": len(setup),
        "probe": workload.probe,
        "slowdown_median": statistics.median(slowdowns),
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
