"""Span recorder and the wrappers that feed it, installed from outside the package.

Tracing rebinds each traced public name in every ``votebias.*`` namespace that
holds it (for example both ``votebias.bias.audit_profile`` and
``votebias.search.audit_profile``) and patches the traced methods on their
classes.  Nothing under ``src/`` is edited.  Each wrapped call records a span
(name, start, end, parent); self time is the span's duration minus the time
its direct child spans cover, accumulated per name as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, attribute path, workloads and end-to-end metric the layer should move).
# The metric suffixes reported for each span are listed in SPAN_METRICS.
TRACED = (
    ("cli", "main", "grid wall_s"),
    ("search", "scan_minimax", "grid wall_s"),
    ("search", "certify_witness", "grid wall_s"),
    ("search", "sample_profile", "hard-cells wall_s"),
    ("search", "find_witness", "hard-cells wall_s"),
    ("search", "enumerate_anonymous", "sweep wall_s"),
    ("construct", "constructive_witness", "grid wall_s"),
    ("bias", "audit_profile", "hard-cells and sweep wall_s"),
    ("bias", "bias_flags", "hard-cells and sweep wall_s"),
    ("rules", "minimax_threshold", "hard-cells and sweep wall_s"),
    ("rules", "minimax_direct", "hard-cells and sweep wall_s"),
    ("rules", "borda", "sweep wall_s"),
    ("rules", "copeland", "sweep wall_s"),
    ("graphs", "profile_threshold", "hard-cells and sweep wall_s"),
    ("graphs", "dominant_set", "hard-cells and sweep wall_s"),
    ("graphs", "majority_graph", "sweep wall_s"),
    ("graphs", "analyze", "sweep wall_s"),
    ("prefs", "Profile.tally", "hard-cells and sweep wall_s"),
    ("prefs", "Profile.reverse", "hard-cells and sweep wall_s"),
    ("prefs", "Ranking.beats", "hard-cells and sweep wall_s"),
    ("properties", "property_violations", "sweep wall_s"),
)

# Which of calls / self_s / per_s each span reports; the rest report calls and self_s.
SPAN_METRICS = {
    "cli.main": ("self_s",),
    "search.sample_profile": ("calls", "self_s", "per_s"),
    "search.enumerate_anonymous": ("self_s",),
    "bias.audit_profile": ("calls", "self_s", "per_s"),
    "properties.property_violations": ("calls", "self_s", "per_s"),
}

# The end-to-end metric each per-layer metric should move, keyed by metric or span name.
MOVES = {
    **{f"{module}.{attr}": target for module, attr, target in TRACED},
    "prefs.Ranking.created": "hard-cells and sweep wall_s",
    "search.visited_fraction": "grid and hard-cells settled_ratio",
    "search.witness_yield": "grid and hard-cells settled_ratio",
}


def moves(metric: str) -> str:
    """The end-to-end metric a per-layer metric should move, or '' for none."""
    return MOVES.get(metric) or MOVES.get(metric.rsplit(".", 1)[0], "")


# Spans kept for the span file; self times cover every span regardless.
SPAN_LOG_LIMIT = 100_000


class SpanRecorder:
    """In-memory spans plus per-name call counts and self times."""

    def __init__(self):
        self.limit = SPAN_LOG_LIMIT
        self.spans: list = []  # index = span id; (name, start, end, parent id)
        self.next_id = 0
        self.stack: list[list] = []  # open spans: [name, id, start, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn, on_result=None):
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            if sid < self.limit:
                spans.append(None)
            frame = [name, sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                calls[name] += 1
                self_s[name] += duration - frame[3]
                parent = -1
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][1]
                if sid < self.limit:
                    spans[sid] = (name, frame[2], end, parent)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """Wrap fn so that calls are counted without opening a span."""
        counters = self.counters
        counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            if self.next_id > len(self.spans):
                out.write(json.dumps({"dropped": self.next_id - len(self.spans)}) + "\n")


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "votebias" or name.startswith("votebias."))]


class Tracing:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.examined = 0  # KernelReport.examined summed over scan_minimax calls
        self._undo: list = []

    def _on_scan(self, report) -> None:
        self.examined += report.examined

    def __enter__(self) -> "Tracing":
        import votebias

        rec = self.recorder
        for module_name, attr, _ in TRACED:
            module = sys.modules[f"votebias.{module_name}"]
            name = f"{module_name}.{attr}"
            on_result = self._on_scan if name == "search.scan_minimax" else None
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch_attr(cls, method, rec.wrap(name, vars(cls)[method], on_result))
            else:
                original = getattr(module, attr)
                self._rebind(original, rec.wrap(name, original, on_result))
        ranking = votebias.prefs.Ranking
        self._patch_attr(
            ranking, "__post_init__",
            rec.count("prefs.Ranking.created", vars(ranking)["__post_init__"]),
        )
        return self

    def _patch_attr(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for module in _namespaces():
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    self._patch_attr(module, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in value.items():
                        if v is original:
                            self._undo.append((dict.__setitem__, value, k, original))
                            value[k] = wrapper

    def __exit__(self, *exc) -> None:
        for restore, owner, key, value in reversed(self._undo):
            restore(owner, key, value)
        self._undo.clear()


def layer_metrics(recorder: SpanRecorder, examined: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for module_name, attr, _ in TRACED:
        name = f"{module_name}.{attr}"
        calls = recorder.calls.get(name, 0)
        busy = recorder.self_s.get(name, 0.0)
        for kind in SPAN_METRICS.get(name, ("calls", "self_s")):
            if kind == "calls":
                out[f"{name}.calls"] = (calls, "count")
            elif kind == "self_s":
                out[f"{name}.self_s"] = (busy, "s")
            else:
                out[f"{name}.per_s"] = (calls / busy if busy > 0 else 0.0, "1/s")
    scan_busy = recorder.self_s.get("search.scan_minimax", 0.0)
    out["search.scan_minimax.leaves_per_s"] = (
        examined / scan_busy if scan_busy > 0 else 0.0, "1/s"
    )
    out["prefs.Ranking.created"] = (recorder.counters.get("prefs.Ranking.created", 0), "count")
    return out
