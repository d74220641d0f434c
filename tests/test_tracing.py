"""The benchmark's tracer must find every public name it wraps."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        target = importlib.import_module(f"votebias.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"
