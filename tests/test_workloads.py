"""The benchmark's workloads must still run and pass their own checks on tiny inputs."""

from __future__ import annotations

import pytest


@pytest.mark.parametrize("name", ["grid", "hard-cells", "sweep"])
def test_tiny_pass_is_clean(workloads, monkeypatch, name):
    monkeypatch.delenv("VOTEBIAS_WORKERS", raising=False)
    workload = workloads.WORKLOADS[name](seed=1, tiny=True)
    outcome = workload.check(workload.run())
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.attempted > 0
