"""Shared oracles, hypothesis strategies, and session-wide exhaustive scans.

The oracles here are deliberately naive reimplementations (position
comparisons, the immunity regions written out literally) so the package is
always checked against independently derived values, never against itself.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from votebias import Profile, Ranking, TallyMatrix, anonymous_count, rules, scan_minimax

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
GRID_H = range(2, 13)
GRID_N = range(2, 9)
EXHAUSTIVE_CAP = 5_000_000

T1_EXCEPTIONS = {(4, 4), (5, 4), (7, 4), (5, 5)}


def expected_immune(j: int, h: int, n: int) -> bool:
    """The immunity regions spelled out, independent of votebias.bias."""
    if j == 1:
        return h <= 3 or n <= 3 or (h, n) in T1_EXCEPTIONS
    if j == 2:
        return h == 2 or n <= 3 or (h, n) == (4, 4)
    if j == 3:
        return n == 2 or (h, n) == (3, 3)
    raise ValueError(j)


# --- naive rule oracles ------------------------------------------------------


def rank(q: Ranking, x: int) -> int:
    """1-based position of alternative x in q (1 = best)."""
    return q.order.index(x) + 1


def count(t: TallyMatrix, x: int, y: int) -> int:
    """Voters ranking x above y, read off the tally's 1-based cell."""
    return t.counts[x - 1][y - 1]


def naive_tally(profile: Profile, x: int, y: int) -> int:
    return sum(1 for q in profile.columns if rank(q, x) < rank(q, y))


def naive_worst_defeat(profile: Profile, x: int) -> int:
    return max(naive_tally(profile, y, x) for y in range(1, profile.n + 1) if y != x)


def naive_minimax(profile: Profile) -> set[int]:
    wd = {x: naive_worst_defeat(profile, x) for x in range(1, profile.n + 1)}
    best = min(wd.values())
    return {x for x, v in wd.items() if v == best}


def naive_borda_scores(profile: Profile) -> dict[int, int]:
    return {
        x: sum(q.n - rank(q, x) for q in profile.columns)
        for x in range(1, profile.n + 1)
    }


def naive_borda(profile: Profile) -> set[int]:
    scores = naive_borda_scores(profile)
    best = max(scores.values())
    return {x for x, v in scores.items() if v == best}


def naive_copeland_scores(profile: Profile) -> dict[int, int]:
    n, h = profile.n, profile.h
    mu0 = h // 2 + 1
    out = {}
    for x in range(1, n + 1):
        wins = sum(1 for y in range(1, n + 1) if y != x and naive_tally(profile, x, y) >= mu0)
        losses = sum(1 for y in range(1, n + 1) if y != x and naive_tally(profile, y, x) >= mu0)
        out[x] = wins - losses
    return out


def naive_copeland(profile: Profile) -> set[int]:
    scores = naive_copeland_scores(profile)
    best = max(scores.values())
    return {x for x, v in scores.items() if v == best}


def borda_scores(profile: Profile) -> dict[int, int]:
    """The library's Borda scores, read off its tally core."""
    return _core_scores(rules._borda_scores, profile)


def copeland_scores(profile: Profile) -> dict[int, int]:
    """The library's Copeland scores, read off its tally core."""
    return _core_scores(rules._copeland_scores, profile)


def _core_scores(scores, profile: Profile) -> dict[int, int]:
    return dict(enumerate(scores(rules.upper_tally(profile), profile.h, profile.n), start=1))


def smallest_cycle_length(h: int, n: int, mu: int) -> int | None:
    """Smallest l <= n admitting an l-cycle at threshold mu, if any."""
    for l in range(3, n + 1):
        if mu * l <= (l - 1) * h:
            return l
    return None


def naive_dominant(profile: Profile, mu: int) -> set[int]:
    return {
        x
        for x in range(1, profile.n + 1)
        if all(naive_tally(profile, y, x) < mu for y in range(1, profile.n + 1) if y != x)
    }


def random_profile(rng: random.Random, h: int, n: int) -> Profile:
    alts = list(range(1, n + 1))
    return Profile(tuple(Ranking(tuple(rng.sample(alts, n))) for _ in range(h)))


# --- hypothesis strategies ---------------------------------------------------


@st.composite
def profiles(draw, min_h=2, max_h=7, min_n=2, max_n=5):
    n = draw(st.integers(min_n, max_n))
    h = draw(st.integers(min_h, max_h))
    base = list(range(1, n + 1))
    cols = tuple(Ranking(tuple(draw(st.permutations(base)))) for _ in range(h))
    return Profile(cols)


# --- shared exhaustive scans -------------------------------------------------


def exhaustive_grid_cells() -> list[tuple[int, int]]:
    """Every (h, n) on the grid whose representative space fits the cap."""
    return [
        (h, n)
        for h in GRID_H
        for n in GRID_N
        if anonymous_count(h, n) <= EXHAUSTIVE_CAP
    ]


@pytest.fixture(scope="session")
def kernel_scans():
    """Full scans of every cap-feasible grid cell, shared across criteria.

    Each value is a KernelReport with exact bias counts for all three types,
    the dual-route mismatch counter, and Condorcet statistics.
    """
    return {
        (h, n): scan_minimax(h, n, want=(1, 2, 3), track_condorcet=True)
        for (h, n) in exhaustive_grid_cells()
    }


@pytest.fixture()
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path as the benchmark runner loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module
