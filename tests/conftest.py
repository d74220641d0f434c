"""Shared oracles, hypothesis strategies, and session-wide exhaustive scans.

The oracles here are deliberately naive reimplementations (position
comparisons, the immunity regions written out literally) so the package is
always checked against independently derived values, never against itself.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

from votebias import (
    Profile,
    Ranking,
    all_rankings,
    anonymous_count,
    audit_profile,
    bias,
    enumerate_anonymous,
    rules,
    sample_profile,
    scan_minimax,
    search,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
GRID_H = range(2, 13)
GRID_N = range(2, 9)
EXHAUSTIVE_CAP = 5_000_000

T1_EXCEPTIONS = {(4, 4), (5, 4), (7, 4), (5, 5)}
# perfbench's sweep cells.
SWEEP_CELLS = ((3, 3), (4, 3), (6, 3), (3, 4), (2, 5))
# Cells certifiable only through the neutrality cut (identity-anchored
# multisets); the plain representative count exceeds the enumeration cap.
NEUTRAL_CUT_CELLS = [(2, 7), (2, 8), (3, 6)]


def sweep_and_sampled_profiles() -> list[Profile]:
    """Every multiset of the sweep cells, then 2,000 samples at (7, 5)."""
    seen = []
    for h, n in SWEEP_CELLS:
        enumerate_anonymous(h, n, seen.append)
    seen += [sample_profile(7, 5, 271828, i) for i in range(2000)]
    assert len(seen) == 10_504 + 2000
    return seen


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


def count(t: tuple[tuple[int, ...], ...], x: int, y: int) -> int:
    """Voters ranking x above y, read off the tally's 1-based cell."""
    return t[x - 1][y - 1]


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


def naive_analysis(n: int, arcs: frozenset) -> dict:
    """analyze's JSON from sets, a DFS and permutations, with no bitmask."""
    vertices = range(1, n + 1)
    outs = {x: {y for a, y in arcs if a == x} for x in vertices}
    ins = {y: {x for x, b in arcs if b == y} for y in vertices}
    components, seen = [], set()
    for start in vertices:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for w in outs[v] | ins[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        inside = [(x, y) for x, y in arcs if x in comp]
        # Acyclic iff some order of the component puts every arc forward.
        acyclic = any(
            all(order.index(x) < order.index(y) for x, y in inside)
            for order in itertools.permutations(sorted(comp))
        )
        components.append({"vertices": sorted(comp), "acyclic": acyclic})
    return {
        "maximal": [x for x in vertices if not ins[x]],
        "minimal": [x for x in vertices if not outs[x]],
        "isolated": [x for x in vertices if not ins[x] and not outs[x]],
        "maxima": [x for x in vertices if len(outs[x]) == n - 1],
        "minima": [x for x in vertices if len(ins[x]) == n - 1],
        "components": components,
        "acyclic": all(c["acyclic"] for c in components),
    }


def brute_counts(h: int, n: int) -> tuple[dict, dict, int]:
    """Independent minimax bias counts, first-hit indices and the number of
    distinct tallies, via the plain audit path."""
    counts = {1: 0, 2: 0, 3: 0}
    firsts: dict[int, tuple[int, ...] | None] = {1: None, 2: None, 3: None}
    tallies = set()
    order = {q.order: i for i, q in enumerate(all_rankings(n))}

    def visit(p):
        r = audit_profile(p, rules=("minimax",))[0]
        flags = (r.type1, r.type2, r.type3)
        idx = tuple(order[q.order] for q in p.columns)
        for j in (1, 2, 3):
            if flags[j - 1]:
                counts[j] += 1
                if firsts[j] is None:
                    firsts[j] = idx
        tallies.add(tuple(rules.upper_tally(p)))

    enumerate_anonymous(h, n, visit)
    return counts, firsts, len(tallies)


# Read at import, so that a case which swaps bias._report still builds true reports.
_build_report = bias._report.__wrapped__


def fresh_reports(profile: Profile, names: tuple[str, ...]) -> list:
    """audit_profile's reports on the profile, each built afresh by
    bias._report's inner function from the rule's uncached selections."""
    h, n = profile.h, profile.n
    u = rules._core.__wrapped__(profile.tally())[0]
    return [_build_report(name, h, n, *rules.TALLY_RULES[name](u, h, n)) for name in names]


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


@contextmanager
def per_leaf_minimax():
    """Minimax scans inside judge every leaf by _leaf_verdict, through the
    per-leaf decider that rule pairs use.  It is the reference the
    bitset decider is held to, and the one route that reads each leaf's
    dual-route mismatch bit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            search, "_minimax_decider", lambda h, n, want: search._leaf_decider(h, n, "minimax")
        )
        yield


@pytest.fixture(scope="session")
def kernel_scans():
    """Full scans of every cap-feasible grid cell, shared across criteria.

    Each value is a KernelReport with exact bias counts for all three types
    and the dual-route mismatch counter, from the per-leaf reference route,
    so that the counter has judged every leaf.
    """
    with per_leaf_minimax():
        return {
            (h, n): scan_minimax(h, n, want=(1, 2, 3))
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
