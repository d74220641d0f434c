"""Structural invariants must hold on fixtures, random draws, and sweeps."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from votebias import (
    Profile,
    construct_cycle_profile,
    enumerate_anonymous,
    load,
    properties,
    property_violations,
)

from conftest import profiles, random_profile, smallest_cycle_length, sweep_and_sampled_profiles

FIXTURE_IDS = [
    "intro-6-4",
    "tm2-5-4",
    "tm2-5-5",
    "tm2-7-4",
    "tm3-4-4",
    "confronto1-3-3",
    "tm2-3-n(5)",
    "tm3-2-n(6)",
    "tm3-h-3(7)",
]


@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_fixtures_are_clean(fid):
    assert property_violations(load(fid).profile) == []


@pytest.mark.parametrize("h, n", [(3, 3), (4, 4)])
def test_exhaustive_sweep_is_clean(h, n):
    bad: list[str] = []

    def visit(p):
        v = property_violations(p)
        if v:
            bad.append(f"{p.columns}: {v}")

    enumerate_anonymous(h, n, visit)
    assert bad == []


@given(profiles())
@settings(max_examples=200)
def test_random_profiles_are_clean(p):
    assert property_violations(p) == []


def test_larger_random_profiles_are_clean():
    rng = random.Random(99)
    for _ in range(150):
        h = rng.randint(2, 9)
        n = rng.randint(2, 6)
        assert property_violations(random_profile(rng, h, n)) == []


def test_cyclic_profiles_are_clean():
    # Profiles engineered to carry a cycle at some admissible threshold
    # exercise the branches where the dominant set is empty low down.
    cases = []
    for h, n in [(3, 3), (5, 3), (4, 4), (7, 4), (5, 5), (6, 5)]:
        for mu in range(h // 2 + 1, h + 1):
            l = smallest_cycle_length(h, n, mu)
            if l is not None:
                cases.append(construct_cycle_profile(l, mu, h, n=n))
    assert cases
    for p in cases:
        assert property_violations(p) == []


def test_reversal_of_a_clean_profile_is_clean():
    for fid in FIXTURE_IDS:
        assert property_violations(load(fid).profile.reverse()) == []


def test_cached_checker_equals_its_uncached_body():
    """property_violations, read warm, equals _violations' uncached body on a
    fresh equal profile's tallies, plus the (3, 3) column check."""
    cases = sweep_and_sampled_profiles() + [load(fid).profile.reverse() for fid in FIXTURE_IDS]
    for p in cases:
        property_violations(p)
    for p in cases:
        fresh = Profile(p.columns)
        want = list(properties._violations.__wrapped__(fresh.tally(), fresh.reverse().tally()))
        if (p.h, p.n) == (3, 3):
            want += properties._three_by_three_violations(fresh)
        assert property_violations(p) == want


@pytest.fixture
def cold_checker():
    """_violations emptied before and after, so no patched answer outlives its test."""
    properties._violations.cache_clear()
    yield
    properties._violations.cache_clear()


def test_a_wrong_dominant_set_is_reported(cold_checker, monkeypatch):
    p = load("tm2-5-5").profile
    assert property_violations(p) == []

    def everyone(profile, mu):
        return frozenset(range(1, profile.n + 1))

    monkeypatch.setattr(properties, "dominant_set", everyone)
    # A warm cache replays its answer: the patched route is not reached again.
    assert property_violations(p) == []
    properties._violations.cache_clear()
    assert "mu=3: dominant intersection differs from isolated vertices" in property_violations(p)


def test_a_reversal_that_returns_the_profile_is_reported(cold_checker, monkeypatch):
    p = load("intro-6-4").profile
    assert property_violations(p) == []
    monkeypatch.setattr(Profile, "reverse", lambda self: self)
    # No clearing: the key holds the reversal's own tally, so the broken
    # reversal meets a key of its own, which the warm cache has not seen.
    found = property_violations(p)
    assert any(v.endswith(": reversal graph is not the transpose") for v in found), found


def test_the_column_check_runs_on_every_profile(cold_checker, monkeypatch):
    p = load("confronto1-3-3").profile
    assert property_violations(p) == []
    has_l_cycle = properties.has_l_cycle
    monkeypatch.setattr(properties, "has_l_cycle", lambda graph, l: not has_l_cycle(graph, l))
    # The (3, 3) check of tops and bottoms reads columns, so it is not cached
    # with the tally checks: a warm cache still reaches the patched route.
    assert property_violations(p) == [
        "three-by-three: cyclic minimal-threshold graph does not match "
        "pairwise-distinct tops and bottoms"
    ]
