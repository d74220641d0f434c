"""Structural invariants must hold on fixtures, random draws, and sweeps."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from votebias import (
    construct_cycle_profile,
    enumerate_anonymous,
    fixture_profile,
    property_violations,
)

from conftest import profiles, random_profile, smallest_cycle_length

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
    assert property_violations(fixture_profile(fid)) == []


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
        assert property_violations(fixture_profile(fid).reverse()) == []
