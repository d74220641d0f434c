"""Every cataloged profile must reproduce its frozen published outcome."""

from __future__ import annotations

import hashlib

import pytest

from votebias import (
    audit_profile,
    borda,
    load,
    minimax_direct,
    minimax_threshold,
    profile_threshold,
    serialize_profile,
)
from votebias import fixtures

from conftest import borda_scores

FIXED_IDS = ["intro-6-4", "tm2-5-4", "tm2-5-5", "tm2-7-4", "tm3-4-4", "confronto1-3-3"]

# sha256 of the text `votebias fixtures emit <id>` prints (without its newline).
EMITTED_SHA256 = {
    "intro-6-4": "14514008beaba430a964eaa3347004c28293193a28e856129523fb13ccd5151f",
    "tm2-5-4": "d003721f93da4e2a211eeee3c5407c043b81f3f980a739cbe1bd8ca83d18f6a2",
    "tm2-5-5": "8e5b1ba8d8286ba39cb0784dd855d0c252a4e7bcca9b67b48fec2701b81afc3e",
    "tm2-7-4": "225c6d267d9ae38033cf50ae5f71bc0f81dcb78a1cdc441e0773a2b06ce0d385",
    "tm3-4-4": "2568cedd44b844a1a2d1c7b6d336dcee34ecbb8d4769de77b15c0ad821379d3a",
    "confronto1-3-3": "940569458aa312818d96c878f16e3ae75d43dd221c6ee56482527dba8798c9e3",
}


def check_minimax_expectations(fixture):
    p = fixture.profile
    exp = fixture.expected
    assert minimax_direct(p) == exp["selection_p"]
    assert minimax_direct(p.reverse()) == exp["selection_pr"]
    if "mu_p" in exp:
        assert profile_threshold(p) == exp["mu_p"]
    if "mu_pr" in exp:
        assert profile_threshold(p.reverse()) == exp["mu_pr"]
    report = next(r for r in audit_profile(p, rules=("minimax",)))
    fired = (report.type1, report.type2, report.type3)
    strongest = exp["fires"]
    assert fired == tuple(j >= strongest for j in (1, 2, 3))


@pytest.mark.parametrize("fid", [f for f in FIXED_IDS if f != "confronto1-3-3"])
def test_fixed_minimax_fixtures(fid):
    check_minimax_expectations(load(fid))


@pytest.mark.parametrize("n", range(4, 9))
def test_family_three_voters(n):
    fx = load(f"tm2-3-n({n})")
    assert fx.profile.h == 3 and fx.profile.n == n
    check_minimax_expectations(fx)


@pytest.mark.parametrize("n", range(3, 9))
def test_family_two_voters(n):
    fx = load(f"tm3-2-n({n})")
    assert fx.profile.h == 2 and fx.profile.n == n
    check_minimax_expectations(fx)


@pytest.mark.parametrize("h", [2, 4, 5, 6, 7, 8, 10, 11])
def test_family_three_alternatives(h):
    fx = load(f"tm3-h-3({h})")
    assert fx.profile.h == h and fx.profile.n == 3
    check_minimax_expectations(fx)


def test_rule_comparison_fixture():
    fx = load("confronto1-3-3")
    exp = fx.expected
    assert minimax_threshold(fx.profile) == exp["minimax"]
    assert borda(fx.profile) == exp["borda"]
    assert borda_scores(fx.profile) == exp["borda_scores"]


def test_every_fixture_round_trips_through_load():
    for fid in FIXED_IDS:
        fx = load(fid)
        assert fx.fixture_id == fid
        assert fx.description


def test_family_domain_errors():
    with pytest.raises(ValueError):
        load("tm2-3-n(3)")
    with pytest.raises(ValueError):
        load("tm3-2-n(2)")
    with pytest.raises(ValueError):
        load("tm3-h-3(3)")


def test_unknown_ids():
    for bad in ("nope", "tm3-h-3", "tm3-h-3(x)", "tm2-3-n()", "tm3-h-3(\u0661\u0662)",
                "tm3-h-3(８)", "tm3-h-3(8)\n"):
        with pytest.raises(ValueError, match="unknown fixture id"):
            load(bad)


def test_family_parameters_are_bounded_before_building(monkeypatch):
    class Built(Exception):
        pass

    def refuse(k):
        raise Built(k)

    for name, (_, domain, description, bound) in list(fixtures._FAMILIES.items()):
        monkeypatch.setitem(fixtures._FAMILIES, name, (refuse, domain, description, bound))
    for name, bound in (("tm2-3-n", 20), ("tm3-2-n", 20), ("tm3-h-3", 200)):
        with pytest.raises(Built):
            load(f"{name}({bound})")
        for k in (bound + 1, 200_000):
            with pytest.raises(ValueError, match=f"parameter {k} is over the limit of {bound}"):
                load(f"{name}({k})")


def test_fixed_ids_are_the_catalogue():
    # A fixed fixture left out of FIXED_IDS would have no check of its expected outcome.
    assert sorted(FIXED_IDS) == sorted(fixtures._FIXED)


@pytest.mark.parametrize("fid", FIXED_IDS)
def test_fixed_profiles_are_pinned(fid):
    # The rules are anonymous, so the expected outcomes cannot see two voters
    # swapped; the emitted bytes can.
    text = serialize_profile(load(fid).profile)
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTED_SHA256[fid]


def test_each_load_gets_its_own_expected_outcome():
    load("tm2-5-4").expected["fires"] = 1
    load("confronto1-3-3").expected["borda_scores"][1] = 0
    assert load("tm2-5-4").expected["fires"] == 2
    assert load("confronto1-3-3").expected["borda_scores"] == {1: 4, 2: 4, 3: 1}
