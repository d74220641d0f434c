"""Every cataloged profile must reproduce its frozen published outcome."""

from __future__ import annotations

import pytest

from votebias import (
    audit_profile,
    borda,
    fixture_ids,
    fixture_profile,
    load,
    minimax_direct,
    minimax_threshold,
    profile_threshold,
)
from votebias import fixtures

from conftest import borda_scores

FIXED_IDS = ["intro-6-4", "tm2-5-4", "tm2-5-5", "tm2-7-4", "tm3-4-4", "confronto1-3-3"]


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
        assert fixture_profile(fid).columns == fx.profile.columns
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


def test_fixture_ids_lists_everything():
    ids = fixture_ids()
    for fid in FIXED_IDS:
        assert fid in ids
    assert any(entry.startswith("tm2-3-n(k)") for entry in ids)
    assert any(entry.startswith("tm3-2-n(k)") for entry in ids)
    assert any(entry.startswith("tm3-h-3(k)") for entry in ids)
