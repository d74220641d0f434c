"""Closed-form witness recipes: domains, validation, full grid coverage."""

from __future__ import annotations

import dataclasses

import pytest

from votebias import (
    ConstructionError,
    audit_profile,
    construct,
    construct_cycle_profile,
    construct_type1_witness,
    constructive_witness,
    greenberg_threshold,
    has_l_cycle,
    in_table,
    majority_graph,
    minimal_threshold,
    minimax_direct,
    profile_threshold,
)
from votebias.search import MAX_H, MAX_N, certify_witness

from conftest import GRID_H, GRID_N, count, smallest_cycle_length


class TestCycleProfile:
    def test_simple_triple(self):
        p = construct_cycle_profile(3, 3, 5)
        assert p.h == 5 and p.n == 3
        assert has_l_cycle(majority_graph(p, 3), 3)

    def test_embedding_keeps_the_cycle(self):
        p = construct_cycle_profile(3, 3, 5, n=6)
        assert p.n == 6
        g = majority_graph(p, 3)
        assert has_l_cycle(g, 3)
        # The appended tail is ranked below the cycle by every voter, so the
        # cycle members unanimously beat the tail.
        t = p.tally()
        for x in (1, 2, 3):
            for y in (4, 5, 6):
                assert count(t, x, y) == 5

    @pytest.mark.parametrize(
        "l, mu, h",
        [
            (l, mu, h)
            for l in GRID_N
            for h in GRID_H
            for mu in range(h // 2 + 1, h + 1)
            if mu * l <= (l - 1) * h
        ],
    )
    def test_domain_interior(self, l, mu, h):
        # The whole domain with h <= 12 and n <= 8: the rotation never fails.
        assert mu * l <= (l - 1) * h and 2 * mu > h
        for n in range(l, max(GRID_N) + 1):
            p = construct_cycle_profile(l, mu, h, n=n)
            assert p.h == h and p.n == n
            assert has_l_cycle(majority_graph(p, mu), l)

    def test_rejects_sub_majority_threshold(self):
        with pytest.raises(ConstructionError, match="not a majority threshold"):
            construct_cycle_profile(3, 2, 4)

    def test_rejects_unreachable_tally(self):
        with pytest.raises(ConstructionError, match="requires mu"):
            construct_cycle_profile(3, 3, 4)

    def test_rejects_bad_length(self):
        with pytest.raises(ConstructionError):
            construct_cycle_profile(1, 2, 3)
        with pytest.raises(ConstructionError):
            construct_cycle_profile(4, 2, 3, n=3)

    def test_greenberg_bound_is_sharp(self):
        # Just below the forcing threshold a cycle exists; at it, none can.
        for h, n in [(3, 3), (6, 3), (4, 4), (8, 5), (12, 4)]:
            mu_g = greenberg_threshold(h, n)
            assert smallest_cycle_length(h, n, mu_g) is None
            if mu_g - 1 > h // 2:
                l = smallest_cycle_length(h, n, mu_g - 1)
                assert l is not None
                p = construct_cycle_profile(l, mu_g - 1, h, n=n)
                assert has_l_cycle(majority_graph(p, mu_g - 1), l)


class TestSmallestCycleLength:
    def test_values(self):
        assert smallest_cycle_length(3, 3, 2) == 3
        assert smallest_cycle_length(3, 3, 3) is None
        assert smallest_cycle_length(4, 4, 3) == 4
        assert smallest_cycle_length(12, 4, 10) is None
        assert smallest_cycle_length(12, 4, 9) == 4
        assert smallest_cycle_length(12, 4, 8) == 3

    def test_consistency_with_bound(self):
        for h in GRID_H:
            for n in GRID_N:
                for mu in range(minimal_threshold(h), h + 1):
                    l = smallest_cycle_length(h, n, mu)
                    if l is None:
                        assert all(mu * k > (k - 1) * h for k in range(3, n + 1))
                    else:
                        assert 3 <= l <= n and mu * l <= (l - 1) * h
                        assert all(mu * k > (k - 1) * h for k in range(3, l))


class TestParityConstructors:
    """The one type-1 recipe at odd h (cycle at mu0 + 1) and at even h (cycle at mu0)."""

    @pytest.mark.parametrize("h, n", [(9, 4), (7, 5), (5, 6), (5, 7), (11, 4), (9, 9)])
    def test_odd_witnesses(self, h, n):
        w = construct_type1_witness(h, n)
        p = w.profile
        mu0 = minimal_threshold(h)
        assert profile_threshold(p) == mu0
        assert profile_threshold(p.reverse()) == (h + 3) // 2
        assert minimax_direct(p) == minimax_direct(p.reverse()) == frozenset({n})
        assert w.flags == (True, True, True)

    @pytest.mark.parametrize("h, n", [(6, 4), (4, 5), (8, 4), (4, 8), (10, 4), (12, 8)])
    def test_even_witnesses(self, h, n):
        w = construct_type1_witness(h, n)
        p = w.profile
        mu0 = minimal_threshold(h)
        assert profile_threshold(p) == mu0
        assert profile_threshold(p.reverse()) == mu0
        assert minimax_direct(p) == minimax_direct(p.reverse()) == frozenset({n})
        assert w.flags == (True, True, True)

    def test_odd_domain_errors(self):
        with pytest.raises(ConstructionError, match="n >= 4"):
            construct_type1_witness(9, 3)
        with pytest.raises(ConstructionError, match=r"3\(n-1\); no such witness"):
            construct_type1_witness(5, 4)
        with pytest.raises(ConstructionError, match=r"3\(n-1\); no such witness"):
            construct_type1_witness(7, 4)

    def test_even_domain_errors(self):
        with pytest.raises(ConstructionError, match="n >= 4"):
            construct_type1_witness(4, 3)
        with pytest.raises(ConstructionError, match=r"2\(n-1\); no such witness"):
            construct_type1_witness(4, 4)
        with pytest.raises(ConstructionError, match=r"2\(n-1\); no such witness"):
            construct_type1_witness(2, 4)


class TestDispatch:
    def test_domain_predicate_complements_the_immunity_region(self):
        # Inside the CLI bounds the recipes cover exactly the cells the
        # classification marks as vulnerable, so verify may ask for a witness
        # on any cell: constructive_witness answers None where no recipe applies.
        for h in range(2, MAX_H + 1):
            for n in range(2, MAX_N + 1):
                for j in (1, 2, 3):
                    assert (construct._recipe(h, n, j) is None) == in_table(j, h, n), (h, n, j)

    def test_immune_cells_return_none(self):
        assert constructive_witness(3, 5, 1) is None
        assert constructive_witness(4, 4, 2) is None
        assert constructive_witness(3, 3, 3) is None
        assert constructive_witness(12, 2, 3) is None

    def test_every_vulnerable_cell_yields_a_certified_witness(self):
        for h in GRID_H:
            for n in GRID_N:
                for j in (1, 2, 3):
                    w = constructive_witness(h, n, j)
                    if in_table(j, h, n):
                        assert w is None
                        continue
                    assert w is not None
                    assert w.j == j and w.method == "constructive"
                    assert w.profile.h == h and w.profile.n == n
                    report = audit_profile(w.profile, rules=("minimax",))[0]
                    assert (report.type1, report.type2, report.type3)[j - 1]

    def test_each_witness_is_certified_once(self, monkeypatch):
        certified = []

        def certify(profile, j, **kwargs):
            certified.append((profile.h, profile.n, j))
            return certify_witness(profile, j, **kwargs)

        monkeypatch.setattr(construct, "certify_witness", certify)
        for h, n, j in ((6, 4, 1), (6, 4, 3), (9, 4, 2), (5, 4, 2), (4, 4, 3)):
            assert constructive_witness(h, n, j).j == j
        assert certified == [(6, 4, 1), (6, 4, 3), (9, 4, 2), (5, 4, 2), (4, 4, 3)]

    def test_the_type1_witness_keeps_its_shape_check(self, monkeypatch):
        def certify(profile, j, **kwargs):
            return dataclasses.replace(certify_witness(profile, j, **kwargs), mu_pr=99)

        monkeypatch.setattr(construct, "certify_witness", certify)
        with pytest.raises(ConstructionError, match="sanity check failed"):
            constructive_witness(6, 4, 2)

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            constructive_witness(4, 4, 0)
        with pytest.raises(ValueError):
            constructive_witness(4, 4, 4)
