"""Selection rules against naive oracles and against each other."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import (
    borda,
    condorcet_loser,
    condorcet_winner,
    copeland,
    minimal_threshold,
    minimax_direct,
    minimax_threshold,
    parse_profile,
    profile_threshold,
)
from votebias.rules import TALLY_RULES, minimax_defeats, minimax_tally, upper_pairs, upper_tally

from conftest import (
    borda_scores,
    copeland_scores,
    naive_borda,
    naive_borda_scores,
    naive_copeland,
    naive_copeland_scores,
    naive_dominant,
    naive_minimax,
    naive_tally,
    naive_worst_defeat,
    profiles,
)


class TestMinimax:
    @given(profiles())
    def test_minimax_defeats_against_oracle(self, p):
        wd = minimax_defeats(upper_tally(p), p.h, p.n)[0]
        assert wd == [naive_worst_defeat(p, x) for x in range(1, p.n + 1)]

    @given(profiles())
    def test_direct_route_against_oracle(self, p):
        assert set(minimax_direct(p)) == naive_minimax(p)

    @given(profiles())
    def test_both_routes_agree(self, p):
        assert minimax_direct(p) == minimax_threshold(p)
        pr = p.reverse()
        assert minimax_direct(pr) == minimax_threshold(pr)

    @given(profiles())
    def test_threshold_formula(self, p):
        mu0 = minimal_threshold(p.h)
        least_defeat = min(minimax_defeats(upper_tally(p), p.h, p.n)[0])
        assert profile_threshold(p) == max(mu0, least_defeat + 1)

    def test_unanimous_profile(self):
        p = parse_profile("1 1\n2 2\n3 3")
        assert minimax_direct(p) == frozenset({1})
        assert profile_threshold(p) == 2

    def test_condorcet_triple_selects_everyone(self):
        p = parse_profile("1 2 3\n2 3 1\n3 1 2")
        assert minimax_direct(p) == frozenset({1, 2, 3})
        assert profile_threshold(p) == 3


class TestBorda:
    @given(profiles())
    def test_scores_against_oracle(self, p):
        assert borda_scores(p) == naive_borda_scores(p)
        assert set(borda(p)) == naive_borda(p)

    @given(profiles())
    def test_scores_sum_to_pair_count_times_h(self, p):
        total = p.h * p.n * (p.n - 1) // 2
        assert sum(borda_scores(p).values()) == total

    @given(profiles())
    def test_score_is_row_sum_of_tally(self, p):
        scores = borda_scores(p)
        for x in range(1, p.n + 1):
            row = sum(naive_tally(p, x, y) for y in range(1, p.n + 1) if y != x)
            assert scores[x] == row

    @given(profiles())
    def test_reversal_complements_scores(self, p):
        f = borda_scores(p)
        g = borda_scores(p.reverse())
        bound = p.h * (p.n - 1)
        assert all(f[x] + g[x] == bound for x in f)

    def test_three_voter_example(self):
        p = parse_profile("1 1 3\n2 2 2\n3 3 1")
        assert borda_scores(p) == {1: 4, 2: 3, 3: 2}
        assert borda(p) == frozenset({1})


class TestCopeland:
    @given(profiles())
    def test_scores_against_oracle(self, p):
        assert copeland_scores(p) == naive_copeland_scores(p)
        assert set(copeland(p)) == naive_copeland(p)

    @given(profiles())
    def test_reversal_negates_scores(self, p):
        f = copeland_scores(p)
        g = copeland_scores(p.reverse())
        assert all(f[x] == -g[x] for x in f)

    @given(profiles())
    def test_scores_sum_to_zero(self, p):
        assert sum(copeland_scores(p).values()) == 0


class TestCondorcet:
    @given(profiles())
    def test_winner_definition(self, p):
        w = condorcet_winner(p)
        mu0 = minimal_threshold(p.h)
        winners = {
            x
            for x in range(1, p.n + 1)
            if all(naive_tally(p, x, y) >= mu0 for y in range(1, p.n + 1) if y != x)
        }
        assert (set() if w is None else {w}) == winners

    @given(profiles())
    def test_loser_is_winner_of_reversal(self, p):
        assert condorcet_loser(p) == condorcet_winner(p.reverse())

    @given(profiles())
    def test_winner_is_the_unique_minimax_and_copeland_choice(self, p):
        w = condorcet_winner(p)
        if w is None:
            return
        # A strict-majority winner caps its worst defeat below h/2 while every
        # rival suffers a defeat above h/2, so both rules single it out.
        assert minimax_direct(p) == frozenset({w})
        assert copeland(p) == frozenset({w})

    def test_cycle_has_neither(self):
        p = parse_profile("1 2 3\n2 3 1\n3 1 2")
        assert condorcet_winner(p) is None
        assert condorcet_loser(p) is None


class TestTallyCore:
    @given(profiles())
    def test_upper_tally_against_oracle(self, p):
        assert upper_tally(p) == [naive_tally(p, x + 1, y + 1) for x, y in upper_pairs(p.n)]

    @given(profiles())
    def test_every_rule_against_oracles_on_p_and_reversal(self, p):
        u = upper_tally(p)
        pr = p.reverse()
        oracles = {"minimax": naive_minimax, "borda": naive_borda, "copeland": naive_copeland}
        assert set(TALLY_RULES) == set(oracles)
        for name, oracle in oracles.items():
            sel_p, sel_pr, mu_p, mu_pr = TALLY_RULES[name](u, p.h, p.n)
            assert set(sel_p) == oracle(p), name
            assert set(sel_pr) == oracle(pr), name
            assert list(sel_p) == sorted(sel_p) and list(sel_pr) == sorted(sel_pr)
            if name != "minimax":
                assert mu_p is mu_pr is None
        _, _, mu_p, mu_pr = TALLY_RULES["minimax"](u, p.h, p.n)
        for q, mu in ((p, mu_p), (pr, mu_pr)):
            admissible = range(p.h // 2 + 1, p.h + 1)
            assert mu == min(m for m in admissible if naive_dominant(q, m))


def condorcet_selected_alone(u, h: int, n: int) -> bool:
    """Assert minimax_tally's Condorcet property on one tally; True iff p has a
    Condorcet winner.  Worst defeats are read pair by pair off u, not through
    rules.minimax_defeats."""
    index = {pair: k for k, pair in enumerate(upper_pairs(n))}

    def over(y, x):  # voters ranking y above x
        return u[index[y, x]] if y < x else h - u[index[x, y]]

    wd = [max(over(y, x) for y in range(n) if y != x) for x in range(n)]
    wdr = [max(over(x, y) for y in range(n) if y != x) for x in range(n)]
    bound = h - (h // 2 + 1)
    sel_p, sel_pr, _, _ = minimax_tally(u, h, n)
    for x in range(n):
        if wd[x] <= bound:
            assert sel_p == (x + 1,), (u, h, n)
        if wdr[x] <= bound:
            assert sel_pr == (x + 1,), (u, h, n)
    return min(wd) <= bound


class TestCondorcetOnTallies:
    """A Condorcet winner (worst defeat at most h - (h // 2 + 1)) is the
    minimax selection alone, on p and, through the best victories, on its
    reversal.  The tallies range over all of [0, h]^(n(n-1)/2), most of which
    no profile produces, so every leaf tally a scan can meet is among them.

    No scan needs to count Condorcet losers that minimax selects: suppose p
    selects a Condorcet loser L.  L is the Condorcet winner of the reversal pr,
    so by this property pr selects {L} alone.  pr's own reversal is p, which
    still selects L, so pr shows type-2 bias.  Criterion 2 certifies zero
    type-2 hits over the whole space of every type-2-immune cell, pr included,
    so no profile there selects its Condorcet loser.
    """

    @pytest.mark.parametrize("n, top", [(3, 12), (4, 5)])
    def test_every_tally(self, n, top):
        for h in range(2, top + 1):
            cells = itertools.product(range(h + 1), repeat=n * (n - 1) // 2)
            with_winner = sum(condorcet_selected_alone(u, h, n) for u in cells)
            assert 0 < with_winner < (h + 1) ** (n * (n - 1) // 2), (h, n)

    @given(st.data())
    def test_arbitrary_tallies(self, data):
        h = data.draw(st.integers(2, 60))
        n = data.draw(st.integers(2, 8))
        size = n * (n - 1) // 2
        u = data.draw(st.lists(st.integers(0, h), min_size=size, max_size=size))
        condorcet_selected_alone(u, h, n)
