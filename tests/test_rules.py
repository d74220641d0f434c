"""Selection rules against naive oracles and against each other."""

from __future__ import annotations

from hypothesis import given

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
    worst_defeats,
)
from votebias.rules import TALLY_RULES, upper_pairs, upper_tally

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
    def test_worst_defeats_against_oracle(self, p):
        wd = worst_defeats(p)
        assert wd == {x: naive_worst_defeat(p, x) for x in range(1, p.n + 1)}

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
        least_defeat = min(worst_defeats(p).values())
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
