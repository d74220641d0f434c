"""Selection rules against naive oracles and against each other."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import (
    Profile,
    analyze,
    audit_profile,
    bias_flags,
    borda,
    condorcet_loser,
    condorcet_winner,
    copeland,
    dominant_set,
    enumerate_anonymous,
    majority_graph,
    minimal_threshold,
    minimax_direct,
    minimax_threshold,
    parse_profile,
    profile_threshold,
    serialize_profile,
)
from votebias import bias, graphs, rules
from votebias.prefs import _alts
from votebias.rules import (
    TALLY_RULES,
    _borda_scores,
    _copeland_scores,
    minimax_defeats,
    minimax_tally,
    scored_tally,
    tally_core,
    upper_pairs,
    upper_tally,
)

from conftest import (
    SWEEP_CELLS,
    borda_scores,
    copeland_scores,
    fresh_reports,
    naive_borda,
    naive_borda_scores,
    naive_copeland,
    naive_copeland_scores,
    naive_dominant,
    naive_minimax,
    naive_tally,
    naive_worst_defeat,
    profiles,
    sweep_and_sampled_profiles,
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
            mask_p, mask_pr, mu_p, mu_pr = TALLY_RULES[name](u, p.h, p.n)
            assert mask_p == as_mask(oracle(p)), name
            assert mask_pr == as_mask(oracle(pr)), name
            if name != "minimax":
                assert mu_p is mu_pr is None
        _, _, mu_p, mu_pr = TALLY_RULES["minimax"](u, p.h, p.n)
        for q, mu in ((p, mu_p), (pr, mu_pr)):
            admissible = range(p.h // 2 + 1, p.h + 1)
            assert mu == min(m for m in admissible if naive_dominant(q, m))


def as_mask(selection) -> int:
    """The mask of a selection: bit x-1 for alternative x."""
    return sum(1 << x - 1 for x in selection)


def check_cached_core(p: Profile, first: int) -> None:
    """Read p's tally core, cached by tally, through each of its readers, starting
    with readers[first], and hold every answer to minimax_defeats on a fresh
    equal profile's upper triangle."""
    h, n = p.h, p.n
    u = upper_tally(Profile(p.columns))
    wd, wdr, mu_p, mu_pr = minimax_defeats(u, h, n)
    bound = h - minimal_threshold(h)

    def audited():
        r = audit_profile(p)[0]
        return as_mask(r.selection_p), as_mask(r.selection_pr), r.mu_p, r.mu_pr

    readers = [
        (lambda: minimax_direct(p), frozenset(x + 1 for x, d in enumerate(wd) if d == min(wd))),
        (lambda: condorcet_winner(p), next((x + 1 for x, d in enumerate(wd) if d <= bound), None)),
        (lambda: condorcet_loser(p), next((x + 1 for x, d in enumerate(wdr) if d <= bound), None)),
        (audited, minimax_tally(u, h, n)),
        (lambda: tally_core(p)[3:], (mu_p, mu_pr)),
    ]
    for read, want in readers[first:] + readers[:first]:
        assert read() == want, (serialize_profile(p), first)
    core = tally_core(p)
    assert core is tally_core(p)
    assert core == (tuple(u), tuple(wd), tuple(wdr), mu_p, mu_pr)
    assert all(type(part) is tuple for part in core[:3])


def test_tally_core_cached_by_tally_equals_a_fresh_one():
    for index, p in enumerate(sweep_and_sampled_profiles()):
        check_cached_core(p, index % 5)


def test_tally_keyed_caches_equal_their_uncached_functions():
    """Each fact cached by the tally, read warm, equals the inner function's
    uncached result on the profile's own tally.  Reports are held to ones
    built afresh, and equal reports are one object: both report caches start
    empty, and the run meets fewer distinct reports than _report's bound, so
    none is evicted and built again."""
    bias._reports.cache_clear()
    bias._report.cache_clear()
    handed = []
    for p in sweep_and_sampled_profiles():
        t = p.tally()
        h = p.h
        for names in (("minimax", "borda", "copeland"), ("copeland", "minimax")):
            audit_profile(p, names).clear()
            reports = audit_profile(p, names)
            assert reports == fresh_reports(p, names), (serialize_profile(p), names)
            handed += reports
        tally_core(p)
        assert tally_core(p) == rules._core.__wrapped__(t)
        worst = graphs._maxima.__wrapped__(t)
        admissible = range(minimal_threshold(h), h + 1)
        for mu in admissible:
            majority_graph(p, mu)
            assert majority_graph(p, mu) == graphs._graph.__wrapped__(t, mu)
            dominant_set(p, mu)
            assert dominant_set(p, mu) == {x for x, w in enumerate(worst, start=1) if w < mu}
        profile_threshold(p)
        assert profile_threshold(p) == min(mu for mu in admissible if min(worst) < mu)
    distinct = set(handed)
    assert len({id(r) for r in handed}) == len(distinct) < len(handed)


def test_shared_alternative_sets_equal_the_frozensets_they_replace():
    """Every set the object path hands out through prefs._alts equals the
    frozenset its former expression builds, in value and in iteration order,
    and is the one shared frozenset of its mask.  The audit's flags, worked
    out on masks, equal bias_flags on those frozensets."""

    def shared(got, old):
        assert type(got) is frozenset and got == old and list(got) == list(old)
        assert got is _alts(as_mask(old))

    for h, n in SWEEP_CELLS:
        full = (1 << n) - 1
        seen = []
        enumerate_anonymous(h, n, seen.append)
        for p in seen:
            worst = graphs._maxima(p.tally())
            for mu in range(minimal_threshold(h), h + 1):
                shared(dominant_set(p, mu), frozenset(x for x, w in enumerate(worst, start=1) if w < mu))
                g = majority_graph(p, mu)
                info = analyze(g)
                outs, ins = graphs._adjacency(n, g.arcs)
                maximal = frozenset(x for x, m in enumerate(ins, start=1) if not m)
                minimal = frozenset(x for x, m in enumerate(outs, start=1) if not m)
                shared(info.maximal, maximal)
                shared(info.minimal, minimal)
                shared(info.isolated, maximal & minimal)
                shared(info.maxima, frozenset(x + 1 for x, m in enumerate(outs) if m | 1 << x == full))
                shared(info.minima, frozenset(x + 1 for x, m in enumerate(ins) if m | 1 << x == full))
            u, wd = tally_core(p)[:2]
            shared(minimax_direct(p), frozenset(x + 1 for x, d in enumerate(wd) if d == min(wd)))
            for r in audit_profile(p):
                masks = TALLY_RULES[r.rule](u, h, n)[:2]
                sel_p, sel_pr = (frozenset(x + 1 for x in range(n) if m >> x & 1) for m in masks)
                shared(r.selection_p, sel_p)
                shared(r.selection_pr, sel_pr)
                assert (r.type1, r.type2, r.type3) == bias_flags(sel_p, sel_pr, n)


# Each mask with the selection it stands for: 0 is empty, -1 is what bias._mask
# makes of a member outside 1..n, and the others have a bit at n = 3.
@pytest.mark.parametrize(
    "bad", [(0, ()), (-1, (0,)), (-1, (-1,)), (1 << 3, (4,)), (1 << 1 | 1 << 3, (2, 4))]
)
def test_audit_keeps_the_flag_checks(monkeypatch, bad):
    """A mask that is empty, negative or has a bit at n or above fails the
    audit with bias_flags' own ValueError for its selection, on either side."""
    mask, selection = bad
    p = parse_profile("1 2 3\n2 3 1\n3 1 2")
    for sides, selections in (((mask, 1), (selection, (1,))), ((1, mask), ((1,), selection))):
        with pytest.raises(ValueError) as want:
            bias_flags(*selections, p.n)
        monkeypatch.setitem(TALLY_RULES, "bad", lambda u, h, n: (*sides, None, None))
        bias._reports.cache_clear()
        with pytest.raises(ValueError) as got:
            audit_profile(p, ("bad",))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n, top", [(3, 8), (4, 3)])
def test_score_rules_read_the_reversal_off_one_scoring(n, top):
    """scored_tally against the two-pass formula: score u, then score h - u."""

    def best(scores):
        return as_mask(x + 1 for x, s in enumerate(scores) if s == max(scores))

    for scores in (_borda_scores, _copeland_scores):
        for h in range(2, top + 1):
            for u in itertools.product(range(h + 1), repeat=n * (n - 1) // 2):
                two_pass = best(scores(u, h, n)), best(scores([h - a for a in u], h, n))
                assert scored_tally(scores, u, h, n) == (*two_pass, None, None), (u, h)


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
            assert sel_p == 1 << x, (u, h, n)
        if wdr[x] <= bound:
            assert sel_pr == 1 << x, (u, h, n)
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
