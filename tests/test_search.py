"""Enumeration, the scan kernel, and the two witness-search modes."""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import (
    CertificationError,
    Profile,
    all_rankings,
    anonymous_count,
    audit_profile,
    certify_witness,
    enumerate_anonymous,
    find_witness,
    load,
    neutral_count,
    parse_profile,
    profile_from_indices,
    resolve_workers,
    sample_profile,
    scan_minimax,
    serialize_profile,
)
from votebias import search
from votebias.rules import upper_tally
from votebias.search import OUTCOME_IMMUNE, OUTCOME_INCONCLUSIVE, OUTCOME_WITNESS


class TestCounting:
    @pytest.mark.parametrize(
        "h, n, expected",
        [
            (2, 2, 3),
            (3, 3, 56),
            (4, 4, 17_550),
            (5, 4, 98_280),
            (7, 4, 2_035_800),
            (3, 5, 295_240),
            (2, 6, 259_560),
            (5, 5, 225_150_024),
        ],
    )
    def test_anonymous_count_values(self, h, n, expected):
        assert anonymous_count(h, n) == expected

    @pytest.mark.parametrize(
        "h, n, expected",
        [(2, 7, 5040), (2, 8, 40_320), (3, 6, 259_560), (2, 2, 2), (3, 3, 21)],
    )
    def test_neutral_count_values(self, h, n, expected):
        assert neutral_count(h, n) == expected

    def test_neutral_cut_is_smaller(self):
        for h in range(2, 8):
            for n in range(2, 6):
                assert neutral_count(h, n) < anonymous_count(h, n)

    def test_counts_reject_degenerate_sizes(self):
        with pytest.raises(ValueError):
            anonymous_count(1, 3)
        with pytest.raises(ValueError):
            neutral_count(3, 1)


class TestAllRankings:
    def test_lexicographic_and_complete(self):
        r3 = all_rankings(3)
        assert [q.order for q in r3] == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
            (3, 1, 2),
            (3, 2, 1),
        ]
        assert len(all_rankings(4)) == 24
        assert all_rankings(4)[0].order == (1, 2, 3, 4)


class TestEnumerateAnonymous:
    def test_visits_every_multiset_once(self):
        seen = []
        visited = enumerate_anonymous(3, 3, lambda p: seen.append(p))
        assert visited == 56 == len(seen)
        keys = {tuple(sorted(q.order for q in p.columns)) for p in seen}
        assert len(keys) == 56
        # Representatives come out with nondecreasing ranking indices.
        order = {q.order: i for i, q in enumerate(all_rankings(3))}
        for p in seen:
            idx = [order[q.order] for q in p.columns]
            assert idx == sorted(idx)


class TestSampling:
    def test_deterministic_per_seed_and_index(self):
        a = sample_profile(5, 4, seed=7, index=3)
        b = sample_profile(5, 4, seed=7, index=3)
        assert a.columns == b.columns
        stream = [serialize_profile(sample_profile(5, 4, seed=7, index=i)) for i in range(5)]
        assert stream[3] == serialize_profile(a)
        assert len(set(stream)) > 1

    def test_shapes(self):
        p = sample_profile(6, 5, seed=0, index=0)
        assert p.h == 6 and p.n == 5


class TestResolveWorkers:
    def test_default_and_env(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("VOTEBIAS_WORKERS", raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv("VOTEBIAS_WORKERS", "4")
        assert resolve_workers() == 4
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 1
        monkeypatch.setenv("VOTEBIAS_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("VOTEBIAS_WORKERS", "100000")
        assert resolve_workers() == 3
        assert resolve_workers(100_000) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers() == 1


class TestStrategy:
    """find_witness's mode and budget arguments."""

    def test_validation(self):
        for mode in ("best-effort", "constructive"):
            with pytest.raises(ValueError, match="unknown search mode"):
                find_witness(3, 3, 1, mode=mode)
        with pytest.raises(ValueError, match="budget must be positive"):
            find_witness(3, 3, 1, budget=0)

    def test_effective_budget_defaults(self, monkeypatch):
        assert search.DEFAULT_EXHAUSTIVE_BUDGET == 5_000_000
        assert "over budget 5000000" in find_witness(5, 5, 1).note
        assert search.DEFAULT_SAMPLE_BUDGET == 100_000
        monkeypatch.setattr(search, "DEFAULT_SAMPLE_BUDGET", 40)
        assert find_witness(3, 3, 1, mode="sampled").examined == 40
        assert find_witness(3, 3, 1, mode="sampled", budget=9).examined == 9


class TestCertifyWitness:
    def test_accepts_a_true_witness(self):
        p = load("tm2-5-4").profile
        w = certify_witness(p, 2, "minimax", method="fixture")
        assert w.flags == (False, True, True)
        assert w.selection_p == frozenset({1})
        assert w.mu_p == 3 and w.mu_pr == 4

    def test_rejects_a_non_witness(self):
        p = parse_profile("1 1\n2 2\n3 3")
        with pytest.raises(CertificationError):
            certify_witness(p, 3, "minimax", method="fixture")

    def test_json_schema(self):
        p = load("tm3-4-4").profile
        w = certify_witness(p, 3, "minimax", method="exhaustive", seed=None)
        d = w.to_json_dict()
        assert set(d) == {
            "h",
            "n",
            "j",
            "rule",
            "profile",
            "selection_p",
            "selection_pr",
            "mu_p",
            "mu_pr",
            "strategy",
            "seed",
        }
        assert d["h"] == 4 and d["n"] == 4 and d["j"] == 3
        assert d["strategy"] == "exhaustive"
        assert d["profile"] == serialize_profile(p)
        assert d["selection_p"] == [1, 2, 4]
        assert d["selection_pr"] == [1, 3, 4]


def brute_counts(h: int, n: int, rule: str = "minimax") -> tuple[dict, dict, int]:
    """Independent bias counts, first-hit indices and the number of distinct
    tallies, via the plain audit path."""
    counts = {1: 0, 2: 0, 3: 0}
    firsts: dict[int, tuple[int, ...] | None] = {1: None, 2: None, 3: None}
    tallies = set()
    order = {q.order: i for i, q in enumerate(all_rankings(n))}

    def visit(p):
        r = audit_profile(p, rules=(rule,))[0]
        flags = (r.type1, r.type2, r.type3)
        idx = tuple(order[q.order] for q in p.columns)
        for j in (1, 2, 3):
            if flags[j - 1]:
                counts[j] += 1
                if firsts[j] is None:
                    firsts[j] = idx
        tallies.add(tuple(upper_tally(p)))

    enumerate_anonymous(h, n, visit)
    return counts, firsts, len(tallies)


class TestScanKernel:
    @pytest.mark.parametrize(
        "h, n, rule",
        [
            pytest.param(h, n, rule, id=f"{h}-{n}" if rule == "minimax" else f"{h}-{n}-{rule}")
            for rule in ("minimax", "borda", "copeland")
            for h, n in [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4)]
        ],
    )
    def test_counts_and_firsts_match_plain_audit(self, h, n, rule):
        expected_counts, expected_firsts, distinct = brute_counts(h, n, rule)
        report = scan_minimax(h, n, want=(1, 2, 3), rule=rule)
        # Leaves share tallies here, so most of them are answered by the verdict cache.
        assert distinct < report.examined == anonymous_count(h, n)
        assert report.counts == expected_counts
        assert report.firsts == expected_firsts
        assert report.kramer_mismatches == 0

    def test_a_mismatch_counts_every_leaf_of_its_tally(self, monkeypatch):
        h, n = 4, 3
        leaves = Counter()
        enumerate_anonymous(h, n, lambda p: leaves.update([tuple(upper_tally(p))]))
        real = search.minimax_defeats
        split = [u for u in leaves if len(set(real(u, h, n)[0])) > 1]
        target = max(split, key=leaves.__getitem__)
        assert leaves[target] > 1
        # The kernel reads a leaf's verdict off its worst defeats, so a skew keyed
        # by the target's defeats reaches every leaf that has them.
        defeats = real(target, h, n)[:2]
        skewed_leaves = sum(c for u, c in leaves.items() if real(u, h, n)[:2] == defeats)
        assert skewed_leaves >= leaves[target]
        thresholds = search.minimax_thresholds

        def skewed(wd, wdr, h):
            mu_p, mu_pr = thresholds(wd, wdr, h)
            if (wd, wdr) == defeats:
                mu_p = h + 1  # the threshold route selects everyone, the argmin does not
            return mu_p, mu_pr

        monkeypatch.setattr(search, "minimax_thresholds", skewed)
        assert scan_minimax(h, n).kramer_mismatches == skewed_leaves
        assert search._leaf_verdict(list(target), h, n, "minimax") & 1

    @pytest.mark.parametrize("n, top", [(3, 12), (4, 5)])
    def test_the_mismatch_bit_is_zero_on_every_tally(self, n, top):
        # The cells TestCondorcetOnTallies covers; _minimax_bits' docstring proves it everywhere.
        checked = 0
        for h in range(2, top + 1):
            for u in itertools.product(range(h + 1), repeat=n * (n - 1) // 2):
                assert search._leaf_verdict(list(u), h, n, "minimax") & search._MISMATCH == 0, u
                checked += 1
        assert checked == sum((h + 1) ** (n * (n - 1) // 2) for h in range(2, top + 1))

    def test_a_full_verdict_cache_starts_afresh(self, monkeypatch):
        plain = scan_minimax(4, 4)
        monkeypatch.setattr(search, "VERDICT_CACHE_LIMIT", 3)
        assert scan_minimax(4, 4) == plain

    def test_stop_early_agrees_on_the_first_hit(self):
        full = scan_minimax(4, 3, want=(3,))
        early = scan_minimax(4, 3, want=(3,), stop_early=True)
        assert early.firsts[3] == full.firsts[3]
        assert early.examined <= full.examined

    def test_parallel_equals_sequential(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        seq = scan_minimax(5, 4, want=(1, 2, 3), workers=1)
        par = scan_minimax(5, 4, want=(1, 2, 3), workers=3)
        assert par.examined == seq.examined == anonymous_count(5, 4)
        assert par.counts == seq.counts
        assert par.firsts == seq.firsts
        assert par.kramer_mismatches == seq.kramer_mismatches == 0

    def test_parallel_scan_keeps_the_rule(self, monkeypatch):
        # Minimax has type-2 and type-3 hits at (5,4); a worker running it would count them.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = scan_minimax(5, 4, want=(1, 2, 3), workers=2, rule="borda")
        assert report.examined == anonymous_count(5, 4)
        assert report.counts == {1: 0, 2: 0, 3: 0}

    def test_short_scan_raises(self, monkeypatch):
        scan = search._scan

        def one_short(*args, **kwargs):
            report = scan(*args, **kwargs)
            report.examined -= 1
            return report

        monkeypatch.setattr(search, "_scan", one_short)
        with pytest.raises(RuntimeError, match="visited 55 of 56"):
            scan_minimax(3, 3)
        with pytest.raises(RuntimeError, match="visited 20 of 21"):
            scan_minimax(3, 3, want=(3,), stop_early=True, neutral_cut=True, rule="borda")
        # A scan that stopped after finding every wanted type is not short.
        early = scan_minimax(4, 3, want=(3,), stop_early=True)
        assert early.firsts[3] is not None

    @pytest.mark.parametrize("h, n", [(3, 3), (4, 3), (3, 4), (4, 4)])
    def test_neutral_cut_preserves_existence(self, h, n):
        plain = scan_minimax(h, n, want=(1, 2, 3))
        cut = scan_minimax(h, n, want=(1, 2, 3), neutral_cut=True)
        assert cut.examined == neutral_count(h, n)
        for j in (1, 2, 3):
            assert (cut.counts[j] > 0) == (plain.counts[j] > 0)

    def test_profile_from_indices_roundtrip(self):
        idx = (0, 3, 3, 5)
        p = profile_from_indices(3, idx)
        rankings = all_rankings(3)
        assert p.columns == tuple(rankings[i] for i in idx)
        for n in (2, 3, 4, 5):
            every = tuple(range(len(all_rankings(n))))
            assert profile_from_indices(n, every).columns == all_rankings(n)
        with pytest.raises(IndexError):
            profile_from_indices(3, (6,))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pair_tables_are_one_voter_tallies(self, n):
        # A profile needs two voters; two copies of q tally twice its vector.
        expected = [upper_tally(Profile((q, q))) for q in all_rankings(n)]
        assert [[2 * a for a in vec] for vec in search._pair_tables(n)] == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_builder_matches_the_row_formulas(self, n):
        # The formulas each table had before the shared builder, kept as oracles.
        vecs = tuple(map(search._upper_row, itertools.permutations(range(n))))
        assert search._pair_tables(n) == vecs
        size = n * (n - 1) // 2
        for h in (2, 3, 35, 36, search.MAX_H):
            weights = [(h + 1) ** k for k in range(size)]
            expected = tuple(sum(itertools.compress(weights, vec)) for vec in vecs)
            assert search._packed_rows(n, h) == expected, h
        rows, bits, _, _ = search._mask_table(n)
        base = sum(d_xy | v_yx for _, _, d_xy, _, _, v_yx in bits)
        flips = [(d_yx | v_xy) - (d_xy | v_yx) for _, _, d_xy, d_yx, v_xy, v_yx in bits]
        assert rows == tuple(base + sum(itertools.compress(flips, vec)) for vec in vecs)

    def test_n_past_the_table_limit_never_builds_it(self, monkeypatch):
        def refuse(n, *_):
            raise AssertionError(f"ranking table built for n={n}")

        monkeypatch.setattr(search, "_pair_tables", refuse)
        monkeypatch.setattr(search, "_linear_rows", refuse)
        note = "ranking table holds 3628800 rankings, over the limit of 362880"
        with pytest.raises(ValueError, match=note):
            scan_minimax(2, 10, neutral_cut=True)
        # neutral_count(2, 10) = 3,628,800 fits the default budget; the table does not.
        res = find_witness(2, 10, 1)
        assert res.outcome == OUTCOME_INCONCLUSIVE
        assert res.examined == 0
        assert res.note == note


@pytest.mark.parametrize("cleared", [False, True])
@pytest.mark.parametrize(
    "h, n", [(h, 3) for h in range(2, 9)] + [(h, 4) for h in range(2, 6)] + [(2, 5)]
)
def test_tight_rival_masks_match_the_plain_leaf_verdict(h, n, cleared, monkeypatch):
    """Every parent of h - 1 voters times every last voter, through the helper _scan calls.

    One shared dict serves the cell.  With cleared, VERDICT_CACHE_LIMIT is 1, so
    every parent build after the first clears the dict and restarts the tags at 0."""
    if cleared:
        monkeypatch.setattr(search, "VERDICT_CACHE_LIMIT", 1)
    vecs = search._pair_tables(n)
    plain: dict[tuple[int, ...], int] = {}
    shared: dict = {}
    checked = 0
    for parent in itertools.combinations_with_replacement(range(len(vecs)), h - 1):
        u = [sum(col) for col in zip(*(vecs[r] for r in parent))]
        verdict = search._tight_verdicts(u, h, n, shared)
        for r, vec in enumerate(vecs):
            leaf = tuple(map(add, u, vec))
            if leaf not in plain:
                plain[leaf] = search._leaf_verdict(list(leaf), h, n, "minimax")
            assert verdict(r) == plain[leaf], (parent, r)
            checked += 1
    assert checked == math.comb(len(vecs) + h - 2, h - 1) * len(vecs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mask_rows_hold_the_rivals_above_and_below(n):
    rows, _, low, guard = search._mask_table(n)
    width = n + 1
    assert low == sum(((1 << n) - 1) << b * width for b in range(2 * n))
    assert guard == sum(1 << b * width + n for b in range(2 * n))
    for ranking, row in zip(all_rankings(n), rows, strict=True):
        place = {x: i for i, x in enumerate(ranking.order)}
        for x in range(n):
            above = {y for y in range(n) if place[y + 1] < place[x + 1]}
            below = set(range(n)) - above - {x}
            for block, rivals in ((x, above), (n + x, below)):
                bits = row >> block * width & (1 << width) - 1
                assert bits == sum(1 << y for y in rivals), (ranking.order, block)
        assert row & guard == 0


@given(st.integers(2, 6), st.integers(2, 60), st.data())
def test_packing_is_injective_and_carry_free(n, h, data):
    vecs, packed = search._pair_tables(n), search._packed_rows(n, h)
    rows = data.draw(st.lists(st.integers(0, len(vecs) - 1), max_size=h))
    u = [sum(vecs[r][k] for r in rows) for k in range(n * (n - 1) // 2)]
    key = sum(packed[r] for r in rows)
    # The sum of the packed rows is the packed sum: no digit carried.
    assert key == sum(a * (h + 1) ** k for k, a in enumerate(u))
    # Its base-(h + 1) digits give u back, so distinct tallies get distinct keys.
    digits = []
    for _ in u:
        key, digit = divmod(key, h + 1)
        digits.append(digit)
    assert (digits, key) == (u, 0)


class TestFindWitness:
    def test_exhaustive_certifies_immunity(self):
        res = find_witness(3, 3, 3)
        assert res.outcome == OUTCOME_IMMUNE
        assert res.examined == res.space == 56
        assert res.witness is None

    def test_exhaustive_finds_and_certifies(self):
        res = find_witness(4, 3, 3)
        assert res.outcome == OUTCOME_WITNESS
        assert res.witness is not None
        assert res.witness.j == 3 and res.witness.rule == "minimax"
        assert res.examined <= res.space == anonymous_count(4, 3)
        report = audit_profile(res.witness.profile, rules=("minimax",))[0]
        assert report.type3

    def test_exhaustive_respects_budget(self):
        res = find_witness(4, 4, 1, budget=100)
        assert res.outcome == OUTCOME_INCONCLUSIVE
        assert res.examined == 0
        assert "over budget 100" in res.note

    def test_exhaustive_with_neutral_cut(self):
        # A budget that fits only the cut scans under it.
        res = find_witness(3, 4, 2, budget=neutral_count(3, 4))
        assert res.outcome == OUTCOME_WITNESS
        assert res.space == anonymous_count(3, 4)
        assert res.examined <= neutral_count(3, 4)
        assert "neutrality cut" in res.note

    def test_sampled_hit_and_miss(self):
        hit = find_witness(4, 4, 3, mode="sampled", seed=11)
        assert hit.outcome == OUTCOME_WITNESS
        assert hit.seed == 11 and hit.witness.seed == 11
        again = find_witness(4, 4, 3, mode="sampled", seed=11)
        assert again.examined == hit.examined
        assert again.witness.profile.columns == hit.witness.profile.columns

        miss = find_witness(3, 3, 1, mode="sampled", budget=50)
        assert miss.outcome == OUTCOME_INCONCLUSIVE
        assert miss.examined == 50
        assert "cannot certify immunity" in miss.note

    def test_borda_and_copeland_are_immune_exhaustively(self, monkeypatch):
        # Reversal complements Borda scores and negates Copeland scores, so
        # neither rule can keep a proper selection alive; every small cell
        # certifies immune for every type.
        scan, scanned = search.scan_minimax, []

        def spy(*args, **kwargs):
            scanned.append(kwargs["rule"])
            return scan(*args, **kwargs)

        monkeypatch.setattr(search, "scan_minimax", spy)
        for rule in ("borda", "copeland"):
            for h, n in [(2, 3), (3, 3), (4, 3), (2, 4)]:
                for j in (1, 2, 3):
                    res = find_witness(h, n, j, rule=rule)
                    assert res.outcome == OUTCOME_IMMUNE
                    assert res.examined == anonymous_count(h, n)
        assert scanned == ["borda"] * 12 + ["copeland"] * 12

    def test_dual_route_mismatch_raises(self, monkeypatch):
        scan = search.scan_minimax

        def one_mismatch(*args, **kwargs):
            report = scan(*args, **kwargs)
            report.kramer_mismatches = 1
            return report

        monkeypatch.setattr(search, "scan_minimax", one_mismatch)
        for h, n in [(3, 3), (4, 3)]:
            with pytest.raises(RuntimeError, match="disagree on 1 profiles"):
                find_witness(h, n, 3)

    def test_cells_past_the_size_bound_raise_before_any_count(self, monkeypatch):
        # 2000! has more digits than Python will format; the bound comes first.
        def count(*args):
            raise AssertionError("a space was counted")

        monkeypatch.setattr(search, "anonymous_count", count)
        monkeypatch.setattr(search, "neutral_count", count)
        for h, n in [(2, 21), (2, 2000), (201, 3), (1, 3)]:
            with pytest.raises(ValueError, match=r"need 2 <= h <= 200 and 2 <= n <= 20"):
                find_witness(h, n, 3)
        assert (search.MAX_H, search.MAX_N) == (200, 20)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            find_witness(3, 3, 4)
        with pytest.raises(ValueError):
            find_witness(3, 3, 1, rule="plurality")


@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 30))
def test_sampled_profiles_are_well_formed(h, n, index):
    p = sample_profile(h, n, seed=271828, index=index)
    assert p.h == h and p.n == n
    for q in p.columns:
        assert sorted(q.order) == list(range(1, n + 1))
