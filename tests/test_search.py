"""Enumeration, the scan kernel, and the two witness-search modes."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
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
from votebias.rules import minimax_defeats, upper_pairs, upper_tally
from votebias.search import OUTCOME_IMMUNE, OUTCOME_INCONCLUSIVE, OUTCOME_WITNESS

from conftest import NEUTRAL_CUT_CELLS, per_leaf_minimax


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


def _row_bytes(n: int) -> tuple[bytes, ...]:
    """Per ranking, the bytes of its _packed_rows row: its upper-triangle 0/1 vector."""
    size = n * (n - 1) // 2
    return tuple(row.to_bytes(size, "little") for row in search._packed_rows(n))


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
        # The per-leaf route reads a leaf's verdict off its worst defeats, so a
        # skew keyed by the target's defeats reaches every leaf that has them.
        defeats = real(target, h, n)[:2]
        skewed_leaves = sum(c for u, c in leaves.items() if real(u, h, n)[:2] == defeats)
        assert skewed_leaves >= leaves[target]

        def skewed(u, h, n):
            wd, wdr, mu_p, mu_pr = real(u, h, n)
            if (wd, wdr) == defeats:
                mu_p = h + 1  # the threshold route selects everyone, the argmin does not
            return wd, wdr, mu_p, mu_pr

        monkeypatch.setattr(search, "minimax_defeats", skewed)
        with per_leaf_minimax():
            assert scan_minimax(h, n).kramer_mismatches == skewed_leaves
        assert search._leaf_verdict(list(target), h, n, "minimax") & 1
        # The bitset route judges no single leaf, so it cannot see the skew.
        assert scan_minimax(h, n).kramer_mismatches == 0

    @pytest.mark.parametrize("n, top", [(3, 12), (4, 5)])
    def test_the_mismatch_bit_is_zero_on_every_tally(self, n, top):
        # The cells TestCondorcetOnTallies covers; _leaf_verdict's docstring proves it everywhere.
        checked = 0
        for h in range(2, top + 1):
            for u in itertools.product(range(h + 1), repeat=n * (n - 1) // 2):
                assert search._leaf_verdict(list(u), h, n, "minimax") & search._MISMATCH == 0, u
                checked += 1
        assert checked == sum((h + 1) ** (n * (n - 1) // 2) for h in range(2, top + 1))

    def test_a_full_verdict_cache_starts_afresh(self, monkeypatch):
        # The leaf cache serves rule pairs and the per-leaf reference; the
        # parent memo, bounded by the bits it holds, serves the bitset route.
        pair = ("minimax", "borda")
        plain, paired = scan_minimax(4, 4), scan_minimax(4, 4, rule=pair)
        with per_leaf_minimax():
            assert scan_minimax(4, 4) == plain
        assert paired.counts[1] > 0
        decider, builds = search._minimax_decider, []

        def counted(h, n, want):
            decide = decider(h, n, want)

            def spy(key, lo, until):
                if key not in decide.memo:
                    builds.append(key)
                return decide(key, lo, until)

            return spy

        monkeypatch.setattr(search, "_minimax_decider", counted)
        assert scan_minimax(4, 4) == plain
        # Parents share tallies, so the memo answers some of the 2,600 parents.
        parents = math.comb(24 + 2, 3)
        assert 0 < len(builds) < parents
        builds.clear()
        monkeypatch.setattr(search, "VERDICT_CACHE_LIMIT", 3)
        monkeypatch.setattr(search, "PARENT_MEMO_BITS", 1)
        assert scan_minimax(4, 4) == plain
        # Every entry overflows a memo of one bit, so every parent is built.
        assert len(builds) == parents
        assert scan_minimax(4, 4, rule=pair) == paired
        with per_leaf_minimax():
            assert scan_minimax(4, 4) == plain

    def test_stop_early_agrees_on_the_first_hit(self, monkeypatch):
        full = scan_minimax(4, 3, want=(3,))
        early = scan_minimax(4, 3, want=(3,), stop_early=True)
        assert early.firsts[3] == full.firsts[3]
        assert early.examined <= full.examined
        # The per-leaf route judges no leaf past the one that ends the scan,
        # though that leaf's parent has 5,040 leaves.
        verdict, judged = search._leaf_verdict, []
        monkeypatch.setattr(
            search, "_leaf_verdict", lambda *args: judged.append(args) or verdict(*args)
        )
        pair = scan_minimax(3, 7, want=(1,), stop_early=True, rule=("minimax", "borda"))
        assert pair.firsts[1] == (0, 0, 840)
        assert len(judged) <= pair.examined == 841

    def test_parallel_equals_sequential(self, monkeypatch):
        # Workers take stripes of each head's last parent voters, so the
        # depth-1 scans, (3,6) cut and (2,6) plain, are pooled too.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cases = [(5, 4, False, "minimax"), (4, 5, True, "minimax"), (3, 6, True, "minimax"),
                 (2, 6, False, "minimax"), (6, 4, True, "borda")]
        for h, n, cut, rule in cases:
            seq = scan_minimax(h, n, want=(1, 2, 3), workers=1, neutral_cut=cut, rule=rule)
            par = scan_minimax(h, n, want=(1, 2, 3), workers=3, neutral_cut=cut, rule=rule)
            space = neutral_count(h, n) if cut else anonymous_count(h, n)
            assert par.examined == seq.examined == space, (h, n, cut)
            assert par.counts == seq.counts, (h, n, cut)
            assert par.firsts == seq.firsts, (h, n, cut)
            assert par.kramer_mismatches == seq.kramer_mismatches == 0, (h, n, cut)

    def test_parallel_scan_keeps_the_rule(self, monkeypatch):
        # Minimax has type-2 and type-3 hits at (5,4); a worker running it would count them.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = scan_minimax(5, 4, want=(1, 2, 3), workers=2, rule="borda")
        assert report.examined == anonymous_count(5, 4)
        assert report.counts == {1: 0, 2: 0, 3: 0}

    def test_a_one_parent_scan_stays_serial(self, monkeypatch):
        # The cut (2, n) cells have one parent, the identity, so a second
        # worker would start with an empty stripe.
        import multiprocessing

        serial = scan_minimax(2, 9, want=(2, 3), neutral_cut=True, workers=1)

        def refuse(*args, **kwargs):
            raise AssertionError("a one-parent scan started a pool")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        pooled = scan_minimax(2, 9, want=(2, 3), neutral_cut=True, workers=2)
        assert (pooled.examined, pooled.counts, pooled.firsts) == (
            serial.examined, serial.counts, serial.firsts
        )

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
        assert [[2 * a for a in vec] for vec in _row_bytes(n)] == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_builder_matches_the_row_formulas(self, n):
        # The formulas each table had before the shared builder, kept as oracles.
        vecs = tuple(map(search._upper_row, itertools.permutations(range(n))))
        assert _row_bytes(n) == vecs
        weights = [256**k for k in range(n * (n - 1) // 2)]
        expected = tuple(sum(itertools.compress(weights, vec)) for vec in vecs)
        assert search._packed_rows(n) == expected

    def test_n_past_the_table_limit_never_builds_it(self, monkeypatch):
        def refuse(n, *_):
            raise AssertionError(f"ranking table built for n={n}")

        monkeypatch.setattr(search, "_packed_rows", refuse)
        monkeypatch.setattr(search, "_above_sets", refuse)
        note = "ranking table holds 3628800 rankings, over the limit of 362880"
        with pytest.raises(ValueError, match=note):
            scan_minimax(2, 10, neutral_cut=True)
        # neutral_count(2, 10) = 3,628,800 fits the default budget; the table does not.
        res = find_witness(2, 10, 1)
        assert res.outcome == OUTCOME_INCONCLUSIVE
        assert res.examined == 0
        assert res.note == note

    def test_bad_types_and_rules_are_refused_before_any_table(self, monkeypatch):
        # A repeated type was counted once per repeat, 0 was scanned for as if
        # the mismatch bit were a type, and 5 or "Borda" failed after the
        # tables were built.
        def refuse(n, *_):
            raise AssertionError(f"ranking table built for n={n}")

        for builder in ("_packed_rows", "_above_sets"):
            monkeypatch.setattr(search, builder, refuse)
        for want in [(), (1, 1), (0,), (5,), (2, 3, 2)]:
            with pytest.raises(ValueError, match="bias types must be distinct"):
                scan_minimax(6, 4, want=want)
            with pytest.raises(ValueError, match="bias types must be distinct"):
                search.search_exhaustive(3, 3, want)
        for rule in ["Borda", ("minimax",), ("minimax", "Borda"), ("minimax", "borda", "copeland")]:
            with pytest.raises(ValueError, match="rule must be one of"):
                scan_minimax(3, 3, rule=rule)


@pytest.mark.parametrize("cleared", [False, True])
@pytest.mark.parametrize(
    "h, n",
    [(h, 3) for h in range(2, 9)] + [(12, 3), (10, 2)] + [(h, 4) for h in range(2, 6)] + [(2, 5)],
)
def test_tight_rival_masks_match_the_plain_leaf_verdict(h, n, cleared, monkeypatch):
    """The bitset decider's sets, built from the parent's tight-rival rise
    masks: every parent of h - 1 voters times every last voter, each type bit
    held to _leaf_verdict, for all three types and for type 1 alone.

    One decider serves the cell, so its memo answers parents with equal
    tallies.  With cleared, PARENT_MEMO_BITS is 1, so the memo starts afresh
    after every entry and each parent's sets are built anew."""
    if cleared:
        monkeypatch.setattr(search, "PARENT_MEMO_BITS", 1)
    vecs = _row_bytes(n)
    K = len(vecs)
    every, first = search._minimax_decider(h, n, (1, 2, 3)), search._minimax_decider(h, n, (1,))
    plain: dict[tuple[int, ...], int] = {}
    checked = 0
    for parent in itertools.combinations_with_replacement(range(K), h - 1):
        u = [sum(col) for col in zip(*(vecs[r] for r in parent))]
        key = int.from_bytes(bytes(u), "little")
        sets = every(key, 0, 0)
        assert sets[0] == 0 and all(s >> K == 0 for s in sets), parent
        assert first(key, 0, 0) == [0, sets[1], 0, 0], parent
        for r, vec in enumerate(vecs):
            leaf = tuple(map(add, u, vec))
            if leaf not in plain:
                plain[leaf] = search._leaf_verdict(list(leaf), h, n, "minimax")
            assert sum((sets[j] >> r & 1) << j for j in (1, 2, 3)) == plain[leaf], (parent, r)
            checked += 1
    assert checked == math.comb(K + h - 2, h - 1) * K


@pytest.mark.parametrize("n", [7, 8])
def test_seeded_cut_parents_at_seven_and_eight_alternatives_match_the_leaf_verdict(n):
    """Seeded parents of the (3, n) cut, the identity plus a ranking v, each
    decided at once and held to _leaf_verdict on all n! leaves.  One v is
    drawn for each of the four ways v can start with 1 and end with n, so
    that argmin_sets meets a worst defeat tied at its minimum, a single one
    at it and one just above it, on p and on the reversal."""
    K, size = math.factorial(n), n * (n - 1) // 2
    rows = search._packed_rows(n)
    rng = random.Random(271828)
    parents: dict[tuple[bool, bool], int] = {}
    while len(parents) < 4:
        v = rng.randrange(K)
        order = search._unrank(n, v)
        parents.setdefault((order[0] == 1, order[-1] == n), v)
    decide = search._minimax_decider(3, n, (1, 2, 3))
    branches: dict[str, set[str]] = {"p": set(), "reversal": set()}
    hits = 0
    for v in parents.values():
        key = rows[0] + rows[v]
        sets = decide(key, 0, 0)
        for r in range(K):
            leaf = list((key + rows[r]).to_bytes(size, "little"))
            bits = sum((sets[j] >> r & 1) << j for j in range(4))
            assert bits == search._leaf_verdict(leaf, 3, n, "minimax"), (v, r)
        hits += sum(map(int.bit_count, sets))
        wd, wdr, _, _ = minimax_defeats(list(key.to_bytes(size, "little")), 2, n)
        for side, w in (("p", wd), ("reversal", wdr)):
            tied, near, _ = decide.plans[tuple(w)]
            branches[side] |= {"single-tied" if len(tied) == 1 else "tied"}
            branches[side] |= {"near"} if near else set()
    assert branches == {side: {"tied", "near", "single-tied"} for side in branches}
    assert hits


@given(st.integers(2, 8), st.integers(2, search.MAX_H), st.data())
def test_column_facts_match_the_worst_defeats_and_the_tight_rival_loop(n, h, data):
    """Each x's cached column facts, read off a parent tally u of h - 1 voters,
    are minimax_defeats' wd[x] and wdr[x] and the rise sets of the loop over
    the pairs that the column facts replaced, kept here as the oracle."""
    size = n * (n - 1) // 2
    u = data.draw(st.lists(st.integers(0, h - 1), min_size=size, max_size=size))
    decide = search._minimax_decider(h, n, (1, 2, 3))
    decide(int.from_bytes(bytes(u), "little"), 0, 0)
    wd, wdr, _, _ = minimax_defeats(u, h - 1, n)
    above = search._above_sets(n)
    rise, riser = [0] * n, [0] * n
    t = [[0] * n for _ in range(n)]
    for (x, y), a in zip(upper_pairs(n), u):
        b = h - 1 - a
        t[x][y], t[y][x] = a, b
        if b == wd[x]:
            rise[x] |= above[y][x]
        if a == wd[y]:
            rise[y] |= above[x][y]
        if a == wdr[x]:
            riser[x] |= above[x][y]
        if b == wdr[y]:
            riser[y] |= above[y][x]
    for x in range(n):
        column = tuple(t[y][x] for y in range(n) if y != x)
        facts = decide.columns[x][column if n > 2 else column[0]]
        assert facts == (wd[x], rise[x], wdr[x], riser[x]), (u, x)


def test_the_column_caches_start_afresh_with_the_parent_memo(monkeypatch):
    packed = search._packed_rows(4)
    keys = [packed[0] + packed[r] for r in range(0, 24, 5)]
    decide = search._minimax_decider(3, 4, (1, 2, 3))
    expected = [decide(key, 0, 0) for key in keys]
    assert len(decide.memo) == len(keys)
    assert all(decide.columns)
    assert decide.plans
    monkeypatch.setattr(search, "PARENT_MEMO_BITS", 1)
    decide = search._minimax_decider(3, 4, (1, 2, 3))
    for key, sets in zip(keys, expected):
        assert decide(key, 0, 0) == sets
        # The entry overflows a budget of one bit, so every kind of cache is empty.
        assert not decide.memo and not any(decide.columns)
        assert not decide.plans


@pytest.mark.parametrize("n", range(2, 9))
def test_mask_rows_hold_the_rivals_above_and_below(n):
    # above[a][b] holds the rankings that put a above b, so b below a.
    above = search._above_sets(n)
    places = [[q.order.index(x) for x in range(1, n + 1)] for q in all_rankings(n)]
    for a in range(n):
        for b in range(n):
            # Bit r of the set, read at index r; the width bounds it to n! bits.
            bits = format(above[a][b], f"0{len(places)}b")[::-1]
            expected = "".join("1" if a != b and p[a] < p[b] else "0" for p in places)
            assert bits == expected, (a, b)


def test_nine_alternatives_hold_the_rivals_above_on_seeded_rankings():
    # n = 9 is inside MAX_SCAN_RANKINGS; its 9! rankings are sampled, not listed.
    n = 9
    above = search._above_sets(n)
    indices = random.Random(271828).sample(range(math.factorial(n)), 2_000)
    for r, q in zip(indices, profile_from_indices(n, tuple(indices)).columns):
        place = [q.order.index(x) for x in range(1, n + 1)]
        for a in range(n):
            for b in range(n):
                assert above[a][b] >> r & 1 == (a != b and place[a] < place[b]), (r, a, b)


def test_nine_alternatives_pack_the_row_formula_on_seeded_rankings():
    # The same seeded rankings: each packed row, the transpose of the above
    # sets, is its order's _upper_row.
    n = 9
    packed = search._packed_rows(n)
    indices = random.Random(271828).sample(range(math.factorial(n)), 2_000)
    for r, q in zip(indices, profile_from_indices(n, tuple(indices)).columns):
        assert packed[r].to_bytes(36, "little") == search._upper_row(q.order), r


def test_a_scan_that_never_walks_builds_no_row_table(monkeypatch, workloads):
    # The cut (2,8) cell's one parent is the identity ranking, whose row is
    # built from its order; the 8! rows are never needed.
    def refuse(build):
        def refused(n, *args):
            if n == 8:
                raise AssertionError(f"row table built for n={n}")
            return build(n, *args)
        return refused

    monkeypatch.setattr(search, "_packed_rows", refuse(search._packed_rows))
    report = scan_minimax(2, 8, want=(2, 3), neutral_cut=True)
    reference = {
        (row["j"], row["examined"], row["hits"])
        for row in (dict(zip(workloads.GRID_FIELDS, cells))
                    for cells in json.loads(workloads.GRID_REFERENCE.read_text()))
        if (row["h"], row["n"]) == (2, 8)
    }
    assert {(j, report.examined, report.counts[j]) for j in (2, 3)} == reference
    assert report.counts[3] > 0


def _same_scan(h: int, n: int, **options) -> None:
    """scan_minimax by bitsets equals the per-leaf reference on examined, counts and firsts."""
    fast = scan_minimax(h, n, **options)
    with per_leaf_minimax():
        reference = scan_minimax(h, n, **options)
    assert reference.kramer_mismatches == 0, (h, n, options)
    assert (fast.examined, fast.counts, fast.firsts) == (
        reference.examined, reference.counts, reference.firsts
    ), (h, n, options)


def test_bitset_scans_equal_the_per_leaf_reference(kernel_scans):
    for (h, n), reference in kernel_scans.items():
        fast = scan_minimax(h, n, want=(1, 2, 3))
        assert (fast.examined, fast.counts, fast.firsts) == (
            reference.examined, reference.counts, reference.firsts
        ), (h, n)
        if anonymous_count(h, n) <= 100_000:
            for want in ((1,), (3,), (2, 3), (3, 1)):
                _same_scan(h, n, want=want, stop_early=True)
                _same_scan(h, n, want=want, stop_early=True, neutral_cut=True)
    for h, n in NEUTRAL_CUT_CELLS:
        _same_scan(h, n, want=(1, 2, 3), neutral_cut=True)
        _same_scan(h, n, want=(2, 3), neutral_cut=True, stop_early=True)
    # 9,078,630 leaves, which the reference judges one by one: two workers where there
    # are two cores.
    _same_scan(5, 5, want=(1,), neutral_cut=True, workers=2)


@given(st.integers(2, 6), st.integers(2, search.MAX_H), st.data())
def test_packing_is_injective_and_carry_free(n, h, data):
    vecs, packed = _row_bytes(n), search._packed_rows(n)
    rows = data.draw(st.lists(st.integers(0, len(vecs) - 1), max_size=h))
    u = [sum(vecs[r][k] for r in rows) for k in range(n * (n - 1) // 2)]
    key = sum(packed[r] for r in rows)
    # The sum of the packed rows is the packed sum: no byte carried, and its
    # bytes give u back, so distinct tallies get distinct keys.
    assert key == sum(a << 8 * k for k, a in enumerate(u))
    assert list(key.to_bytes(len(u), "little")) == u


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
