"""Faults injected into the ranking tables, the scan's stripes, the bitset
decider, the bias types' definition and the object path's shared results are
caught by the checks that guard them.

Every n! table of the scan kernel and the sampler comes from _above_sets: the
bitset decider reads its sets, and _packed_rows, the rows the walker, the
per-leaf route and the sampled tally sum, is the transpose of its sets
above[x][y] with x < y, in lexicographic or in code order.  The table cases
flip one bit of one set, or put one byte of one row off by one, through
monkeypatch, on table caches cleared before and after; the stripe cases break
the merge of stripes or the walk of one; the decider cases misread a tie in
an argmin plan or key the parent memo by too little; the flag case drops a
clause from _mask_flags, which every route but the bitset decider reads its
flags from; the sharing cases key a shared report or component by too
little.  Each shows that the check meant to guard what the fault reaches
fails.
"""

from __future__ import annotations

import builtins
import itertools

import pytest

import test_bias
from votebias import (
    MajorityGraph,
    analyze,
    audit_profile,
    bias,
    graphs,
    sample_profile,
    scan_minimax,
    search,
)
from votebias.rules import upper_pairs, upper_tally

from conftest import brute_counts, fresh_reports, naive_analysis, per_leaf_minimax


@pytest.fixture()
def fresh_tables():
    """Clear the table caches, so that a faulted set is read, and clear them
    again afterwards, so that no faulted table outlives the case."""
    caches = (search._above_sets, search._packed_rows)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _flip(monkeypatch, n: int, a: int, b: int, r: int) -> None:
    """Make _above_sets(n)[a][b] claim the opposite for ranking r; other n stay true."""
    true = search._above_sets

    def faulted(m: int):
        sets = true(m)
        if m != n:
            return sets
        rows = [list(row) for row in sets]
        rows[a][b] ^= 1 << r
        return tuple(map(tuple, rows))

    monkeypatch.setattr(search, "_above_sets", faulted)


@pytest.mark.parametrize("n, x, y, r", [(2, 0, 1, 0), (3, 0, 2, 5), (4, 1, 3, 17), (4, 0, 1, 23)])
def test_a_flip_in_a_set_the_rows_read_fails_the_row_formulas(fresh_tables, monkeypatch, n, x, y, r):
    size = n * (n - 1) // 2
    _flip(monkeypatch, n, x, y, r)
    rows = tuple(row.to_bytes(size, "little") for row in search._packed_rows(n))
    formulas = tuple(map(search._upper_row, itertools.permutations(range(n))))
    assert rows != formulas
    # Only ranking r's byte of pair (x, y) is wrong.
    differ = [(q, k) for q, (got, want) in enumerate(zip(rows, formulas))
              for k in range(size) if got[k] != want[k]]
    assert differ == [(r, upper_pairs(n).index((x, y)))]


@pytest.mark.parametrize("x, y, r", [(0, 1, 23), (1, 3, 6), (2, 3, 12)])
def test_a_flip_in_a_set_only_the_bitsets_read_fails_the_per_leaf_reference(
    fresh_tables, monkeypatch, x, y, r
):
    # above[y][x] with x < y is never transposed into a row, so the per-leaf
    # reference reads true rows while the bitset decider reads the flip.
    h, n = 3, 4
    with monkeypatch.context() as patch:
        _flip(patch, n, y, x, r)
        fast = scan_minimax(h, n, want=(1, 2, 3))
        with per_leaf_minimax():
            reference = scan_minimax(h, n, want=(1, 2, 3))
        assert (fast.examined, fast.counts, fast.firsts) != (
            reference.examined, reference.counts, reference.firsts
        )
    search._above_sets.cache_clear()
    search._packed_rows.cache_clear()
    healed = scan_minimax(h, n, want=(1, 2, 3))
    assert (healed.examined, healed.counts, healed.firsts) == (
        reference.examined, reference.counts, reference.firsts
    )


def test_a_flip_in_a_code_order_set_fails_the_sampled_tally_check(fresh_tables, monkeypatch):
    # The check of test_sample_tally_and_verdict_match_the_object_path: the
    # sampled tally against the tally of the decoded sample_profile.
    h, n, seed, x, y = 5, 5, 271828, 1, 3
    draw = search._code_drawer(h, n, seed)
    code = draw(0)[0]
    true = search._above_sets

    def faulted(m: int, **order):
        sets = true(m, **order)
        if m != n or not order:
            return sets
        rows = [list(row) for row in sets]
        rows[x][y] ^= 1 << code
        return tuple(map(tuple, rows))

    monkeypatch.setattr(search, "_above_sets", faulted)
    tally = search._code_tallier(n)
    for index in range(200):
        codes = draw(index)
        same = tally(codes) == upper_tally(sample_profile(h, n, seed, index))
        assert same == (code not in codes), index
    # The lexicographic tables stay true.
    size = n * (n - 1) // 2
    rows = tuple(row.to_bytes(size, "little") for row in search._packed_rows(n))
    assert rows == tuple(map(search._upper_row, itertools.permutations(range(n))))


def _byte_off(monkeypatch, n: int, r: int, k: int) -> None:
    """Put byte k (pair k's count) of _packed_rows(n)[r] one off; the code
    order and other n stay true."""
    true = search._packed_rows

    def faulted(m: int, code_order: bool = False):
        rows = true(m, code_order)
        if m != n or code_order:
            return rows
        rows = list(rows)
        rows[r] ^= 1 << 8 * k
        return tuple(rows)

    monkeypatch.setattr(search, "_packed_rows", faulted)


@pytest.mark.parametrize("n, r, k", [(3, 0, 1), (3, 4, 0), (4, 1, 0)])
def test_a_packed_row_with_one_byte_off_fails_the_row_formulas(fresh_tables, monkeypatch, n, r, k):
    # The check of test_table_builder_matches_the_row_formulas, which catches
    # every such fault.  The minimax scan against the plain audit, on that
    # test's cells, misses 1 of the 18 of n = 3 and 27 of the 144 of n = 4;
    # (3, 4, 0) and (4, 1, 0) are two of them.
    _byte_off(monkeypatch, n, r, k)
    size = n * (n - 1) // 2
    rows = tuple(row.to_bytes(size, "little") for row in search._packed_rows(n))
    formulas = tuple(map(search._upper_row, itertools.permutations(range(n))))
    differ = [(q, j) for q, (got, want) in enumerate(zip(rows, formulas))
              for j in range(size) if got[j] != want[j]]
    assert differ == [(r, k)]


def test_a_packed_row_with_one_byte_off_fails_the_plain_audit(fresh_tables, monkeypatch):
    # The check of test_counts_and_firsts_match_plain_audit at (3, 3).
    _byte_off(monkeypatch, 3, 0, 1)
    report = scan_minimax(3, 3, want=(1, 2, 3))
    assert (report.counts, report.firsts) != brute_counts(3, 3)[:2]


def _bitsets_and_reference(h: int, n: int) -> tuple[tuple, tuple]:
    """(examined, counts, firsts) of the bitset scan of (h, n) and of the
    per-leaf reference: the comparison of test_bitset_scans_equal_the_per_leaf_reference."""
    fast = scan_minimax(h, n, want=(1, 2, 3))
    with per_leaf_minimax():
        reference = scan_minimax(h, n, want=(1, 2, 3))
    return tuple((r.examined, r.counts, r.firsts) for r in (fast, reference))


def test_an_argmin_plan_that_reads_a_tie_as_a_rise_fails_the_per_leaf_reference(monkeypatch):
    # Each plan the (3, 3) decider can meet, w in [0, 2]^3, is laid down
    # before the scan with one fault: of the alternatives tied at m = min w,
    # only the first is listed there, and the others with those at m + 1, so
    # a pair at d = 0 gets the condition of d = -1.  A parent of (2, n) is one
    # ranking: only its top has no defeat and only its bottom no victory, so
    # no plan there ties at m, and those cells decide the same under this
    # fault; (3, 4) and (4, 4) do not.
    true = search._minimax_decider

    def faulted(h, n, want):
        decide = true(h, n, want)
        for w in itertools.product(range(h), repeat=n):
            m = min(w)
            tied = [x for x in range(n) if w[x] == m]
            near = tied[1:] + [x for x in range(n) if w[x] == m + 1]
            decide.plans[w] = tied[:1], near, [(tied[0], [])]
        return decide

    monkeypatch.setattr(search, "_minimax_decider", faulted)
    fast, reference = _bitsets_and_reference(3, 3)
    assert fast != reference
    assert brute_counts(3, 3)[:2] == reference[1:]


def test_a_parent_memo_keyed_without_the_last_voter_fails_the_per_leaf_reference(monkeypatch):
    # Keyed by its head alone, each parent is handed the sets of its head's
    # first decided parent.  At h = 2 every parent's head is empty, so one
    # parent's sets serve them all.  (3, 3) has no hit to lose.
    true = search._minimax_decider

    def faulted(h, n, want):
        decide, rows, first = true(h, n, want), search._packed_rows(n), {}

        def keyed_by_the_head(key, lo, until):
            head = key - rows[lo]
            if head not in first:
                first[head] = decide(key, lo, until)
            return first[head]

        return keyed_by_the_head

    monkeypatch.setattr(search, "_minimax_decider", faulted)
    for h, n in [(2, 3), (3, 4)]:
        fast, reference = _bitsets_and_reference(h, n)
        assert fast[0] == reference[0] and fast != reference, (h, n)


def test_a_type_3_flag_without_its_proper_clause_fails_the_first_principles_and_the_bitsets(
    monkeypatch,
):
    # The one definition of the types, with type 3 set on a selection of
    # all n.  bias_flags reads it, and so does each leaf verdict, but the
    # bitset decider works its type 3 out by its own set algebra: (3, 3) is
    # type-3 immune, and the per-leaf reference now finds two hits there.
    true = bias._mask_flags

    def faulted(p, pr, n):
        t1, t2, _ = true(p, pr, n)
        return t1, t2, p & pr != 0

    monkeypatch.setattr(bias, "_mask_flags", faulted)
    monkeypatch.setattr(search, "_mask_flags", faulted)
    # The test's body, run on every case of n = 2 and 3 rather than on drawn ones.
    check = test_bias.TestBiasFlags.test_flags_from_first_principles.hypothesis.inner_test
    failing = []
    for n in (2, 3):
        alternatives = range(1, n + 1)
        subsets = [set(c) for k in alternatives for c in itertools.combinations(alternatives, k)]
        for case in itertools.product([n], subsets, subsets):
            try:
                check(test_bias.TestBiasFlags(), case)
            except AssertionError:
                failing.append(case)
    # Exactly the cases whose selection on p has all n, and so meets any other.
    assert len(failing) == 3 + 7 and all(len(p) == n for n, p, _ in failing)
    fast, reference = _bitsets_and_reference(3, 3)
    assert (fast[1][3], reference[1][3]) == (0, 2)


@pytest.fixture()
def fresh_reports_cache():
    """Clear audit_profile's cache before and after, so that every report is
    asked of _report and no faulted report outlives the case."""
    bias._reports.cache_clear()
    yield
    bias._reports.cache_clear()


def test_a_report_cache_keyed_without_mu_pr_fails_the_report_cross_check(
    fresh_reports_cache, monkeypatch
):
    # The check of test_tally_keyed_caches_equal_their_uncached_functions.  No
    # sweep cell has two minimax reports that differ in mu_pr alone; its 2,000
    # samples at (7, 5) do, and 15 of them meet such a pair's second report.
    build = bias._report.__wrapped__
    first = {}

    def faulted(rule, h, n, p, pr, mu_p, mu_pr):
        key = rule, h, n, p, pr, mu_p
        if key not in first:
            first[key] = build(rule, h, n, p, pr, mu_p, mu_pr)
        return first[key]

    monkeypatch.setattr(bias, "_report", faulted)
    names = ("minimax", "borda", "copeland")
    wrong = []
    for index in range(2000):
        p = sample_profile(7, 5, 271828, index)
        got, want = audit_profile(p, names), fresh_reports(p, names)
        if got != want:
            wrong.append([(g.rule, g.mu_pr, w.mu_pr) for g, w in zip(got, want) if g != w])
    assert len(wrong) == 15
    # Only minimax has thresholds, and only mu_pr is wrong.
    assert all(len(diff) == 1 and diff[0][0] == "minimax" and diff[0][1] != diff[0][2]
               for diff in wrong)


def test_a_component_cache_keyed_by_the_mask_alone_fails_the_analysis_oracle(monkeypatch):
    # The check of test_bitmask_analysis_matches_oracle_on_every_arc_set at
    # n = 2: the component {1, 2} is first met acyclic, under the arc (2, 1),
    # and the 2-cycle then reads acyclic too.
    build = graphs._component.__wrapped__
    first = {}

    def faulted(mask, acyclic):
        if mask not in first:
            first[mask] = build(mask, acyclic)
        return first[mask]

    monkeypatch.setattr(graphs, "_component", faulted)
    graphs._analysis.cache_clear()
    try:
        wrong = []
        for arcs in ([], [(2, 1)], [(1, 2)], [(1, 2), (2, 1)]):
            arcs = frozenset(arcs)
            if analyze(MajorityGraph(2, arcs)).to_json_dict() != naive_analysis(2, arcs):
                wrong.append(sorted(arcs))
    finally:
        graphs._analysis.cache_clear()
    assert wrong == [[(1, 2), (2, 1)]]


def test_a_merge_that_keeps_the_last_first_hit_fails_the_serial_scan(monkeypatch):
    # The check of test_parallel_equals_sequential, with the stripes merged
    # in-process.  Stripe 0 of these cells holds the earliest first hit of a
    # type that stripe 1 also hits.
    def keep_last(want, parts):
        merged = search.KernelReport()
        for part in parts:
            merged.examined += part.examined
            merged.kramer_mismatches += part.kramer_mismatches
            for j in want:
                merged.counts[j] += part.counts[j]
                merged.firsts[j] = part.firsts[j] or merged.firsts[j]
        return merged

    monkeypatch.setattr(search, "_merge", keep_last)
    for h, n, cut in [(2, 4, False), (4, 5, True)]:
        serial = search._scan(h, n, neutral_cut=cut)
        merged = search._merge((1, 2, 3), [search._scan(h, n, neutral_cut=cut, stripe=(w, 2))
                                           for w in range(2)])
        assert (merged.examined, merged.counts) == (serial.examined, serial.counts)
        assert merged.firsts != serial.firsts, (h, n, cut)


def test_a_stripe_that_skips_a_last_voter_fails_the_visit_count(monkeypatch):
    # A stripe walks its last parent voters v by one three-argument range; the
    # fault drops the last v of the first head, (0,), whose parent has one leaf.
    skipped = []

    def skipping_range(*args):
        voters = builtins.range(*args)
        if len(args) == 3 and voters and not skipped:
            skipped.append(voters[-1])
            return voters[:-1]
        return voters

    monkeypatch.setattr(search, "range", skipping_range, raising=False)
    with pytest.raises(RuntimeError, match="scan visited 2599 of 2600 representatives"):
        scan_minimax(3, 4, workers=1)
    assert skipped == [23]
