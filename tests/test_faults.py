"""Faults injected into the ranking tables are caught by the checks that guard them.

Every n! table of the scan kernel comes from _above_sets: the bitset decider
reads its sets, and _packed_rows, the rows the walker and the per-leaf route
sum, is the transpose of its sets above[x][y] with x < y.  Each case flips one
bit of one set through monkeypatch, on table caches cleared before and after,
and shows that the check meant to guard what reads that set fails.
"""

from __future__ import annotations

import itertools

import pytest

from votebias import scan_minimax, search
from votebias.rules import upper_pairs

from conftest import per_leaf_minimax


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
