"""Rankings, profiles, tallies, parsing."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import Profile, ProfileParseError, Ranking, parse_profile, serialize_profile

from conftest import count, naive_tally, profiles, rank, sweep_and_sampled_profiles

DIGITS = set("0123456789")


class TestRanking:
    def test_order_and_positions(self):
        q = Ranking((3, 1, 2))
        assert q.n == 3
        assert rank(q, 3) == 1
        assert rank(q, 1) == 2
        assert rank(q, 2) == 3

    def test_rejects_non_permutations(self):
        # Orders that compare equal to a permutation but are no tuple of ints
        # would serve the wrong entry of an order-keyed cache, or none at all.
        for bad in [(1, 1), (0, 1), (1, 3), (2,), (), [2, 1], (1.0, 2.0), (True, 2), (2, 1.0)]:
            with pytest.raises(ValueError):
                Ranking(bad)

    def test_reverse_is_the_shared_reversed_ranking(self):
        for n in range(2, 6):
            for order in itertools.permutations(range(1, n + 1)):
                q = Ranking(order)
                r = q.reverse()
                assert r == Ranking(order[::-1])
                assert q.reverse() is r
                assert r.reverse() == q

    def test_reverse_flips_positions(self):
        q = Ranking((4, 2, 1, 3))
        r = q.reverse()
        assert r.order == (3, 1, 2, 4)
        assert all(rank(q, x) + rank(r, x) == 5 for x in (1, 2, 3, 4))

    @given(st.permutations(list(range(1, 6))))
    def test_reverse_is_an_involution(self, order):
        q = Ranking(tuple(order))
        assert q.reverse().reverse() == q

    @given(st.permutations(list(range(1, 6))))
    def test_beats_matches_positions(self, order):
        q = Ranking(tuple(order))
        b = q.beats()
        n = q.n
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                expected = 1 if x != y and rank(q, x) < rank(q, y) else 0
                assert b[(x - 1) * n + (y - 1)] == expected


class TestTallyMatrix:
    """The tally matrix is the rows tuple ``Profile.tally()`` returns."""

    @given(profiles(max_h=12, max_n=8))
    def test_validates_antisymmetry(self, p):
        # What validated Rankings guarantee, so Profile.tally checks none of it.
        for t in (p.tally(), p.reverse().tally()):
            assert len(t) == p.n and all(len(row) == p.n for row in t)
            for x in range(1, p.n + 1):
                assert count(t, x, x) == 0
                for y in range(x + 1, p.n + 1):
                    assert count(t, x, y) + count(t, y, x) == p.h


class TestProfile:
    def test_rejects_mixed_sizes_and_single_voter(self):
        with pytest.raises(ValueError):
            Profile((Ranking((1, 2)), Ranking((1, 2, 3))))
        with pytest.raises(ValueError):
            Profile((Ranking((1, 2)),))

    @given(profiles())
    def test_tally_matches_position_oracle(self, p):
        t = p.tally()
        for x in range(1, p.n + 1):
            for y in range(1, p.n + 1):
                if x != y:
                    assert count(t, x, y) == naive_tally(p, x, y)

    @given(profiles(max_h=12, max_n=8))
    def test_reversal_tally_is_the_flipped_tally(self, p):
        assert p.reverse().tally() == tuple(zip(*p.tally()))

    @given(profiles(max_h=12, max_n=8))
    def test_equal_tallies_are_one_object(self, p):
        assert Profile(p.columns[::-1]).tally() is p.tally()
        assert p.reverse().reverse().tally() is p.tally()

    @given(profiles())
    def test_tally_rows_sum_to_h(self, p):
        t = p.tally()
        for x in range(1, p.n + 1):
            for y in range(x + 1, p.n + 1):
                assert count(t, x, y) + count(t, y, x) == p.h


def column_count(p: Profile) -> tuple[tuple[int, ...], ...]:
    """The tally as each cell's count over the columns' beats() vectors."""
    flat = [sum(cell) for cell in zip(*(q.beats() for q in p.columns))]
    return tuple(tuple(flat[x * p.n:(x + 1) * p.n]) for x in range(p.n))


class TestPackedTally:
    """Profile.tally() sums base-256 rows below 256 voters, and bytes above."""

    def test_equals_the_column_count_on_the_sweep_and_samples(self):
        for p in sweep_and_sampled_profiles():
            for q in (p, p.reverse()):
                assert q.tally() == column_count(q), q

    @pytest.mark.parametrize("h", [255, 256, 300])
    def test_the_carry_boundary(self, h):
        # One ranking for every voter fills each cell above the diagonal to h,
        # so a byte that carried would spill into the next cell.
        rng = random.Random(h)
        for n in (2, 3, 5):
            same = Profile((Ranking(tuple(range(1, n + 1))),) * h)
            mixed = Profile(tuple(Ranking(tuple(rng.sample(range(1, n + 1), n))) for _ in range(h)))
            for p in (same, mixed, mixed.reverse()):
                assert p.tally() == column_count(p)
            assert same.tally()[0][n - 1] == h


class TestParsing:
    def test_roundtrip_fixed(self):
        text = "1 1 2\n2 3 3\n3 2 1"
        p = parse_profile(text)
        assert p.h == 3 and p.n == 3
        assert p.columns[1].order == (1, 3, 2)
        assert serialize_profile(p) == text

    @given(profiles())
    def test_roundtrip_random(self, p):
        assert parse_profile(serialize_profile(p)) == p

    @pytest.mark.parametrize("token", ["+1", "0_2", "\u0661", "-1", "1.0", "\u00b2"])
    def test_rejects_tokens_int_would_take(self, token):
        with pytest.raises(ProfileParseError, match="row 2, column 1"):
            parse_profile(f"1 2\n{token} 1")

    @given(st.text(min_size=1).filter(lambda t: t.split() == [t] and not set(t) <= DIGITS))
    def test_rejects_every_non_decimal_token(self, token):
        with pytest.raises(ProfileParseError, match="row 1, column 2"):
            parse_profile(f"1 {token}\n2 1")

    def test_error_names_row_and_column(self):
        with pytest.raises(ProfileParseError, match="row 2, column 2"):
            parse_profile("1 2\n2 x")

    def test_ragged_rows(self):
        with pytest.raises(ProfileParseError, match="row 2 has 1 entries"):
            parse_profile("1 2\n2")

    def test_non_permutation_column(self):
        with pytest.raises(ProfileParseError, match="column 2"):
            parse_profile("1 1\n2 1")

    def test_out_of_range_alternative(self):
        with pytest.raises(ProfileParseError, match="column 1: alternative 3"):
            parse_profile("3 1\n1 2")

    def test_too_small(self):
        with pytest.raises(ProfileParseError):
            parse_profile("1 1")
        with pytest.raises(ProfileParseError):
            parse_profile("1\n2")

    def test_blank_lines_ignored(self):
        p = parse_profile("\n1 2\n\n2 1\n\n")
        assert p.h == 2 and p.n == 2
