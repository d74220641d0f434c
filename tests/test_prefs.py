"""Rankings, profiles, tallies, parsing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import Profile, ProfileParseError, Ranking, TallyMatrix, parse_profile, serialize_profile

from conftest import count, naive_tally, profiles, rank

DIGITS = set("0123456789")


class TestRanking:
    def test_order_and_positions(self):
        q = Ranking((3, 1, 2))
        assert q.n == 3
        assert rank(q, 3) == 1
        assert rank(q, 1) == 2
        assert rank(q, 2) == 3

    def test_rejects_non_permutations(self):
        for bad in [(1, 1), (0, 1), (1, 3), (2,), ()]:
            with pytest.raises(ValueError):
                Ranking(bad)

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
    def test_validates_antisymmetry(self):
        with pytest.raises(ValueError):
            TallyMatrix(2, 3, ((0, 2), (2, 0)))
        with pytest.raises(ValueError):
            TallyMatrix(2, 3, ((1, 2), (1, 0)))

    def test_count_and_reverse(self):
        t = TallyMatrix(2, 3, ((0, 2), (1, 0)))
        assert count(t, 1, 2) == 2
        assert count(t.reverse(), 1, 2) == 1


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

    @given(profiles())
    def test_reversal_tally_is_the_flipped_tally(self, p):
        assert p.reverse().tally() == p.tally().reverse()

    @given(profiles())
    def test_tally_rows_sum_to_h(self, p):
        t = p.tally()
        for x in range(1, p.n + 1):
            for y in range(x + 1, p.n + 1):
                assert count(t, x, y) + count(t, y, x) == p.h


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
