"""Bias predicates, the immunity region tables, and profile audits."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import BiasReport, audit_profile, bias_flags, in_table, minimax_direct

from conftest import GRID_H, GRID_N, expected_immune, profiles


class TestBiasFlags:
    @pytest.mark.parametrize(
        "sel_p, sel_pr, n, expected",
        [
            ({1}, {1}, 3, (True, True, True)),
            ({1}, {1, 2}, 3, (False, True, True)),
            ({1, 2}, {2, 3}, 4, (False, False, True)),
            ({1}, {2}, 3, (False, False, False)),
            ({1, 2, 3}, {1}, 3, (False, False, False)),
            ({1, 2}, {3, 4}, 4, (False, False, False)),
            ({2}, {2}, 2, (True, True, True)),
        ],
    )
    def test_fixed_cases(self, sel_p, sel_pr, n, expected):
        assert bias_flags(sel_p, sel_pr, n) == expected

    def test_rejects_bad_selections(self):
        with pytest.raises(ValueError):
            bias_flags(set(), {1}, 3)
        with pytest.raises(ValueError):
            bias_flags({1}, set(), 3)
        with pytest.raises(ValueError):
            bias_flags({1, 4}, {1}, 3)

    @pytest.mark.parametrize(
        "sel_p, sel_pr, message",
        [
            ((), (4,), "nonempty"),
            ((4,), (), "nonempty"),
            ((0, 1), (1,), "subsets of 1..3"),
            ((1,), (1, 1, 4), "subsets of 1..3"),
            ((-1,), (1,), "subsets of 1..3"),
        ],
    )
    def test_emptiness_is_checked_before_the_range(self, sel_p, sel_pr, message):
        with pytest.raises(ValueError, match=message):
            bias_flags(sel_p, sel_pr, 3)

    @pytest.mark.parametrize(
        "sel_p, sel_pr, n, expected",
        [
            ((1, 1), (1,), 3, (True, True, True)),
            ((2, 2), [3, 2], 3, (False, True, True)),
            ((3, 1), (2, 3, 3), 3, (False, False, True)),
            ((1, 2, 2, 1), (2,), 2, (False, False, False)),
            ((2.0,), (2,), 3, (True, True, True)),
        ],
    )
    def test_selections_count_as_their_sets(self, sel_p, sel_pr, n, expected):
        """A member named twice, or out of order, counts once: (1, 1) is {1};
        and a member equal to an alternative counts as it, as in a set."""
        assert bias_flags(sel_p, sel_pr, n) == bias_flags(set(sel_p), set(sel_pr), n) == expected

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(1, n), min_size=1),
                st.sets(st.integers(1, n), min_size=1),
            )
        )
    )
    def test_chain_of_implications(self, case):
        n, sel_p, sel_pr = case
        t1, t2, t3 = bias_flags(sel_p, sel_pr, n)
        if t1:
            assert t2
        if t2:
            assert t3

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(1, n), min_size=1),
                st.sets(st.integers(1, n), min_size=1),
            )
        )
    )
    def test_flags_from_first_principles(self, case):
        n, sel_p, sel_pr = case
        t1, t2, t3 = bias_flags(sel_p, sel_pr, n)
        assert t1 == (sel_p == sel_pr and len(sel_p) == 1)
        assert t2 == (len(sel_p) == 1 and bool(sel_p & sel_pr))
        assert t3 == (len(sel_p) < n and bool(sel_p & sel_pr))


class TestInTable:
    @pytest.mark.parametrize(
        "j, h, n, expected",
        [
            (1, 7, 4, True),
            (2, 7, 4, False),
            (3, 3, 3, True),
            (3, 4, 3, False),
            (1, 2, 100, True),
            (1, 8, 4, False),
            (2, 2, 50, True),
            (2, 4, 4, True),
            (2, 5, 4, False),
            (3, 12, 2, True),
            (3, 2, 3, False),
        ],
    )
    def test_landmark_cells(self, j, h, n, expected):
        assert in_table(j, h, n) is expected

    def test_matches_literal_statement_on_grid(self):
        for h in GRID_H:
            for n in GRID_N:
                for j in (1, 2, 3):
                    assert in_table(j, h, n) == expected_immune(j, h, n)

    def test_regions_are_nested(self):
        for h in list(GRID_H) + [50, 51]:
            for n in list(GRID_N) + [20]:
                assert not (in_table(3, h, n) and not in_table(2, h, n))
                assert not (in_table(2, h, n) and not in_table(1, h, n))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            in_table(0, 4, 4)
        with pytest.raises(ValueError):
            in_table(4, 4, 4)
        with pytest.raises(ValueError):
            in_table(1, 1, 4)
        with pytest.raises(ValueError):
            in_table(1, 4, 1)


class TestAuditProfile:
    @given(profiles())
    def test_reports_match_rule_evaluations(self, p):
        reports = audit_profile(p)
        assert [r.rule for r in reports] == ["minimax", "borda", "copeland"]
        by_rule = {r.rule: r for r in reports}
        mm = by_rule["minimax"]
        assert mm.selection_p == minimax_direct(p)
        assert mm.selection_pr == minimax_direct(p.reverse())
        assert mm.mu_p is not None and mm.mu_pr is not None
        for r in reports:
            expected = bias_flags(r.selection_p, r.selection_pr, p.n)
            assert (r.type1, r.type2, r.type3) == expected
            assert r.h == p.h and r.n == p.n
        for name in ("borda", "copeland"):
            assert by_rule[name].mu_p is None and by_rule[name].mu_pr is None

    @given(profiles())
    def test_auditing_the_reversal_swaps_selections(self, p):
        fwd = {r.rule: r for r in audit_profile(p)}
        back = {r.rule: r for r in audit_profile(p.reverse())}
        for name in fwd:
            assert fwd[name].selection_p == back[name].selection_pr
            assert fwd[name].selection_pr == back[name].selection_p

    def test_rule_subset_and_unknown_rule(self):
        p_text = "1 2\n2 1"
        from votebias import parse_profile

        p = parse_profile(p_text)
        only = audit_profile(p, rules=("borda",))
        assert [r.rule for r in only] == ["borda"]
        with pytest.raises(ValueError, match="unknown rule"):
            audit_profile(p, rules=("plurality",))

    def test_json_dict_shape(self):
        report = BiasReport(
            rule="minimax",
            h=3,
            n=3,
            selection_p=frozenset({2, 1}),
            selection_pr=frozenset({3}),
            type1=False,
            type2=False,
            type3=True,
            mu_p=2,
            mu_pr=3,
        )
        assert report.to_json_dict() == {
            "rule": "minimax",
            "h": 3,
            "n": 3,
            "selection_p": [1, 2],
            "selection_pr": [3],
            "type1": False,
            "type2": False,
            "type3": True,
            "mu_p": 2,
            "mu_pr": 3,
        }
        bare = BiasReport(
            rule="borda",
            h=3,
            n=3,
            selection_p=frozenset({1}),
            selection_pr=frozenset({1}),
            type1=True,
            type2=True,
            type3=True,
        )
        assert "mu_p" not in bare.to_json_dict()
