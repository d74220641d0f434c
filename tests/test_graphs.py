"""Thresholds, majority graphs, structural analysis, cycle detection."""

from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given

from votebias import (
    MajorityGraph,
    acyclicity_threshold,
    analyze,
    dominant_set,
    enumerate_anonymous,
    export_dot,
    greenberg_threshold,
    has_l_cycle,
    majority_graph,
    minimal_threshold,
    parse_profile,
    profile_threshold,
)

from votebias import fixtures, graphs, rules

from conftest import GRID_H, GRID_N, SWEEP_CELLS, count, naive_analysis, naive_dominant, profiles

CONDORCET_TRIPLE = parse_profile("1 2 3\n2 3 1\n3 1 2")


class TestThresholds:
    def test_minimal_values(self):
        assert [minimal_threshold(h) for h in range(2, 10)] == [2, 2, 3, 3, 4, 4, 5, 5]

    def test_minimal_is_least_strict_majority(self):
        for h in range(2, 60):
            mu = minimal_threshold(h)
            assert 2 * mu > h >= 2 * (mu - 1)

    def test_greenberg_values(self):
        assert greenberg_threshold(2, 2) == 2
        assert greenberg_threshold(6, 3) == 5
        assert greenberg_threshold(12, 4) == 10
        assert greenberg_threshold(5, 5) == 5

    def test_acyclicity_values(self):
        assert acyclicity_threshold(4, 4) == 3
        assert acyclicity_threshold(12, 4) == 9
        assert acyclicity_threshold(7, 5) == 6

    def test_ordering_across_grid(self):
        for h in GRID_H:
            for n in GRID_N:
                mu0 = minimal_threshold(h)
                mua = acyclicity_threshold(h, n)
                mug = greenberg_threshold(h, n)
                assert mu0 <= mua <= mug <= h
                if n <= 3:
                    assert mua == mu0

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            minimal_threshold(1)
        with pytest.raises(ValueError):
            greenberg_threshold(2, 1)
        with pytest.raises(ValueError):
            acyclicity_threshold(1, 3)


class TestMajorityGraph:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            MajorityGraph(2, frozenset({(1, 1)}))
        with pytest.raises(ValueError, match="outside"):
            MajorityGraph(2, frozenset({(1, 3)}))

    def test_graphs_read_off_a_tally_equal_checked_ones(self):
        # _graph builds its graphs unchecked; each must equal the checked graph
        # on the arcs read naively off the tally, on every tally of the sweep
        # cells at every admissible mu.
        graphs._graph.cache_clear()
        for h, n in SWEEP_CELLS:
            tallies: set = set()
            enumerate_anonymous(h, n, lambda p: tallies.add(p.tally()))
            for t in tallies:
                for mu in range(minimal_threshold(h), h + 1):
                    arcs = {(x, y) for x in range(1, n + 1) for y in range(1, n + 1)
                            if x != y and count(t, x, y) >= mu}
                    checked = MajorityGraph(n, arcs)
                    trusted = graphs._graph(t, mu)
                    assert trusted == checked and hash(trusted) == hash(checked), (t, mu)
                    assert type(trusted.arcs) is frozenset and trusted.n == n
            # The check stays on every graph built from outside input.
            with pytest.raises(ValueError, match="outside"):
                MajorityGraph(n, arcs | {(1, n + 1)})
            with pytest.raises(ValueError, match="self-loop"):
                MajorityGraph(n, arcs | {(n, n)})

    def test_threshold_validation(self):
        p = CONDORCET_TRIPLE
        for mu in (0, 1, 4, 2.5):
            with pytest.raises(ValueError):
                majority_graph(p, mu)

    @given(profiles())
    def test_arcs_match_tally(self, p):
        t = p.tally()
        for mu in range(minimal_threshold(p.h), p.h + 1):
            g = majority_graph(p, mu)
            for x in range(1, p.n + 1):
                for y in range(1, p.n + 1):
                    if x != y:
                        assert ((x, y) in g.arcs) == (count(t, x, y) >= mu)

    @given(profiles())
    def test_profile_graphs_have_no_2_cycles(self, p):
        g = majority_graph(p, minimal_threshold(p.h))
        assert not any((y, x) in g.arcs for (x, y) in g.arcs)

    @given(profiles())
    def test_dominant_set_is_the_maximal_set(self, p):
        for mu in range(minimal_threshold(p.h), p.h + 1):
            dom = dominant_set(p, mu)
            assert dom == naive_dominant(p, mu)
            assert dom == analyze(majority_graph(p, mu)).maximal


class TestProfileThreshold:
    @given(profiles())
    def test_least_mu_with_nonempty_dominant_set(self, p):
        mu = profile_threshold(p)
        assert dominant_set(p, mu)
        for smaller in range(minimal_threshold(p.h), mu):
            assert not dominant_set(p, smaller)
        assert mu <= greenberg_threshold(p.h, p.n)

    def test_condorcet_triple_needs_unanimity(self):
        assert profile_threshold(CONDORCET_TRIPLE) == 3


class TestAnalyze:
    def test_synthetic_2_cycle(self):
        g = MajorityGraph(2, frozenset({(1, 2), (2, 1)}))
        a = analyze(g)
        assert a.maximal == frozenset()
        assert a.minimal == frozenset()
        assert a.maxima == frozenset({1, 2})
        assert a.minima == frozenset({1, 2})
        assert a.isolated == frozenset()
        assert not a.acyclic
        assert len(a.components) == 1

    def test_empty_graph_is_all_isolated(self):
        a = analyze(MajorityGraph(3, frozenset()))
        assert a.maximal == a.minimal == a.isolated == frozenset({1, 2, 3})
        assert a.maxima == a.minima == frozenset()
        assert a.acyclic
        assert len(a.components) == 3

    def test_linear_order(self):
        g = MajorityGraph(3, frozenset({(1, 2), (1, 3), (2, 3)}))
        a = analyze(g)
        assert a.maximal == a.maxima == frozenset({1})
        assert a.minimal == a.minima == frozenset({3})
        assert a.isolated == frozenset()
        assert a.acyclic
        assert a.components == (a.components[0],)
        assert a.components[0].vertices == (1, 2, 3)

    def test_components_split(self):
        g = MajorityGraph(5, frozenset({(1, 2), (3, 4), (4, 3)}))
        a = analyze(g)
        assert [c.vertices for c in a.components] == [(1, 2), (3, 4), (5,)]
        assert [c.acyclic for c in a.components] == [True, False, True]
        assert not a.acyclic
        assert a.isolated == frozenset({5})

    @given(profiles())
    def test_duality_under_reversal(self, p):
        for mu in range(minimal_threshold(p.h), p.h + 1):
            a = analyze(majority_graph(p, mu))
            b = analyze(majority_graph(p.reverse(), mu))
            assert a.maximal == b.minimal
            assert a.minimal == b.maximal
            assert a.maxima == b.minima
            assert a.isolated == b.isolated
            assert a.acyclic == b.acyclic

    def test_json_shape(self):
        d = analyze(MajorityGraph(2, frozenset({(1, 2)}))).to_json_dict()
        assert d == {
            "maximal": [1],
            "minimal": [2],
            "isolated": [],
            "maxima": [1],
            "minima": [2],
            "components": [{"vertices": [1, 2], "acyclic": True}],
            "acyclic": True,
        }


class TestCycles:
    def test_condorcet_triple_has_a_3_cycle(self):
        g = majority_graph(CONDORCET_TRIPLE, 2)
        assert has_l_cycle(g, 3)
        assert not has_l_cycle(g, 2)

    def test_synthetic_lengths(self):
        g = MajorityGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)}))
        assert has_l_cycle(g, 4)
        assert has_l_cycle(g, 3)
        assert not has_l_cycle(g, 2)

    def test_length_domain(self):
        g = MajorityGraph(3, frozenset())
        with pytest.raises(ValueError):
            has_l_cycle(g, 1)
        with pytest.raises(ValueError):
            has_l_cycle(g, 4)

    @given(profiles(max_h=5, max_n=4))
    def test_any_cycle_implies_analysis_cyclic(self, p):
        g = majority_graph(p, minimal_threshold(p.h))
        found = any(has_l_cycle(g, l) for l in range(2, p.n + 1))
        assert found == (not analyze(g).acyclic)


def naive_has_l_cycle(n: int, arcs: frozenset, length: int) -> bool:
    return any(
        all((seq[i], seq[(i + 1) % length]) in arcs for i in range(length))
        for seq in itertools.permutations(range(1, n + 1), length)
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bitmask_analysis_matches_oracle_on_every_arc_set(n):
    # Every subset of the n(n-1) possible arcs: 4, 64 and 4,096 graphs,
    # 2-cycles included.
    possible = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
    # Each graph is analyzed twice, the second time through a fresh equal graph
    # built from a set, so the cached analysis meets the oracle too.  The
    # component cache starts empty, so each component is built in this test.
    graphs._analysis.cache_clear()
    graphs._component.cache_clear()
    for chosen in itertools.product((False, True), repeat=len(possible)):
        arcs = frozenset(itertools.compress(possible, chosen))
        g = MajorityGraph(n, arcs)
        first = analyze(g)
        again = analyze(MajorityGraph(n, set(arcs)))
        assert again is first
        assert first.to_json_dict() == naive_analysis(n, arcs), sorted(arcs)
        for length in range(2, n + 1):
            assert has_l_cycle(g, length) == naive_has_l_cycle(n, arcs, length), (
                sorted(arcs), length
            )


def test_graph_route_never_calls_the_tally_core(monkeypatch):
    """Criteria 4 and 7 lean on the threshold route being independent of rules' core."""

    def graph_route():
        out = []
        for fixture_id in sorted(fixtures._FIXED):
            p = fixtures.load(fixture_id).profile
            for mu in range(minimal_threshold(p.h), p.h + 1):
                g = majority_graph(p, mu)
                out.append((g.arcs, dominant_set(p, mu), analyze(g).to_json_dict()))
            out.append((profile_threshold(p), rules.minimax_threshold(p)))
        return out

    want = graph_route()

    def core(*args, **kwargs):
        raise AssertionError("the graph route reached the rules tally core")

    for name in ("minimax_defeats", "upper_tally", "tally_core"):
        original = getattr(rules, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "votebias" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, core)
    for rule in rules.TALLY_RULES:
        monkeypatch.setitem(rules.TALLY_RULES, rule, core)
    with pytest.raises(AssertionError, match="tally core"):
        rules.minimax_direct(fixtures.load("intro-6-4").profile)
    # So the patched run works the graph route out again instead of replaying it.
    for cache in (graphs._analysis, graphs._maxima, graphs._graph, rules._core):
        cache.cache_clear()
    assert graph_route() == want


class TestDot:
    def test_golden_rendering(self):
        g = MajorityGraph(2, frozenset({(1, 2)}))
        assert export_dot(g) == 'digraph majority {\n  "1";\n  "2";\n  "1" -> "2";\n}'

    def test_sorted_arcs(self):
        g = MajorityGraph(3, frozenset({(2, 1), (1, 3)}))
        assert export_dot(g).splitlines() == [
            "digraph majority {",
            '  "1";',
            '  "2";',
            '  "3";',
            '  "1" -> "3";',
            '  "2" -> "1";',
            "}",
        ]
