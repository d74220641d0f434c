"""Cross-cutting structural checks tying tallies, graphs and selections together.

property_violations re-derives every advertised invariant on one profile and
returns human-readable violation strings.  Sweeps assert the list is empty;
an empty return is therefore a per-profile certificate that the graph
machinery, the two minimax routes and the reversal duality all agree.
"""

from __future__ import annotations

from .bias import in_table
from .graphs import (
    acyclicity_threshold,
    analyze,
    dominant_set,
    greenberg_threshold,
    has_l_cycle,
    majority_graph,
    minimal_threshold,
    profile_threshold,
)
from .prefs import Profile
from .rules import condorcet_loser, condorcet_winner, minimax_defeats, minimax_direct, upper_tally


def property_violations(profile: Profile) -> list[str]:
    """All invariant violations on this profile; empty means fully consistent."""
    out: list[str] = []
    n, h = profile.n, profile.h
    reversed_profile = profile.reverse()
    mu0 = minimal_threshold(h)
    mu_green = greenberg_threshold(h, n)
    mu_acyclic = acyclicity_threshold(h, n)

    prev_arcs: frozenset | None = None
    prev_dominant: set | None = None
    at: dict[int, tuple] = {}  # mu -> (dominant set, analysis), reread at mu_p
    for mu in range(mu0, h + 1):
        graph = majority_graph(profile, mu)
        graph_rev = majority_graph(reversed_profile, mu)
        arcs = graph.arcs
        transposed = frozenset((y, x) for x, y in arcs)
        if graph_rev.arcs != transposed:
            out.append(f"mu={mu}: reversal graph is not the transpose")
        if arcs & transposed:
            out.append(f"mu={mu}: a pair beats each other both ways")

        info = analyze(graph)
        info_rev = analyze(graph_rev)
        dom = dominant_set(profile, mu)
        dom_rev = dominant_set(reversed_profile, mu)
        if dom != info.maximal:
            out.append(f"mu={mu}: dominant set differs from maximal vertices")
        if dom != info_rev.minimal:
            out.append(f"mu={mu}: dominant set differs from reversal minimal vertices")
        isolated = info.isolated
        if dom & dom_rev != isolated or isolated != info_rev.isolated:
            out.append(f"mu={mu}: dominant intersection differs from isolated vertices")
        if len(info.maxima) > 1 or len(info_rev.maxima) > 1:
            out.append(f"mu={mu}: more than one greatest vertex in a profile graph")
        if len(info.maxima) == 1 and dom != info.maxima:
            out.append(f"mu={mu}: greatest vertex exists but dominant set differs")

        per_component = sum(len(dom.intersection(c.vertices)) for c in info.components)
        acyclic_components = sum(1 for c in info.components if c.acyclic)
        if per_component != len(dom):
            out.append(f"mu={mu}: per-component maximal counts do not add up")
        if acyclic_components > per_component:
            out.append(f"mu={mu}: fewer dominant vertices than acyclic components")
        if len(isolated) > acyclic_components:
            out.append(f"mu={mu}: more isolated vertices than acyclic components")

        if mu >= mu_green and not info.acyclic:
            out.append(f"mu={mu}: cycle above the guaranteed-acyclic threshold")
        if info.acyclic and len(dom) == 1 and len(info.components) != 1:
            out.append(f"mu={mu}: acyclic with a single dominant vertex but disconnected")
        if h % 2 == 1 and mu == mu0:
            if len(arcs) != n * (n - 1) // 2:
                out.append("odd h: minimal-threshold graph is not a tournament")
            if isolated:
                out.append("odd h: isolated vertex in the minimal-threshold graph")

        if prev_arcs is not None:
            if not arcs <= prev_arcs:
                out.append(f"mu={mu}: raising the threshold added an arc")
            if not prev_dominant <= dom:
                out.append(f"mu={mu}: raising the threshold dropped a dominant vertex")
        prev_arcs, prev_dominant = arcs, dom
        at[mu] = dom, info

    mu_p = profile_threshold(profile)
    mu_pr = profile_threshold(reversed_profile)
    # The tally core reads the reversal's threshold off p's transposed tally.
    if (mu_p, mu_pr) != minimax_defeats(upper_tally(profile), h, n)[2:]:
        out.append("graph-route thresholds differ from the tally core's")
    selection, info_p = at[mu_p]
    if not selection:
        out.append("empty dominant set at the profile threshold")
    if selection != minimax_direct(profile):
        out.append("threshold and direct minimax routes disagree")
    if mu_p >= mu_acyclic and not info_p.acyclic:
        out.append("cycle at the profile threshold despite the acyclicity bound")

    winner = condorcet_winner(profile)
    if winner is not None and selection != {winner}:
        out.append("a majority winner exists but is not the unique selection")
    loser = condorcet_loser(profile)
    if loser != condorcet_winner(reversed_profile):
        out.append("majority loser does not match the reversal's majority winner")
    if loser is not None and loser in selection and in_table(2, h, n):
        out.append("majority loser selected inside the type-2 immunity region")

    if (h, n) == (3, 3):
        out.extend(_three_by_three_violations(profile, reversed_profile, mu_p, mu_pr))
    return out


def _three_by_three_violations(
    profile: Profile, reversed_profile: Profile, mu_p: int, mu_pr: int
) -> list[str]:
    """Extra facts specific to three voters over three alternatives."""
    out: list[str] = []
    if mu_p != mu_pr:
        out.append("three-by-three: thresholds of profile and reversal differ")
    firsts = [col.order[0] for col in profile.columns]
    thirds = [col.order[2] for col in profile.columns]
    distinct = len(set(firsts)) == 3 and len(set(thirds)) == 3
    cyclic = has_l_cycle(majority_graph(profile, 2), 3)
    if cyclic != distinct:
        out.append(
            "three-by-three: cyclic minimal-threshold graph does not match "
            "pairwise-distinct tops and bottoms"
        )
    return out
