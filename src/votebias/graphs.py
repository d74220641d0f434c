"""Majority thresholds and the directed graphs they induce on a profile.

For a threshold mu with h/2 < mu <= h, the mu-majority graph has an arc
x -> y whenever at least mu voters rank x above y.  Because mu exceeds
half the electorate, two opposite arcs can never coexist.

Graphs and dominant sets are read off the rows of the profile's tally, never
through the minimax core in ``rules``, so they stay an independent route.  The
structural analysis holds a graph as one out-neighbour and one in-neighbour
bitmask per vertex (bit y-1 for alternative y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress

from .prefs import Profile


def minimal_threshold(h: int) -> int:
    """Smallest admissible majority threshold: least integer above h/2."""
    if h < 2:
        raise ValueError(f"need at least 2 voters, got {h}")
    return h // 2 + 1


def greenberg_threshold(h: int, n: int) -> int:
    """Least admissible threshold forcing acyclicity on every profile.

    This is the least integer in (h/2, h] strictly above (n-1)h/n.
    """
    _check_sizes(h, n)
    return (n - 1) * h // n + 1


def acyclicity_threshold(h: int, n: int) -> int:
    """Least admissible threshold strictly above (n-2)h/(n-1).

    Above this value the graph of the selected threshold is always acyclic;
    for n in {2, 3} it coincides with the minimal threshold.
    """
    _check_sizes(h, n)
    return max(minimal_threshold(h), (n - 2) * h // (n - 1) + 1)


def _check_sizes(h: int, n: int) -> None:
    if h < 2 or n < 2:
        raise ValueError(f"need h >= 2 voters and n >= 2 alternatives, got h={h}, n={n}")


def _check_threshold(h: int, mu: int) -> None:
    if not isinstance(mu, int) or 2 * mu <= h or mu > h:
        raise ValueError(f"threshold {mu} not an integer in (h/2, h] for h={h}")


@dataclass(frozen=True)
class MajorityGraph:
    """A directed graph on the alternatives 1..n.

    ``mu`` records the threshold when the graph came from a profile; graphs
    built directly (for analysis tests) may leave it as None.  Profile-derived
    graphs never contain a 2-cycle, but the constructor does not force that,
    so synthetic graphs can exercise every definition.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    mu: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least 1 vertex, got {self.n}")
        for x, y in self.arcs:
            if x == y:
                raise ValueError(f"self-loop at {x}")
            if not (1 <= x <= self.n and 1 <= y <= self.n):
                raise ValueError(f"arc ({x},{y}) outside 1..{self.n}")


@dataclass(frozen=True)
class ComponentInfo:
    """One weak component: its sorted vertices and whether it is acyclic."""

    vertices: tuple[int, ...]
    acyclic: bool


@dataclass(frozen=True)
class GraphAnalysis:
    """Order-theoretic summary of a majority graph.

    maximal: vertices with no incoming arc; minimal: no outgoing arc.
    maxima:  vertices with an arc to every other vertex; minima dually.
    isolated: vertices that are both maximal and minimal.
    components: weak components (undirected reachability) with a
    per-component acyclicity flag; acyclic holds iff all components are.
    """

    maximal: frozenset[int]
    minimal: frozenset[int]
    isolated: frozenset[int]
    maxima: frozenset[int]
    minima: frozenset[int]
    components: tuple[ComponentInfo, ...]
    acyclic: bool

    def to_json_dict(self) -> dict:
        return {
            "maximal": sorted(self.maximal),
            "minimal": sorted(self.minimal),
            "isolated": sorted(self.isolated),
            "maxima": sorted(self.maxima),
            "minima": sorted(self.minima),
            "components": [
                {"vertices": list(c.vertices), "acyclic": c.acyclic}
                for c in self.components
            ],
            "acyclic": self.acyclic,
        }


@lru_cache(maxsize=None)
def _cells(n: int) -> tuple[tuple[int, int], ...]:
    """Every (x, y) in 1..n squared, in the row-major order of the tally."""
    return tuple((x, y) for x in range(1, n + 1) for y in range(1, n + 1))


def majority_graph(profile: Profile, mu: int) -> MajorityGraph:
    """The mu-majority graph of a profile."""
    _check_threshold(profile.h, mu)
    # The diagonal is 0 < mu, so it never yields an arc.
    t = profile.tally()
    arcs = frozenset(compress(_cells(t.n), map(mu.__le__, chain.from_iterable(t.counts))))
    return MajorityGraph(t.n, arcs, mu)


def dominant_set(profile: Profile, mu: int) -> frozenset[int]:
    """Alternatives no rival beats at level mu: all t[y][x] < mu.

    Equals the maximal set of the mu-majority graph.
    """
    _check_threshold(profile.h, mu)
    worst = map(max, zip(*profile.tally().counts))
    return frozenset(x for x, w in enumerate(worst, start=1) if w < mu)


def profile_threshold(profile: Profile) -> int:
    """Least admissible mu whose dominant set is nonempty.

    Scans upward from the minimal threshold; the Greenberg threshold always
    yields a nonempty dominant set, so the scan terminates there at latest.
    """
    for mu in range(minimal_threshold(profile.h), profile.h + 1):
        if dominant_set(profile, mu):
            return mu
    raise AssertionError("dominant set empty at every admissible threshold")


def _adjacency(graph: MajorityGraph) -> tuple[list[int], list[int]]:
    """Neighbour masks: x -> y sets bit y-1 of outs[x-1] and bit x-1 of ins[y-1]."""
    outs, ins = [0] * graph.n, [0] * graph.n
    for x, y in graph.arcs:
        outs[x - 1] |= 1 << (y - 1)
        ins[y - 1] |= 1 << (x - 1)
    return outs, ins


@lru_cache(maxsize=4096)
def _members(mask: int) -> tuple[int, ...]:
    """The 0-based vertices of a mask, ascending; the cache holds every mask of n <= 12."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def analyze(graph: MajorityGraph) -> GraphAnalysis:
    """Full structural analysis of the graph."""
    outs, ins = _adjacency(graph)
    full = (1 << graph.n) - 1
    maximal = frozenset(x for x, m in enumerate(ins, start=1) if not m)
    minimal = frozenset(x for x, m in enumerate(outs, start=1) if not m)
    # Without self-loops, an arc to every other vertex is the mask full minus x.
    maxima = frozenset(x + 1 for x, m in enumerate(outs) if m | 1 << x == full)
    minima = frozenset(x + 1 for x, m in enumerate(ins) if m | 1 << x == full)

    # No arc joins two components, so peeling the whole graph peels each one.
    cyclic = _cyclic_core(full, outs)
    neighbours = [o | i for o, i in zip(outs, ins)]
    components = []
    unseen = full
    while unseen:  # flood fill from the least unseen vertex, so components come in order
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in _members(frontier):
                reach |= neighbours[v]
            frontier = reach & ~comp
            comp |= frontier
        unseen ^= comp
        components.append(ComponentInfo(
            tuple(v + 1 for v in _members(comp)), not comp & cyclic
        ))

    return GraphAnalysis(
        maximal=maximal,
        minimal=minimal,
        isolated=maximal & minimal,
        maxima=maxima,
        minima=minima,
        components=tuple(components),
        acyclic=not cyclic,
    )


def _cyclic_core(mask: int, outs: list[int]) -> int:
    """The vertices of a mask left once its sinks are peeled off, round by round.

    A finite digraph is acyclic iff each of its nonempty subgraphs has a sink,
    so what is left is empty iff the subgraph on the mask has no directed cycle.
    """
    while mask:
        sinks = 0
        for v in _members(mask):
            if not outs[v] & mask:
                sinks |= 1 << v
        if not sinks:
            break
        mask ^= sinks
    return mask


def has_l_cycle(graph: MajorityGraph, length: int) -> bool:
    """Whether the graph contains a simple directed cycle of exactly `length` arcs."""
    if not 2 <= length <= graph.n:
        raise ValueError(f"cycle length {length} not in 2..{graph.n}")
    outs, _ = _adjacency(graph)

    def extend(start: int, v: int, used: int, depth: int) -> bool:
        # Canonical form: every vertex on the cycle stays >= the start vertex.
        if depth == length:
            return bool(outs[v] >> start & 1)
        for w in _members(outs[v] & ~used & -(2 << start)):
            if extend(start, w, used | 1 << w, depth + 1):
                return True
        return False

    return any(extend(s, s, 1 << s, 1) for s in range(graph.n))


def export_dot(graph: MajorityGraph) -> str:
    """Deterministic DOT rendering: vertices ascending, arcs in sorted order."""
    lines = ["digraph majority {"]
    for x in range(1, graph.n + 1):
        lines.append(f'  "{x}";')
    for x, y in sorted(graph.arcs):
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines)
