"""Majority thresholds and the directed graphs they induce on a profile.

For a threshold mu with h/2 < mu <= h, the mu-majority graph has an arc
x -> y whenever at least mu voters rank x above y.  Because mu exceeds
half the electorate, two opposite arcs can never coexist.

Graphs and dominant sets are read off the rows of the profile's tally, never
through the minimax core in ``rules``, so they stay an independent route.  The
structural analysis holds a graph as one out-neighbour and one in-neighbour
bitmask per vertex (bit y-1 for alternative y).  Dominant sets and the
analysis's vertex sets are worked out as such masks, and each is returned as
the one shared frozenset of its mask (prefs._alts).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress

from .prefs import TALLY_CACHE_SIZE, Profile, _alts


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

    Profile-derived graphs never contain a 2-cycle, but the constructor does
    not force that, so synthetic graphs can exercise every definition.  The
    constructor checks every arc; only graphs read off a tally, whose arcs
    are sound by construction, skip the check through _trusted.
    """

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        # Frozen, so that every graph hashes and analyze can be keyed by it.
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.n < 1:
            raise ValueError(f"graph needs at least 1 vertex, got {self.n}")
        for x, y in self.arcs:
            if x == y:
                raise ValueError(f"self-loop at {x}")
            if not (1 <= x <= self.n and 1 <= y <= self.n):
                raise ValueError(f"arc ({x},{y}) outside 1..{self.n}")

    @classmethod
    def _trusted(cls, n: int, arcs: frozenset[tuple[int, int]]) -> MajorityGraph:
        """The graph on n >= 1 vertices with these arcs, unchecked: arcs must be
        a frozenset of pairs of distinct alternatives in 1..n."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "arcs", arcs)
        return graph


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
    return _graph(profile.tally(), mu)


@lru_cache(maxsize=TALLY_CACHE_SIZE)
def _graph(tally: tuple[tuple[int, ...], ...], mu: int) -> MajorityGraph:
    """majority_graph on a tally: it reads only its key (see TALLY_CACHE_SIZE),
    and a MajorityGraph is frozen, so equal keys may share one graph."""
    # Every cell is a pair of 1..n, and the diagonal is 0 < mu, so it never
    # yields an arc: the arcs pass MajorityGraph's checks, which are skipped.
    n = len(tally)
    arcs = frozenset(compress(_cells(n), map(mu.__le__, chain.from_iterable(tally))))
    return MajorityGraph._trusted(n, arcs)


def dominant_set(profile: Profile, mu: int) -> frozenset[int]:
    """Alternatives no rival beats at level mu: all t[y][x] < mu.

    Equals the maximal set of the mu-majority graph.
    """
    _check_threshold(profile.h, mu)
    mask = 0
    for x, w in enumerate(_maxima(profile.tally())):
        if w < mu:
            mask |= 1 << x
    return _alts(mask)


@lru_cache(maxsize=TALLY_CACHE_SIZE)
def _maxima(tally: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Per x, max over rivals y of t[y][x], read off the tally's columns.  It
    reads only its key (see TALLY_CACHE_SIZE) and returns a tuple, so equal
    tallies may share it.  A cache of the graph route's own, apart from the
    rules' tally core, which this route never reaches."""
    return tuple(map(max, zip(*tally)))


def profile_threshold(profile: Profile) -> int:
    """Least admissible mu whose dominant set is nonempty.

    Scans upward from the minimal threshold; the Greenberg threshold always
    yields a nonempty dominant set, so the scan terminates there at latest.
    """
    for mu in range(minimal_threshold(profile.h), profile.h + 1):
        if dominant_set(profile, mu):
            return mu
    raise AssertionError("dominant set empty at every admissible threshold")


def _adjacency(n: int, arcs) -> tuple[list[int], list[int]]:
    """Neighbour masks: x -> y sets bit y-1 of outs[x-1] and bit x-1 of ins[y-1]."""
    outs, ins = [0] * n, [0] * n
    for x, y in arcs:
        outs[x - 1] |= 1 << (y - 1)
        ins[y - 1] |= 1 << (x - 1)
    return outs, ins


@lru_cache(maxsize=4096)
def _members(mask: int) -> tuple[int, ...]:
    """The 0-based vertices of a mask, ascending; the cache holds every mask of n <= 12."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def analyze(graph: MajorityGraph) -> GraphAnalysis:
    """Full structural analysis of the graph.

    The analysis is a pure function of (n, arcs), and a GraphAnalysis is
    frozen, so equal graphs share one cached result.
    """
    return _analysis(graph.n, graph.arcs)


# Sweeps meet the same few thousand graphs again and again: a perfbench sweep
# pass analyzes 4,517 distinct graphs in 28,420 calls.
@lru_cache(maxsize=8192)
def _analysis(n: int, arcs: frozenset[tuple[int, int]]) -> GraphAnalysis:
    outs, ins = _adjacency(n, arcs)
    full = (1 << n) - 1
    maximal = sum(1 << v for v, m in enumerate(ins) if not m)
    minimal = sum(1 << v for v, m in enumerate(outs) if not m)
    # Without self-loops, an arc to every other vertex is the mask full minus v.
    maxima = sum(1 << v for v, m in enumerate(outs) if m | 1 << v == full)
    minima = sum(1 << v for v, m in enumerate(ins) if m | 1 << v == full)

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
        components.append(_component(comp, not comp & cyclic))

    return GraphAnalysis(
        maximal=_alts(maximal),
        minimal=_alts(minimal),
        isolated=_alts(maximal & minimal),
        maxima=_alts(maxima),
        minima=_alts(minima),
        components=tuple(components),
        acyclic=not cyclic,
    )


# A sweep pass hands out 6,006 components but meets only 33 distinct keys;
# the cache holds every key of n <= 12.
@lru_cache(maxsize=8192)
def _component(mask: int, acyclic: bool) -> ComponentInfo:
    """The component on a mask's vertices with this acyclicity flag.

    It reads only its key, an int and a bool that _analysis makes.  A
    ComponentInfo is frozen and holds only a tuple of ints and a bool, and
    nothing in the package mutates one (only Profile's tally and
    MajorityGraph's constructors use object.__setattr__), so equal keys may
    share one component.
    """
    return ComponentInfo(tuple(v + 1 for v in _members(mask)), acyclic)


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
    outs, _ = _adjacency(graph.n, graph.arcs)

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
