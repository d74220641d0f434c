"""Majority thresholds and the directed graphs they induce on a profile.

For a threshold mu with h/2 < mu <= h, the mu-majority graph has an arc
x -> y whenever at least mu voters rank x above y.  Because mu exceeds
half the electorate, two opposite arcs can never coexist.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def vertices(self) -> range:
        return range(1, self.n + 1)


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


def majority_graph(profile: Profile, mu: int) -> MajorityGraph:
    """The mu-majority graph of a profile."""
    _check_threshold(profile.h, mu)
    t = profile.tally()
    n = profile.n
    arcs = frozenset(
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x != y and t.count(x, y) >= mu
    )
    return MajorityGraph(n, arcs, mu)


def dominant_set(profile: Profile, mu: int) -> frozenset[int]:
    """Alternatives no rival beats at level mu: all t[y][x] < mu.

    Equals the maximal set of the mu-majority graph.
    """
    _check_threshold(profile.h, mu)
    t = profile.tally()
    n = profile.n
    return frozenset(
        x
        for x in range(1, n + 1)
        if all(t.count(y, x) < mu for y in range(1, n + 1) if y != x)
    )


def profile_threshold(profile: Profile) -> int:
    """Least admissible mu whose dominant set is nonempty.

    Scans upward from the minimal threshold; the Greenberg threshold always
    yields a nonempty dominant set, so the scan terminates there at latest.
    """
    for mu in range(minimal_threshold(profile.h), profile.h + 1):
        if dominant_set(profile, mu):
            return mu
    raise AssertionError("dominant set empty at every admissible threshold")


def analyze(graph: MajorityGraph) -> GraphAnalysis:
    """Full structural analysis, computed once per graph and cached."""
    try:
        return graph._analysis  # type: ignore[attr-defined]
    except AttributeError:
        pass
    n = graph.n
    outs: dict[int, set[int]] = {x: set() for x in graph.vertices()}
    ins: dict[int, set[int]] = {x: set() for x in graph.vertices()}
    for x, y in graph.arcs:
        outs[x].add(y)
        ins[y].add(x)

    maximal = frozenset(x for x in graph.vertices() if not ins[x])
    minimal = frozenset(x for x in graph.vertices() if not outs[x])
    maxima = frozenset(x for x in graph.vertices() if len(outs[x]) == n - 1)
    minima = frozenset(x for x in graph.vertices() if len(ins[x]) == n - 1)

    components = []
    seen: set[int] = set()
    for start in graph.vertices():
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in outs[v] | ins[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        components.append(
            ComponentInfo(tuple(sorted(comp)), _acyclic(comp, outs))
        )

    analysis = GraphAnalysis(
        maximal=maximal,
        minimal=minimal,
        isolated=maximal & minimal,
        maxima=maxima,
        minima=minima,
        components=tuple(components),
        acyclic=all(c.acyclic for c in components),
    )
    object.__setattr__(graph, "_analysis", analysis)
    return analysis


def _acyclic(vertices: set[int], outs: dict[int, set[int]]) -> bool:
    """Directed-cycle check by coloring DFS restricted to the given vertices."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}
    for root in vertices:
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, list[int]]] = [(root, [w for w in outs[root] if w in vertices])]
        color[root] = GREY
        while stack:
            v, todo = stack[-1]
            if todo:
                w = todo.pop()
                if color[w] == GREY:
                    return False
                if color[w] == WHITE:
                    color[w] = GREY
                    stack.append((w, [u for u in outs[w] if u in vertices]))
            else:
                color[v] = BLACK
                stack.pop()
    return True


def has_l_cycle(graph: MajorityGraph, length: int) -> bool:
    """Whether the graph contains a simple directed cycle of exactly `length` arcs."""
    if not 2 <= length <= graph.n:
        raise ValueError(f"cycle length {length} not in 2..{graph.n}")
    outs: dict[int, set[int]] = {x: set() for x in graph.vertices()}
    for x, y in graph.arcs:
        outs[x].add(y)

    def extend(start: int, v: int, used: set[int], depth: int) -> bool:
        # Canonical form: every vertex on the cycle stays >= the start vertex.
        if depth == length:
            return start in outs[v]
        for w in outs[v]:
            if w > start and w not in used:
                used.add(w)
                if extend(start, w, used, depth + 1):
                    return True
                used.remove(w)
        return False

    return any(extend(s, s, {s}, 1) for s in graph.vertices())


def export_dot(graph: MajorityGraph, labels: dict[int, str] | None = None) -> str:
    """Deterministic DOT rendering: vertices ascending, arcs in sorted order."""
    name = {x: (labels or {}).get(x, str(x)) for x in graph.vertices()}
    lines = ["digraph majority {"]
    for x in graph.vertices():
        lines.append(f'  "{name[x]}";')
    for x, y in sorted(graph.arcs):
        lines.append(f'  "{name[x]}" -> "{name[y]}";')
    lines.append("}")
    return "\n".join(lines)
