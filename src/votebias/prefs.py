"""Strict rankings, preference profiles, reversal, and pairwise tallies.

Alternatives are the integers 1..n.  A ranking lists them best first; a
profile is one ranking per voter.  Everything here is an immutable value:
reversal returns a new profile, and equal rankings may be one shared object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter


class ProfileParseError(ValueError):
    """Malformed profile text.  The message names the offending row/column."""


@dataclass(frozen=True)
class Ranking:
    """A strict total order on the alternatives 1..n, best first.

    ``order[j]`` is the alternative placed at position j+1, so ``order[0]``
    is the top alternative and ``order[-1]`` the bottom one.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        # Caches are keyed by the order, so only a tuple of ints can serve them:
        # (1.0, 2.0) and (True, 2) hash and compare equal to (1, 2).
        order = self.order
        if type(order) is not tuple or any(type(x) is not int for x in order):
            raise ValueError(f"ranking order must be a tuple of int, got {order!r}")
        n = len(order)
        if n < 2:
            raise ValueError(f"ranking needs at least 2 alternatives, got {n}")
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"ranking {order!r} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.order)

    def reverse(self) -> "Ranking":
        """The reversed ranking: position j goes to position n+1-j.  It is the
        shared Ranking of the reversed order, so reversing every voter of many
        profiles builds each reversed order once."""
        return _ranking(self.order[::-1])

    def beats(self) -> tuple[int, ...]:
        """Flat 0/1 matrix b[(x-1)*n + (y-1)] = 1 iff x is ranked above y."""
        n = len(self.order)
        return tuple(_packed_beats(self.order).to_bytes(n * n, "little"))


# Keyed by order, so equal rankings share one row; all n <= 7 rankings fit.
@lru_cache(maxsize=8192)
def _packed_beats(order: tuple[int, ...]) -> int:
    """beats() as one integer in base 256: byte (x-1)*n + (y-1) is 1 iff x is
    ranked above y.  Up to 255 such rows add without a carry between bytes."""
    n = len(order)
    row = 0
    for j, x in enumerate(order):
        base = (x - 1) * n - 1
        for y in order[j + 1:]:
            row |= 1 << 8 * (base + y)
    return row


@lru_cache(maxsize=4096)
def _alts(mask: int) -> frozenset[int]:
    """The alternatives of a mask (bit x-1 for alternative x) as one shared
    frozenset, built ascending; the cache holds every mask of n <= 12."""
    return frozenset(x for x in range(1, mask.bit_length() + 1) if mask >> x - 1 & 1)


# A Ranking is a frozen value, and what is derived from it is cached by its
# order, so equal rankings may be one object.  Every order of up to 6
# alternatives (6! = 720) fits; above that, orders rarely repeat and a larger
# cache would only hold memory.
_ranking = lru_cache(maxsize=720)(Ranking)
_order = attrgetter("order")

# The bound of every cache keyed by a tally (rules, graphs, bias, properties).
# A tally is a tuple of int tuples, since every column is a Ranking of ints,
# and it fixes h and n (tally_size), so a function of the tally alone can be
# cached by it and profiles with equal tallies share its answer.  A perfbench
# sweep pass meets 5,727 distinct tallies and 7,454 distinct (tally, mu) graphs.
# The reports built from them (bias._report) are shared by their values under
# the same bound: the pass hands out 17,181 and builds 1,168.  Its 6,006
# components (graphs._component) hold 33 distinct ones.
TALLY_CACHE_SIZE = 8192


@lru_cache(maxsize=TALLY_CACHE_SIZE)
def _shared_tally(tally: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """This tally, or an equal one made earlier that the cache still holds.

    The tally-keyed caches keep their keys alive, and a key made from a copy
    of a tally another cache already holds keeps one more copy: the property
    checker keys each check by a reversal's freshly made tally, whose equal a
    sweep has mostly met before.  Those copies grow the heap that the garbage
    collector walks, and on a sweep pass they cost it about as much time as
    the checker's cache saves.
    """
    return tally


def tally_size(tally: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """(h, n) of a tally: each voter ranks alternatives 1 and 2 one way or the other."""
    return tally[0][1] + tally[1][0], len(tally)


@dataclass(frozen=True)
class Profile:
    """An ordered tuple of rankings, one per voter, all on the same 1..n.

    A Profile is a frozen value of validated rankings.  It stores its tally,
    read once from its own columns; every fact derived from the tally (the
    rules' tally core, the graph route's column maxima and graphs, the audit
    reports) is cached by the tally itself, not by the profile, so profiles
    with equal tallies work each fact out once between them.
    """

    columns: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        if len(self.columns) < 2:
            raise ValueError(f"profile needs at least 2 voters, got {len(self.columns)}")
        n = len(self.columns[0].order)
        for i, q in enumerate(self.columns, start=1):
            if len(q.order) != n:
                raise ValueError(f"voter {i} ranks {len(q.order)} alternatives, expected {n}")

    @property
    def n(self) -> int:
        return len(self.columns[0].order)

    @property
    def h(self) -> int:
        return len(self.columns)

    def reverse(self) -> "Profile":
        """Columnwise reversal: every voter's ranking is turned upside down."""
        return Profile(tuple(q.reverse() for q in self.columns))

    def tally(self) -> tuple[tuple[int, ...], ...]:
        """The n x n pairwise tally, computed once and cached: t[x-1][y-1] voters
        rank x above y.  Equal tallies are mostly one object (_shared_tally).

        Every column is a validated Ranking, which ranks each pair of distinct
        alternatives exactly one way and no alternative above itself, so the
        diagonal is zero and t[x][y] + t[y][x] = h without a further check.

        Below 256 voters the tally is the sum of the columns' _packed_beats
        rows, read out by one to_bytes: a byte counts at most 255 voters, so
        none carries into the next.  From 256 voters on, each cell is the sum
        of the rows' bytes, which has no bound.
        """
        try:
            return self._tally  # type: ignore[attr-defined]
        except AttributeError:
            pass
        columns = self.columns
        n = len(columns[0].order)
        rows = map(_packed_beats, map(_order, columns))
        if len(columns) < 256:
            flat = iter(sum(rows).to_bytes(n * n, "little"))
        else:
            flat = iter(map(sum, zip(*(row.to_bytes(n * n, "little") for row in rows))))
        tally = _shared_tally(tuple(zip(*[flat] * n)))
        object.__setattr__(self, "_tally", tally)
        return tally


def parse_profile(text: str) -> Profile:
    """Parse the row-per-alternative text format.

    Row j holds, for each voter, the alternative that voter ranks j-th, so
    columns are order vectors.  Rows are whitespace-separated ASCII decimals;
    the grid must be n rows by h columns with every column a permutation of
    1..n.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    n = len(lines)
    if n < 2:
        raise ProfileParseError(f"profile needs at least 2 rows, got {n}")
    grid: list[list[int]] = []
    for r, line in enumerate(lines, start=1):
        cells = line.split()
        row: list[int] = []
        for c, cell in enumerate(cells, start=1):
            # int() would also take signs, underscores and non-ASCII digits.
            if not (cell.isascii() and cell.isdigit()):
                raise ProfileParseError(
                    f"row {r}, column {c}: {cell!r} is not an ASCII decimal integer"
                )
            row.append(int(cell))
        grid.append(row)
    h = len(grid[0])
    for r, row in enumerate(grid, start=1):
        if len(row) != h:
            raise ProfileParseError(f"row {r} has {len(row)} entries, expected {h}")
    if h < 2:
        raise ProfileParseError(f"profile needs at least 2 columns, got {h}")
    columns = []
    for c in range(h):
        order = tuple(grid[r][c] for r in range(n))
        bad = [x for x in order if not 1 <= x <= n]
        if bad:
            raise ProfileParseError(
                f"column {c + 1}: alternative {bad[0]} outside 1..{n}"
            )
        if len(set(order)) != n:
            raise ProfileParseError(f"column {c + 1} is not a permutation of 1..{n}")
        columns.append(Ranking(order))
    return Profile(tuple(columns))


def serialize_profile(profile: Profile) -> str:
    """Canonical text form: n rows, single spaces, no trailing whitespace."""
    rows = []
    for j in range(profile.n):
        rows.append(" ".join(str(q.order[j]) for q in profile.columns))
    return "\n".join(rows)
