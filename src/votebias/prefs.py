"""Strict rankings, preference profiles, reversal, and pairwise tallies.

Alternatives are the integers 1..n.  A ranking lists them best first; a
profile is one ranking per voter.  Everything here is an immutable value:
reversal and tallying return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


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
        n = len(self.order)
        if n < 2:
            raise ValueError(f"ranking needs at least 2 alternatives, got {n}")
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"ranking {self.order!r} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.order)

    def reverse(self) -> "Ranking":
        """The reversed ranking: position j goes to position n+1-j."""
        return Ranking(self.order[::-1])

    def beats(self) -> tuple[int, ...]:
        """Flat 0/1 matrix b[(x-1)*n + (y-1)] = 1 iff x is ranked above y."""
        return _beats(self.order)


# Keyed by order, so equal rankings share one vector; all n <= 7 rankings fit.
@lru_cache(maxsize=8192)
def _beats(order: tuple[int, ...]) -> tuple[int, ...]:
    n = len(order)
    flat = [0] * (n * n)
    for j, x in enumerate(order):
        base = (x - 1) * n
        for y in order[j + 1:]:
            flat[base + (y - 1)] = 1
    return tuple(flat)


@dataclass(frozen=True)
class TallyMatrix:
    """Pairwise comparison counts: counts[x-1][y-1] voters rank x above y.

    Off-diagonal entries of a valid tally satisfy t[x][y] + t[y][x] = h;
    the diagonal is zero.
    """

    n: int
    h: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2 or self.h < 2:
            raise ValueError(f"tally needs n >= 2 and h >= 2, got n={self.n}, h={self.h}")
        if len(self.counts) != self.n or any(len(row) != self.n for row in self.counts):
            raise ValueError("tally matrix is not n x n")
        for x in range(self.n):
            if self.counts[x][x] != 0:
                raise ValueError(f"tally diagonal at {x + 1} must be 0")
            for y in range(x + 1, self.n):
                a, b = self.counts[x][y], self.counts[y][x]
                if a < 0 or b < 0 or a + b != self.h:
                    raise ValueError(
                        f"tally entries for pair ({x + 1},{y + 1}) must be "
                        f"nonnegative and sum to h={self.h}, got {a}+{b}"
                    )

    def reverse(self) -> "TallyMatrix":
        """Tally of the reversed profile: every entry flips to h - t[x][y]."""
        n, h = self.n, self.h
        rows = tuple(
            tuple(0 if x == y else h - self.counts[x][y] for y in range(n))
            for x in range(n)
        )
        return TallyMatrix(n, h, rows)


@dataclass(frozen=True)
class Profile:
    """An ordered tuple of rankings, one per voter, all on the same 1..n."""

    columns: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        if len(self.columns) < 2:
            raise ValueError(f"profile needs at least 2 voters, got {len(self.columns)}")
        n = self.columns[0].n
        for i, q in enumerate(self.columns, start=1):
            if q.n != n:
                raise ValueError(f"voter {i} ranks {q.n} alternatives, expected {n}")

    @property
    def n(self) -> int:
        return self.columns[0].n

    @property
    def h(self) -> int:
        return len(self.columns)

    def reverse(self) -> "Profile":
        """Columnwise reversal: every voter's ranking is turned upside down."""
        return Profile(tuple(q.reverse() for q in self.columns))

    def tally(self) -> TallyMatrix:
        """Pairwise tally matrix, computed once and cached."""
        try:
            return self._tally  # type: ignore[attr-defined]
        except AttributeError:
            pass
        n, h = self.n, self.h
        flat = iter(map(sum, zip(*(q.beats() for q in self.columns))))
        rows = tuple(zip(*[flat] * n))
        t = TallyMatrix(n, h, rows)
        object.__setattr__(self, "_tally", t)
        return t


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
