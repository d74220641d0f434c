"""Catalog of canonical worked profiles with their published evaluations.

Fixed entries are single profiles; family entries take one integer parameter
and are addressed as, e.g., ``tm2-3-n(6)`` or ``tm3-h-3(8)``.  Each fixture
carries the frozen expected outcome used by the regression suite and by the
constructive witness dispatch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .prefs import Profile, Ranking, parse_profile
from .search import MAX_H, MAX_N


@dataclass(frozen=True)
class Fixture:
    fixture_id: str
    profile: Profile
    description: str
    expected: dict = field(default_factory=dict)


def _intro_6_4() -> Fixture:
    p = parse_profile(
        "1 1 1 2 3 4\n"
        "2 3 4 3 4 2\n"
        "3 4 2 4 2 3\n"
        "4 2 3 1 1 1"
    )
    return Fixture(
        "intro-6-4",
        p,
        "6 voters, 4 alternatives; minimax keeps the same single winner "
        "after reversal",
        {
            "selection_p": frozenset({1}),
            "selection_pr": frozenset({1}),
            "fires": 1,
        },
    )


def _tm2_5_4() -> Fixture:
    p = parse_profile(
        "1 1 1 2 3\n"
        "2 3 4 3 4\n"
        "3 4 2 4 2\n"
        "4 2 3 1 1"
    )
    return Fixture(
        "tm2-5-4",
        p,
        "5 voters, 4 alternatives; the unique winner survives reversal",
        {
            "mu_p": 3,
            "selection_p": frozenset({1}),
            "mu_pr": 4,
            "selection_pr": frozenset({1, 2, 4}),
            "fires": 2,
        },
    )


def _tm2_5_5() -> Fixture:
    p = parse_profile(
        "1 1 1 5 2\n"
        "2 3 4 2 3\n"
        "3 4 5 3 4\n"
        "4 5 2 4 5\n"
        "5 2 3 1 1"
    )
    return Fixture(
        "tm2-5-5",
        p,
        "5 voters, 5 alternatives; the unique winner survives reversal",
        {
            "mu_p": 3,
            "selection_p": frozenset({1}),
            "mu_pr": 4,
            "selection_pr": frozenset({1, 5}),
            "fires": 2,
        },
    )


def _tm2_7_4() -> Fixture:
    # Voter 4 swaps the two middle alternatives; with a plain duplicate of
    # voter 1 there, alternative 2 would lose its level-5 victory slack and
    # the reversal would keep only two survivors instead of three.
    p = parse_profile(
        "1 1 1 1 3 4 2\n"
        "2 3 4 3 4 2 3\n"
        "3 4 2 2 2 3 4\n"
        "4 2 3 4 1 1 1"
    )
    return Fixture(
        "tm2-7-4",
        p,
        "7 voters, 4 alternatives; the unique winner survives reversal",
        {
            "mu_p": 4,
            "selection_p": frozenset({1}),
            "mu_pr": 5,
            "selection_pr": frozenset({1, 2, 4}),
            "fires": 2,
        },
    )


def _tm3_4_4() -> Fixture:
    p = parse_profile(
        "1 1 4 4\n"
        "2 2 2 2\n"
        "3 3 3 3\n"
        "4 4 1 1"
    )
    return Fixture(
        "tm3-4-4",
        p,
        "4 voters, 4 alternatives; proper selections meet after reversal",
        {
            "mu_p": 3,
            "selection_p": frozenset({1, 2, 4}),
            "mu_pr": 3,
            "selection_pr": frozenset({1, 3, 4}),
            "fires": 3,
        },
    )


def _confronto1_3_3() -> Fixture:
    p = parse_profile(
        "1 1 2\n"
        "2 2 3\n"
        "3 3 1"
    )
    return Fixture(
        "confronto1-3-3",
        p,
        "3 voters, 3 alternatives; minimax and Borda disagree",
        {
            "minimax": frozenset({1}),
            "borda": frozenset({1, 2}),
            "borda_scores": {1: 4, 2: 4, 3: 1},
        },
    )


def _tm2_3_n(n: int) -> Fixture:
    if n < 4:
        raise ValueError(f"tm2-3-n needs n >= 4, got {n}")
    mid = list(range(5, n + 1))
    p1 = [1, *mid, 2, 3, 4]
    p2 = [1, *mid, 3, 4, 2]
    p3 = [4, 2, 3, *reversed(mid), 1]
    p = Profile((Ranking(tuple(p1)), Ranking(tuple(p2)), Ranking(tuple(p3))))
    return Fixture(
        f"tm2-3-n({n})",
        p,
        f"3 voters, {n} alternatives; the unique winner survives reversal",
        {
            "mu_p": 2,
            "selection_p": frozenset({1}),
            "mu_pr": 3,
            "selection_pr": frozenset(range(1, n + 1)),
            "fires": 2,
        },
    )


def _tm3_2_n(n: int) -> Fixture:
    if n < 3:
        raise ValueError(f"tm3-2-n needs n >= 3, got {n}")
    p1 = tuple(range(1, n + 1))
    p2 = (n, *range(1, n))
    p = Profile((Ranking(p1), Ranking(p2)))
    return Fixture(
        f"tm3-2-n({n})",
        p,
        f"2 voters, {n} alternatives; proper selections meet after reversal",
        {
            "mu_p": 2,
            "selection_p": frozenset({1, n}),
            "mu_pr": 2,
            "selection_pr": frozenset({n - 1, n}),
            "fires": 3,
        },
    )


def _tm3_h_3(h: int) -> Fixture:
    if h < 2 or h == 3:
        raise ValueError(f"tm3-h-3 needs h >= 2 and h != 3, got {h}")
    a, b, c, d = (1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)
    if h % 3 == 2:
        k = (h - 2) // 3
        counts = [(a, 1 + k), (c, 1 + k), (b, k)]
    elif h % 3 == 1:
        k = (h - 1) // 3
        counts = [(a, k), (b, k), (c, k), (d, 1)]
    else:
        k = (h - 3) // 3
        counts = [(a, k), (c, k), (b, k + 1), (d, 2)]
    columns: list[Ranking] = []
    for order, m in counts:
        columns.extend(Ranking(order) for _ in range(m))
    p = Profile(tuple(columns))
    return Fixture(
        f"tm3-h-3({h})",
        p,
        f"{h} voters, 3 alternatives; proper selections meet after reversal",
        {
            "selection_p": frozenset({1, 3}),
            "selection_pr": frozenset({2, 3}),
            "fires": 3,
        },
    )


_FIXED = {
    "intro-6-4": _intro_6_4,
    "tm2-5-4": _tm2_5_4,
    "tm2-5-5": _tm2_5_5,
    "tm2-7-4": _tm2_7_4,
    "tm3-4-4": _tm3_4_4,
    "confronto1-3-3": _confronto1_3_3,
}

_FAMILIES = {
    "tm2-3-n": (_tm2_3_n, "n >= 4", "3 voters, n alternatives", MAX_N),
    "tm3-2-n": (_tm3_2_n, "n >= 3", "2 voters, n alternatives", MAX_N),
    "tm3-h-3": (_tm3_h_3, "h >= 2, h != 3", "h voters, 3 alternatives", MAX_H),
}

_FAMILY_ID = re.compile(r"([a-z0-9-]+?)\(([0-9]+)\)")


def load(fixture_id: str) -> Fixture:
    """Look up a fixture by id, e.g. ``tm2-5-4`` or ``tm3-h-3(8)``; a family
    parameter past MAX_N (n-families) or MAX_H (h-families) is refused unbuilt."""
    if fixture_id in _FIXED:
        return _FIXED[fixture_id]()
    m = _FAMILY_ID.fullmatch(fixture_id)
    if m and m.group(1) in _FAMILIES:
        builder, _, _, bound = _FAMILIES[m.group(1)]
        k = int(m.group(2))
        if k > bound:
            raise ValueError(f"fixture {fixture_id!r}: parameter {k} is over the limit of {bound}")
        return builder(k)
    raise ValueError(f"unknown fixture id {fixture_id!r}; see fixture_ids()")


def fixture_profile(fixture_id: str) -> Profile:
    """The profile of a cataloged fixture."""
    return load(fixture_id).profile


def fixture_ids() -> list[str]:
    """All addressable ids; families appear with their parameter domain."""
    fixed = sorted(_FIXED)
    families = [f"{name}(k) for {dom}" for name, (_, dom, _, _) in sorted(_FAMILIES.items())]
    return fixed + families
