"""Reversal-bias predicates, known immunity regions, and per-profile audits.

A rule shows reversal bias on a profile when reversing every voter's ranking
fails to dethrone the selected alternatives.  Three nested severities:

  type 1: the rule picks the same single winner before and after reversal;
  type 2: a single winner before reversal survives into the reversed outcome;
  type 3: a non-trivial selection (not all of 1..n) meets the reversed one.

On any one profile, type 1 implies type 2 implies type 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .prefs import Profile
from .rules import TALLY_RULES, upper_tally


def bias_flags(
    selection_p: frozenset[int] | Iterable[int],
    selection_pr: frozenset[int] | Iterable[int],
    n: int,
) -> tuple[bool, bool, bool]:
    """(type1, type2, type3) for a selection and its reversal counterpart."""
    sel_p = frozenset(selection_p)
    sel_pr = frozenset(selection_pr)
    if not sel_p or not sel_pr:
        raise ValueError("selections must be nonempty")
    if not sel_p <= set(range(1, n + 1)) or not sel_pr <= set(range(1, n + 1)):
        raise ValueError(f"selections must be subsets of 1..{n}")
    meets = bool(sel_p & sel_pr)
    type1 = len(sel_p) == 1 and len(sel_pr) == 1 and sel_p == sel_pr
    type2 = len(sel_p) == 1 and meets
    type3 = len(sel_p) < n and meets
    return type1, type2, type3


def in_table(j: int, h: int, n: int) -> bool:
    """Whether (h, n) lies in the region where minimax is immune to type j."""
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    if h < 2 or n < 2:
        raise ValueError(f"need h >= 2 and n >= 2, got h={h}, n={n}")
    if j == 1:
        return h <= 3 or n <= 3 or (h, n) in {(4, 4), (5, 4), (7, 4), (5, 5)}
    if j == 2:
        return h == 2 or n <= 3 or (h, n) == (4, 4)
    return n == 2 or (h, n) == (3, 3)


@dataclass(frozen=True)
class BiasReport:
    """Audit of one rule on one profile and its reversal."""

    rule: str
    h: int
    n: int
    selection_p: frozenset[int]
    selection_pr: frozenset[int]
    type1: bool
    type2: bool
    type3: bool
    mu_p: int | None = None
    mu_pr: int | None = None

    def to_json_dict(self) -> dict:
        record = {
            "rule": self.rule,
            "h": self.h,
            "n": self.n,
            "selection_p": sorted(self.selection_p),
            "selection_pr": sorted(self.selection_pr),
            "type1": self.type1,
            "type2": self.type2,
            "type3": self.type3,
        }
        if self.mu_p is not None:
            record["mu_p"] = self.mu_p
        if self.mu_pr is not None:
            record["mu_pr"] = self.mu_pr
        return record


def audit_profile(
    profile: Profile,
    rules: Iterable[str] = ("minimax", "borda", "copeland"),
) -> list[BiasReport]:
    """Evaluate each rule on the profile's tally and its transpose and flag biases."""
    u = upper_tally(profile)
    h, n = profile.h, profile.n
    reports = []
    for name in rules:
        if name not in TALLY_RULES:
            raise ValueError(f"unknown rule {name!r}; choose from {sorted(TALLY_RULES)}")
        sel_p, sel_pr, mu_p, mu_pr = TALLY_RULES[name](u, h, n)
        t1, t2, t3 = bias_flags(sel_p, sel_pr, n)
        reports.append(
            BiasReport(
                rule=name,
                h=h,
                n=n,
                selection_p=frozenset(sel_p),
                selection_pr=frozenset(sel_pr),
                type1=t1,
                type2=t2,
                type3=t3,
                mu_p=mu_p,
                mu_pr=mu_pr,
            )
        )
    return reports
