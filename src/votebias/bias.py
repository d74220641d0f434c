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
from functools import lru_cache
from typing import Iterable

from .prefs import TALLY_CACHE_SIZE, Profile, _alts, tally_size
from .rules import TALLY_RULES, _core, minimax_selections


def bias_flags(
    selection_p: frozenset[int] | Iterable[int],
    selection_pr: frozenset[int] | Iterable[int],
    n: int,
) -> tuple[bool, bool, bool]:
    """(type1, type2, type3) for a selection and its reversal counterpart."""
    return _mask_flags(_mask(selection_p, n), _mask(selection_pr, n), n)


def _mask(selection: Iterable[int], n: int) -> int:
    """The selection as a mask (bit x-1 for x), or -1 if a member lies outside
    1..n.  Members are matched by equality, as in a set: 2.0 counts as 2."""
    within = range(1, n + 1)
    mask = 0
    for x in selection:
        try:
            mask |= 1 << within.index(x)
        except ValueError:
            return -1
    return mask


def _mask_flags(p: int, pr: int, n: int) -> tuple[bool, bool, bool]:
    """bias_flags on the masks _mask makes: 0 is an empty selection, -1 one
    outside 1..n, and each is rejected with bias_flags' error."""
    if not p or not pr:
        raise ValueError("selections must be nonempty")
    if p < 0 or pr < 0:
        raise ValueError(f"selections must be subsets of 1..{n}")
    meets = p & pr != 0
    single = p & (p - 1) == 0
    return single and p == pr, single and meets, meets and p != (1 << n) - 1


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
    """Evaluate each rule on the profile's tally and its transpose and flag biases.

    The reports are cached by the tally and the rule names; each call returns
    a fresh list of them.
    """
    return list(_reports(profile.tally(), tuple(rules)))


@lru_cache(maxsize=TALLY_CACHE_SIZE)
def _reports(tally: tuple[tuple[int, ...], ...], rules: tuple[str, ...]) -> tuple[BiasReport, ...]:
    """audit_profile on a tally.  It reads only its key (see TALLY_CACHE_SIZE)
    and returns a tuple of frozen reports, so equal keys may share one answer;
    an unknown rule raises, and lru_cache stores no exception.

    Minimax is read off the tally core, which equals TALLY_RULES["minimax"] on
    its upper triangle.  Each report is _report's for the rule's selections.
    """
    u, *defeats = _core(tally)
    h, n = tally_size(tally)
    reports = []
    for name in rules:
        if name not in TALLY_RULES:
            raise ValueError(f"unknown rule {name!r}; choose from {sorted(TALLY_RULES)}")
        if name == "minimax":
            sel_p, sel_pr, mu_p, mu_pr = minimax_selections(*defeats)
        else:
            sel_p, sel_pr, mu_p, mu_pr = TALLY_RULES[name](u, h, n)
        reports.append(_report(name, h, n, sel_p, sel_pr, mu_p, mu_pr))
    return tuple(reports)


# A sweep pass hands out 17,181 reports, three per distinct tally, but meets
# only 1,168 distinct keys of this kind.
@lru_cache(maxsize=TALLY_CACHE_SIZE)
def _report(
    rule: str,
    h: int,
    n: int,
    selection_p: tuple[int, ...],
    selection_pr: tuple[int, ...],
    mu_p: int | None,
    mu_pr: int | None,
) -> BiasReport:
    """The report of one rule's selections on a profile and its reversal.

    It reads only its key, whose parts are the ints, strs, None and tuples of
    ints that _reports makes.  A BiasReport is frozen and holds only such
    values and the shared frozensets of _alts, and nothing in the package
    mutates one (only Profile's tally and MajorityGraph's constructors use
    object.__setattr__), so equal keys may share one report.  A selection
    empty or outside 1..n raises bias_flags' error, and lru_cache stores no
    exception.
    """
    p, pr = _mask(selection_p, n), _mask(selection_pr, n)
    t1, t2, t3 = _mask_flags(p, pr, n)
    return BiasReport(rule, h, n, _alts(p), _alts(pr), t1, t2, t3, mu_p, mu_pr)
