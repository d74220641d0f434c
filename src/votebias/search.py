"""Search for reversal-bias witnesses and exhaustive immunity certificates.

All three rules under study are anonymous, so exhaustive runs enumerate one
representative per multiset of rankings (nondecreasing index tuples under the
lexicographic order on order vectors).  For existence/absence queries the
rules are also neutral, which allows an optional further cut: only multisets
containing the identity ranking need to be visited.  The cut is never used
for counting.

Exhaustive scans for every rule go through one entry, ``scan_minimax``,
which checks its visit count against the closed form.  Its kernel keeps a
running upper-triangle tally while walking the multiset tree and evaluates
each leaf through the tally-level core in ``rules``.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
from typing import Callable, Iterator

from .bias import audit_profile, bias_flags
from .graphs import profile_threshold
from .prefs import Profile, Ranking, serialize_profile
from .rules import RULES, TALLY_RULES, minimax_defeats, upper_pairs

DEFAULT_EXHAUSTIVE_BUDGET = 5_000_000
DEFAULT_SAMPLE_BUDGET = 100_000
DEFAULT_SEED = 271828
WORKERS_ENV = "VOTEBIAS_WORKERS"

OUTCOME_WITNESS = "witness-found"
OUTCOME_IMMUNE = "certified-immune"
OUTCOME_INCONCLUSIVE = "inconclusive"


class BudgetExceededError(RuntimeError):
    """Enumeration refused because the space exceeds the allowed budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class CertificationError(RuntimeError):
    """A claimed witness failed its re-audit."""


@dataclass(frozen=True)
class SearchStrategy:
    """How find_witness is allowed to spend effort.

    budget bounds the representatives examined (exhaustive) or samples drawn
    (sampled).  neutral_cut additionally restricts exhaustive enumeration to
    multisets containing the identity ranking; sound for existence/absence
    because the rules are neutral, never used for counting.
    """

    mode: str = "exhaustive"
    budget: int | None = None
    seed: int = DEFAULT_SEED
    neutral_cut: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "sampled", "constructive"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")

    @property
    def effective_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        return DEFAULT_SAMPLE_BUDGET if self.mode == "sampled" else DEFAULT_EXHAUSTIVE_BUDGET


@dataclass(frozen=True)
class Witness:
    """A profile certified to exhibit bias type j for a rule.

    Witnesses are only created through certify_witness, which recomputes the
    selections and flags from scratch; nothing upstream is trusted.
    """

    profile: Profile
    j: int
    rule: str
    selection_p: frozenset[int]
    selection_pr: frozenset[int]
    flags: tuple[bool, bool, bool]
    mu_p: int | None
    mu_pr: int | None
    method: str
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "h": self.profile.h,
            "n": self.profile.n,
            "j": self.j,
            "rule": self.rule,
            "profile": serialize_profile(self.profile),
            "selection_p": sorted(self.selection_p),
            "selection_pr": sorted(self.selection_pr),
            "mu_p": self.mu_p,
            "mu_pr": self.mu_pr,
            "strategy": self.method,
            "seed": self.seed,
        }


def certify_witness(
    profile: Profile, j: int, rule: str, method: str, seed: int | None = None
) -> Witness:
    """Re-audit a candidate profile and wrap it as a Witness, or fail loudly.

    RULES[rule] (minimax by its threshold route) runs on the profile and on its
    re-tallied reversal, independently of the tally core that proposed it.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {sorted(RULES)}")
    reversal = profile.reverse()
    selection_p, selection_pr = RULES[rule](profile), RULES[rule](reversal)
    mu_p = mu_pr = None
    if rule == "minimax":
        mu_p, mu_pr = profile_threshold(profile), profile_threshold(reversal)
    flags = bias_flags(selection_p, selection_pr, profile.n)
    if not flags[j - 1]:
        raise CertificationError(
            f"candidate does not exhibit type-{j} bias for {rule}: "
            f"selections {sorted(selection_p)} / {sorted(selection_pr)}"
        )
    return Witness(
        profile=profile,
        j=j,
        rule=rule,
        selection_p=selection_p,
        selection_pr=selection_pr,
        flags=flags,
        mu_p=mu_p,
        mu_pr=mu_pr,
        method=method,
        seed=seed,
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of find_witness: three-valued, never a silent None."""

    h: int
    n: int
    j: int
    rule: str
    method: str
    outcome: str
    examined: int
    space: int | None = None
    witness: Witness | None = None
    seed: int | None = None
    note: str = ""


@lru_cache(maxsize=None)
def all_rankings(n: int) -> tuple[Ranking, ...]:
    """All n! rankings in lexicographic order of their order vectors."""
    return tuple(Ranking(order) for order in itertools.permutations(range(1, n + 1)))


def anonymous_count(h: int, n: int) -> int:
    """Number of multisets of h rankings: C(n! + h - 1, h)."""
    if h < 2 or n < 2:
        raise ValueError(f"need h >= 2 and n >= 2, got h={h}, n={n}")
    return math.comb(math.factorial(n) + h - 1, h)


def neutral_count(h: int, n: int) -> int:
    """Number of multisets containing the identity ranking: C(n! + h - 2, h - 1)."""
    if h < 2 or n < 2:
        raise ValueError(f"need h >= 2 and n >= 2, got h={h}, n={n}")
    return math.comb(math.factorial(n) + h - 2, h - 1)


def enumerate_anonymous(
    h: int,
    n: int,
    visitor: Callable[[Profile], None],
    budget: int | None = None,
) -> int:
    """Visit one representative profile per multiset, in lexicographic order.

    Returns the number of representatives visited.  Refuses up front when the
    space exceeds the budget.
    """
    total = anonymous_count(h, n)
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"anonymous space for (h={h}, n={n}) holds {total} representatives, "
            f"over the budget of {budget}",
            total,
        )
    count = 0
    for columns in itertools.combinations_with_replacement(all_rankings(n), h):
        visitor(Profile(columns))
        count += 1
    return count


def sample_profile(h: int, n: int, seed: int, index: int) -> Profile:
    """The index-th seeded random profile; independent of worker layout."""
    rng = random.Random(f"{seed}:{index}")
    alts = list(range(1, n + 1))
    return Profile(tuple(Ranking(tuple(rng.sample(alts, n))) for _ in range(h)))


def sample_profiles(h: int, n: int, seed: int, count: int) -> Iterator[Profile]:
    for index in range(count):
        yield sample_profile(h, n, seed, index)


def resolve_workers(workers: int | None = None) -> int:
    """The argument, else VOTEBIAS_WORKERS, else 1, clamped to 1..os.cpu_count().

    Scans are CPU-bound, so processes beyond the core count only cost memory."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, min(workers, os.cpu_count() or 1))


# --- scan kernel -------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Per ranking, its upper-triangle 0/1 vector: its own tally with h = 1."""
    pairs = upper_pairs(n)
    vecs = []
    for q in all_rankings(n):
        beats = q.beats()
        vecs.append(tuple(beats[x * n + y] for x, y in pairs))
    return tuple(vecs)


@dataclass
class KernelReport:
    """Aggregate of one scan over (part of) the multiset tree.

    kramer_mismatches and the Condorcet counters stay 0 for Borda and Copeland.
    """

    h: int
    n: int
    examined: int = 0
    counts: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})
    firsts: dict = field(default_factory=lambda: {1: None, 2: None, 3: None})
    kramer_mismatches: int = 0
    condorcet_principle_violations: int = 0
    condorcet_loser_selections: int = 0


def _scan(
    h: int,
    n: int,
    want: tuple[int, ...] = (1, 2, 3),
    stop_early: bool = False,
    track_condorcet: bool = False,
    prefix: tuple[int, ...] = (),
    rule: str = "minimax",
) -> KernelReport:
    """Walk nondecreasing ranking-index tuples below a fixed prefix.

    The running upper-triangle tally u[k] counts, over chosen voters, how
    many rank pair k's smaller alternative above its larger one; each level
    adds its voter's vector into a fresh list, and each leaf hands the full
    tally to the rule's tally core.
    """
    vecs = _pair_tables(n)
    K = len(vecs)
    report = KernelReport(h=h, n=n)
    counts = report.counts
    firsts = report.firsts
    u = [0] * len(vecs[0])
    for r in prefix:
        u = list(map(add, u, vecs[r]))
    if len(prefix) >= h:
        raise ValueError("prefix must leave at least one voter to choose")
    hunting = set(want)
    stack: list[int] = []
    rng_n = range(n)
    cw_bound = h - (h // 2 + 1)
    minimax = rule == "minimax"
    core = TALLY_RULES[rule]

    def leaf(tally: list[int], last: int) -> bool:
        report.examined += 1
        if minimax:
            wd, wdr, mu_p, mu_pr = minimax_defeats(tally, h, n)
            sel = [x for x in rng_n if wd[x] < mu_p]
            m1 = min(wd)
            if sel != [x for x in rng_n if wd[x] == m1]:
                report.kramer_mismatches += 1
            selr_size = 0
            meets = False
            for x in rng_n:
                if wdr[x] < mu_pr:
                    selr_size += 1
                    if wd[x] < mu_p:
                        meets = True
            if track_condorcet:
                winner = loser = -1
                for x in rng_n:
                    if wd[x] <= cw_bound:
                        winner = x
                    if wdr[x] <= cw_bound:
                        loser = x
                if winner >= 0 and (len(sel) != 1 or sel[0] != winner):
                    report.condorcet_principle_violations += 1
                if loser >= 0 and wd[loser] < mu_p:
                    report.condorcet_loser_selections += 1
        else:
            sel, selr, _, _ = core(tally, h, n)
            selr_size = len(selr)
            meets = not set(sel).isdisjoint(selr)
        if meets:
            ls = len(sel)
            fired = (False, ls == 1 and selr_size == 1, ls == 1, ls < n)
            for j in want:
                if fired[j]:
                    counts[j] += 1
                    if firsts[j] is None:
                        firsts[j] = (*prefix, *stack, last)
                        hunting.discard(j)
        return not stop_early or bool(hunting)

    def rec(depth: int, lo: int, u: list[int]) -> bool:
        if depth == h - 1:
            for r in range(lo, K):
                if not leaf(list(map(add, u, vecs[r])), r):
                    return False
            return True
        for r in range(lo, K):
            stack.append(r)
            keep = rec(depth + 1, r, list(map(add, u, vecs[r])))
            stack.pop()
            if not keep:
                return False
        return True

    rec(len(prefix), prefix[-1] if prefix else 0, u)
    return report


def _merge(h: int, n: int, want: tuple[int, ...], parts) -> KernelReport:
    """Sum reports over disjoint prefixes.

    Enumeration order is lexicographic on index tuples, so the least first hit
    is the earliest one."""
    merged = KernelReport(h=h, n=n)
    for part in parts:
        merged.examined += part.examined
        merged.kramer_mismatches += part.kramer_mismatches
        merged.condorcet_principle_violations += part.condorcet_principle_violations
        merged.condorcet_loser_selections += part.condorcet_loser_selections
        for j in want:
            merged.counts[j] += part.counts[j]
            first = part.firsts[j]
            if first is not None and (merged.firsts[j] is None or first < merged.firsts[j]):
                merged.firsts[j] = first
    return merged


def _scan_chunk(args: tuple) -> KernelReport:
    """Worker task: scan a set of two-level prefixes."""
    h, n, want, track_condorcet, rule, chunk = args
    parts = (
        _scan(h, n, want=want, track_condorcet=track_condorcet, prefix=pre, rule=rule)
        for pre in chunk
    )
    return _merge(h, n, want, parts)


def scan_minimax(
    h: int,
    n: int,
    want: tuple[int, ...] = (1, 2, 3),
    stop_early: bool = False,
    track_condorcet: bool = False,
    workers: int | None = None,
    neutral_cut: bool = False,
    rule: str = "minimax",
) -> KernelReport:
    """Scan the representative space for a rule's bias flags: the one kernel entry.

    With workers > 1 the two deepest prefix levels are striped across a
    process pool; parallel runs never stop early, so counts stay exact and
    the reported first witness is the one earliest in enumeration order.
    A visit count other than neutral_count/anonymous_count raises
    RuntimeError, unless the scan stopped early after finding every wanted type.
    """
    workers = resolve_workers(workers)
    K = len(_pair_tables(n))
    space = neutral_count(h, n) if neutral_cut else anonymous_count(h, n)
    base_prefix = (0,) if neutral_cut else ()
    if workers <= 1 or h - len(base_prefix) < 3 or space < 50_000:
        report = _scan(
            h,
            n,
            want=want,
            stop_early=stop_early,
            track_condorcet=track_condorcet,
            prefix=base_prefix,
            rule=rule,
        )
    else:
        prefixes = [(r1, r2) for r1 in base_prefix or range(K) for r2 in range(r1, K)]
        chunks = [prefixes[w::workers] for w in range(workers)]
        tasks = [(h, n, want, track_condorcet, rule, chunk) for chunk in chunks if chunk]
        with multiprocessing.Pool(processes=len(tasks)) as pool:
            report = _merge(h, n, want, pool.map(_scan_chunk, tasks))
    found_all = stop_early and all(report.firsts[j] is not None for j in want)
    if report.examined != space and not found_all:
        raise RuntimeError(f"scan visited {report.examined} of {space} representatives")
    return report


def profile_from_indices(n: int, indices: tuple[int, ...]) -> Profile:
    rankings = all_rankings(n)
    return Profile(tuple(rankings[i] for i in indices))


# --- find_witness ----------------------------------------------------------


def find_witness(
    h: int,
    n: int,
    j: int,
    rule: str = "minimax",
    strategy: SearchStrategy | None = None,
    workers: int | None = None,
) -> SearchResult:
    """Search for a type-j reversal-bias witness for a rule at (h, n).

    Exhaustive mode certifies immunity when the whole representative space
    is swept without a hit; a space larger than the budget yields an
    inconclusive result, never a silent truncation.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {sorted(RULES)}")
    strategy = strategy or SearchStrategy()
    if strategy.mode == "exhaustive":
        return _find_exhaustive(h, n, j, rule, strategy, workers)
    if strategy.mode == "sampled":
        return _find_sampled(h, n, j, rule, strategy)
    return _find_constructive(h, n, j, rule)


def _find_exhaustive(
    h: int, n: int, j: int, rule: str, strategy: SearchStrategy, workers: int | None
) -> SearchResult:
    budget = strategy.effective_budget
    cut = strategy.neutral_cut
    space = neutral_count(h, n) if cut else anonymous_count(h, n)
    note = "neutrality cut over multisets containing the identity ranking" if cut else ""
    if space > budget:
        return SearchResult(
            h=h, n=n, j=j, rule=rule, method="exhaustive",
            outcome=OUTCOME_INCONCLUSIVE, examined=0, space=space,
            note=f"space holds {space} representatives, over budget {budget}",
        )
    report = scan_minimax(
        h, n, want=(j,), stop_early=True, workers=workers, neutral_cut=cut, rule=rule
    )
    if report.kramer_mismatches:
        raise RuntimeError(
            f"direct and threshold minimax disagree on {report.kramer_mismatches} profiles"
        )
    witness = None
    if report.firsts[j] is not None:
        profile = profile_from_indices(n, report.firsts[j])
        witness = certify_witness(profile, j, rule, method="exhaustive")
    return SearchResult(
        h=h, n=n, j=j, rule=rule, method="exhaustive",
        outcome=OUTCOME_WITNESS if witness else OUTCOME_IMMUNE,
        examined=report.examined, space=space, witness=witness, note=note,
    )


def _find_sampled(h: int, n: int, j: int, rule: str, strategy: SearchStrategy) -> SearchResult:
    budget = strategy.effective_budget
    for index in range(budget):
        profile = sample_profile(h, n, strategy.seed, index)
        report = audit_profile(profile, rules=(rule,))[0]
        if (report.type1, report.type2, report.type3)[j - 1]:
            witness = certify_witness(
                profile, j, rule, method="sampled", seed=strategy.seed
            )
            return SearchResult(
                h=h, n=n, j=j, rule=rule, method="sampled",
                outcome=OUTCOME_WITNESS, examined=index + 1, witness=witness,
                seed=strategy.seed,
            )
    return SearchResult(
        h=h, n=n, j=j, rule=rule, method="sampled",
        outcome=OUTCOME_INCONCLUSIVE, examined=budget, seed=strategy.seed,
        note=f"no witness in {budget} samples; sampling cannot certify immunity",
    )


def _find_constructive(h: int, n: int, j: int, rule: str) -> SearchResult:
    from .construct import constructive_witness  # deferred: construct imports Witness

    if rule != "minimax":
        return SearchResult(
            h=h, n=n, j=j, rule=rule, method="constructive",
            outcome=OUTCOME_INCONCLUSIVE, examined=0,
            note=f"no constructive recipe for rule {rule!r}",
        )
    witness = constructive_witness(h, n, j)
    if witness is None:
        return SearchResult(
            h=h, n=n, j=j, rule=rule, method="constructive",
            outcome=OUTCOME_INCONCLUSIVE, examined=0,
            note="no constructive recipe applies at this (h, n)",
        )
    return SearchResult(
        h=h, n=n, j=j, rule=rule, method="constructive",
        outcome=OUTCOME_WITNESS, examined=1, witness=witness,
    )
