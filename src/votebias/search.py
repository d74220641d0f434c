"""Search for reversal-bias witnesses and exhaustive immunity certificates.

All three rules under study are anonymous, so exhaustive runs enumerate one
representative per multiset of rankings (nondecreasing index tuples under the
lexicographic order on order vectors).  For existence/absence queries the
rules are also neutral, which allows an optional further cut: only multisets
containing the identity ranking need to be visited.  The cut is never used
for counting.

Exhaustive scans for every rule go through one entry, ``scan_minimax``,
which checks its visit count against the closed form; ``search_exhaustive``
alone decides which scan a cell gets, for ``find_witness`` and ``verify``,
and ``compare`` scans with a pair of rules for the first multiset on which
their selections differ.
The kernel keeps a running upper-triangle tally while walking the multiset
tree and evaluates each leaf through the tally-level core in ``rules``.
Sampled searches (``search_sampled``, and ``compare`` through ``scan_samples``)
judge each seeded sample's tally by the same leaf verdict.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, lt
from typing import Callable, Iterator

from .bias import bias_flags
from .graphs import profile_threshold
from .prefs import Profile, Ranking, _ranking, serialize_profile
from .rules import RULES, TALLY_RULES, minimax_defeats, minimax_thresholds, upper_pairs

DEFAULT_EXHAUSTIVE_BUDGET = 5_000_000
DEFAULT_SAMPLE_BUDGET = 100_000
DEFAULT_SEED = 271828
WORKERS_ENV = "VOTEBIAS_WORKERS"
# Space sizes such as C(n! + h - 1, h) and n!^h go into notes and reports; at
# (200, 20) they have at most 3,678 digits, inside Python's 4,300-digit
# int-to-str limit, and no witness recipe builds more than 200 voters.
MAX_H, MAX_N = 200, 20

OUTCOME_WITNESS = "witness-found"
OUTCOME_IMMUNE = "certified-immune"
OUTCOME_INCONCLUSIVE = "inconclusive"


class CertificationError(RuntimeError):
    """A claimed witness failed its re-audit."""


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
    """Outcome of one search for one bias type: three-valued, never a silent None.

    space is anonymous_count(h, n) in every mode, also under the neutrality
    cut.  hits is the exact number of biased representatives, set only by an
    exhaustive scan that did not stop early; mismatches counts the profiles on
    which the two minimax routes disagreed, among those an exhaustive scan
    visited or a sampled search drew.
    """

    h: int
    n: int
    j: int
    rule: str
    method: str
    outcome: str
    examined: int
    space: int
    witness: Witness | None = None
    seed: int | None = None
    note: str = ""
    hits: int | None = None
    mismatches: int = 0


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


def enumerate_anonymous(h: int, n: int, visitor: Callable[[Profile], None]) -> int:
    """Visit one representative profile per multiset, in lexicographic order.

    Returns the number of representatives visited.
    """
    count = 0
    for columns in itertools.combinations_with_replacement(all_rankings(n), h):
        visitor(Profile(columns))
        count += 1
    return count


def _draw_orders(h: int, n: int, seed: int, index: int) -> list[tuple[int, ...]]:
    """The h orders of the index-th seeded sample: what h calls of
    rng.sample(range(1, n + 1), n) on random.Random(f"{seed}:{index}") return,
    replayed on the generator's getrandbits.

    Soundness: asked for all n of n values, Random.sample takes its pool
    branch, since n is at most its setsize (21 for n <= 5, and
    21 + 4^ceil(log4 3n) > n above).
    That branch draws j = _randbelow(m) for m = n, n - 1, ..., 1, takes
    pool[j] and moves pool[m - 1] into its place; _randbelow is
    _randbelow_with_getrandbits, which draws getrandbits(m.bit_length())
    until the value is below m.  The loop below does the same, the m = 1
    step included: it always yields 0 but consumes generator words that
    later voters would otherwise get.  Both facts are CPython internals;
    tests/data/sampled_stream.json, test_sample_profile_keeps_its_definition
    and test_draw_orders_replay_rng_sample guard them.
    """
    bits = random.Random(f"{seed}:{index}").getrandbits
    steps = [(m, m.bit_length()) for m in range(n, 0, -1)]
    orders = []
    for _ in range(h):
        pool = list(range(1, n + 1))
        order = []
        for m, k in steps:
            r = bits(k)
            while r >= m:
                r = bits(k)
            order.append(pool[r])
            pool[r] = pool[m - 1]
        orders.append(tuple(order))
    return orders


def sample_profile(h: int, n: int, seed: int, index: int) -> Profile:
    """The index-th seeded random profile; independent of worker layout."""
    return Profile(tuple(map(_ranking, _draw_orders(h, n, seed, index))))


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

# The kernel holds one upper-triangle vector per ranking; 10! of them would
# take several GB, so larger n never reaches it.
MAX_SCAN_RANKINGS = math.factorial(9)
# Entries each verdict cache of a scan holds before it starts afresh: about
# 80 MB at the 76 bytes per entry measured at (4,5).  No cell within the
# default budget has that many; a plain scan of (5,5) does.
VERDICT_CACHE_LIMIT = 1 << 20

# Bit 0 of a leaf verdict is the dual-route mismatch; bit j (1..3) the type-j flag.
_MISMATCH = 1


def table_refusal(n: int) -> str:
    """Why the scan kernel refuses n alternatives, or "" when its ranking table fits."""
    size = math.factorial(n)
    if size <= MAX_SCAN_RANKINGS:
        return ""
    return f"ranking table holds {size} rankings, over the limit of {MAX_SCAN_RANKINGS}"


def _upper_row(order: tuple[int, ...]) -> bytes:
    """An order's upper-triangle 0/1 vector, its own tally with h = 1: entry k
    is 1 iff it ranks pair k's smaller alternative first (combinations of the
    places come in upper_pairs order).  The alternatives may be 0..n-1 or 1..n."""
    places = sorted(range(len(order)), key=order.__getitem__)
    return bytes(itertools.starmap(lt, itertools.combinations(places, 2)))


# Sized for all 8! orders, the most a default verify cell samples; larger n misses.
_order_row = lru_cache(maxsize=math.factorial(8))(_upper_row)


def _linear_rows(n: int, weights: list[int]) -> Iterator[int]:
    """Per ranking, in all_rankings order, the sum of weights[k] over the pairs
    k its _upper_row sets.

    A ranking of a set S that starts with f puts f above the rest of S, so its
    sum is f's share, the weights of the pairs (f, z) with z in S and z > f,
    plus the sum of its tail as a ranking of S without f; taking f in
    increasing order keeps the lexicographic order.  The rows of the subsets
    are built once each, size by size, holding two sizes at a time; the n
    subsets of n - 1, each read once, and the top level stream.
    """
    weight = [[0] * n for _ in range(n)]
    for (x, y), w in zip(upper_pairs(n), weights):
        weight[x][y] = w
    chain = itertools.chain.from_iterable

    def blocks(alts: tuple[int, ...], tail: Callable) -> Iterator[Iterator[int]]:
        for i, f in enumerate(alts):
            share = sum(map(weight[f].__getitem__, alts[i + 1:]))
            yield map(share.__add__, tail(alts[:i] + alts[i + 1:]))

    rows = {(): [0]}
    for size in range(1, n - 1):
        rows = {
            alts: list(chain(blocks(alts, rows.__getitem__)))
            for alts in itertools.combinations(range(n), size)
        }
    return chain(blocks(tuple(range(n)), lambda rest: chain(blocks(rest, rows.__getitem__))))


@lru_cache(maxsize=None)
def _pair_tables(n: int) -> tuple[bytes, ...]:
    """Per ranking, in all_rankings order, its _upper_row: byte k is weight 256**k."""
    size = n * (n - 1) // 2
    rows = _linear_rows(n, [256**k for k in range(size)])
    return tuple(map(int.to_bytes, rows, itertools.repeat(size), itertools.repeat("little")))


@lru_cache(maxsize=None)
def _packed_rows(n: int, h: int) -> tuple[int, ...]:
    """Per ranking, its vector as one integer: digit k is its u[k] in base h + 1."""
    return tuple(_linear_rows(n, [(h + 1) ** k for k in range(n * (n - 1) // 2)]))


@lru_cache(maxsize=None)
def _mask_table(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int, int]:
    """Tight-rival mask layout: (rows, pair bits, LOW, GUARD).

    2n blocks of n + 1 bits: block x for x's defeats, n + x for its victories;
    bit y is rival y, bit n the guard.  rows[r] is M_r: block x holds the
    rivals ranking r puts above x, block n + x those below.  Pair (x, y) has
    bits (x, y, d_xy, d_yx, v_xy, v_yx): d_xy is y in block x, v_xy y in n + x.
    """
    width = n + 1
    bits = tuple(
        (x, y, 1 << x * width + y, 1 << y * width + x,
         1 << (n + x) * width + y, 1 << (n + y) * width + x)
        for x, y in upper_pairs(n)
    )
    # vec[k] = 0: y above x, so d_xy and v_yx; vec[k] = 1 flips them to d_yx and v_xy.
    base = sum(d_xy | v_yx for _, _, d_xy, _, _, v_yx in bits)
    flips = [(d_yx | v_xy) - (d_xy | v_yx) for _, _, d_xy, d_yx, v_xy, v_yx in bits]
    rows = tuple(map(base.__add__, _linear_rows(n, flips)))
    blocks = [b * width for b in range(2 * n)]
    return rows, bits, sum(((1 << n) - 1) << s for s in blocks), sum(1 << s + n for s in blocks)


@dataclass
class KernelReport:
    """Aggregate of one scan over (part of) the multiset tree.

    kramer_mismatches stays 0 for Borda and Copeland.
    """

    examined: int = 0
    counts: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})
    firsts: dict = field(default_factory=lambda: {1: None, 2: None, 3: None})
    kramer_mismatches: int = 0


def _type_bits(ls: int, lsr: int, meets: bool, n: int) -> int:
    """Type-flag bits from the selection sizes on p and its reversal and whether they meet."""
    return (ls == 1 and lsr == 1) << 1 | (ls == 1) << 2 | (ls < n) << 3 if meets else 0


def _minimax_bits(wd: list[int], wdr: list[int], h: int, n: int) -> int:
    """A minimax leaf's verdict bits from its worst defeats on p and on its
    reversal: the type flags and the dual-route mismatch.

    The mismatch bit is 0 on every u in [0,h]^(n(n-1)/2), so it is a
    cross-check of this code, never a fact about a profile.  Let m1 = min(wd)
    and mu0 = h // 2 + 1.  If m1 >= mu0, the threshold is m1 + 1 and its
    selection is the argmin set by definition.  Otherwise the threshold is
    mu0, which keeps every argmin x; suppose it also keeps some y with
    m1 < wd[y] < mu0.  Then wd[x] + wd[y] < 2 * (h // 2) <= h.  But wd[x] is at
    least y's tally over x and wd[y] at least x's tally over y, and those two
    sum to h: a contradiction.  The same holds for wdr on the transposed tally.
    """
    rng_n = range(n)
    mu_p, mu_pr = minimax_thresholds(wd, wdr, h)
    sel = [x for x in rng_n if wd[x] < mu_p]
    m1 = min(wd)
    bits = _MISMATCH if sel != [x for x in rng_n if wd[x] == m1] else 0
    selr = [x for x in rng_n if wdr[x] < mu_pr]
    return bits | _type_bits(len(sel), len(selr), any(wd[x] < mu_p for x in selr), n)


def _leaf_verdict(tally: list[int], h: int, n: int, rule) -> int:
    """One leaf's verdict bits from its tally: _minimax_bits for minimax; for a
    pair of rules, bit 1 alone, set when their selections differ."""
    if rule == "minimax":
        wd, wdr, _, _ = minimax_defeats(tally, h, n)
        return _minimax_bits(wd, wdr, h, n)
    if isinstance(rule, tuple):
        first, second = rule
        return (TALLY_RULES[first](tally, h, n)[0] != TALLY_RULES[second](tally, h, n)[0]) << 1
    sel, selr, _, _ = TALLY_RULES[rule](tally, h, n)
    return _type_bits(len(sel), len(selr), not set(sel).isdisjoint(selr), n)


def _tight_verdicts(u: list[int], h: int, n: int, shared: dict) -> Callable[[int], int]:
    """Minimax verdict of parent tally u (h - 1 voters) plus ranking r, per r.

    See _scan for the lemma.  T holds y in block x when y's defeat of x is
    wd[x], in block n + x when x's victory over y is wdr[x].  Block b's guard
    bit in ((M_r & T) + LOW) & GUARD is set iff block b of M_r & T is non-zero
    (no block carries: it holds at most 2^(n+1) - 2).  shared maps (wd, wdr)
    to a tag and tagged keys to verdicts, for one parent's leaves at a time.
    """
    rows, pair_bits, low, guard = _mask_table(n)
    wd, wdr, _, _ = minimax_defeats(u, h - 1, n)
    tight = 0
    for (x, y, d_xy, d_yx, v_xy, v_yx), a in zip(pair_bits, u):
        b = h - 1 - a
        tight |= (b == wd[x]) * d_xy | (a == wd[y]) * d_yx
        tight |= (a == wdr[x]) * v_xy | (b == wdr[y]) * v_yx
    if len(shared) >= VERDICT_CACHE_LIMIT:
        shared.clear()
    # len(shared) grows with every entry, so no two defeat pairs get one tag.
    tag = shared.setdefault((*wd, *wdr), len(shared) << 2 * n * (n + 1))
    get = shared.get

    def verdict(r: int) -> int:
        key = tag | ((rows[r] & tight) + low) & guard
        bits = get(key)
        if bits is None:
            rises = [key >> s & 1 for s in range(n, 2 * n * (n + 1), n + 1)]
            bits = shared[key] = _minimax_bits(
                list(map(add, wd, rises[:n])), list(map(add, wdr, rises[n:])), h, n
            )
        return bits

    return verdict


def _scan(
    h: int,
    n: int,
    want: tuple[int, ...] = (1, 2, 3),
    stop_early: bool = False,
    prefixes: tuple[tuple[int, ...], ...] = ((),),
    rule: str | tuple[str, str] = "minimax",
) -> KernelReport:
    """Walk nondecreasing ranking-index tuples below each prefix, in order.

    The running upper-triangle tally u[k] counts, over chosen voters, how
    many rank pair k's smaller alternative above its larger one; each
    internal level adds its voter's vector into a fresh list and its packed
    row into the packed tally.  A leaf costs one int add and one lookup in a
    verdict cache keyed by the packed tally.  On a miss, minimax asks the
    parent's _tight_verdicts (built on the parent's first miss); other rules
    run _leaf_verdict.

    Soundness of the cache: _leaf_verdict reads the tally u, h, n and rule
    and nothing else (no ranking index), and all but u are fixed for one
    call, so leaves with equal u have equal verdicts.  The key
    determines u: digit k of a packed row is that ranking's u[k] (0 or 1) in
    base h + 1, and a leaf's key is the sum of the rows of its h voters, so
    every digit of the sum is at most h < h + 1, no digit carries, and the
    key's base-(h + 1) digits are exactly u.  Verdicts are still applied leaf
    by leaf, so examined, counts, firsts and kramer_mismatches stay exact per
    profile.  The caches live for this call only.

    The tight-rival lemma: a leaf's tally is its parent's (h - 1 voters) plus
    the last voter r's 0/1 vector.  So x's worst defeat is the parent's wd[x]
    plus one iff r ranks above x a rival y tight for x (y's defeat of x is
    wd[x]; any other rival's stays below wd[x] + 1), else wd[x]; x's greatest
    victory is wdr[x] plus one iff r ranks below x a rival tight for it.
    Soundness of the per-parent key: _minimax_bits reads the leaf's worst
    defeats and victories, h and n; by the lemma these are the parent's
    wd/wdr, h, n and the two rise masks, all but the masks fixed for one
    parent (or one (wd, wdr) pair), and the key's guard bits are the masks,
    so equal keys have equal verdicts.
    """
    vecs = _pair_tables(n)
    packed = _packed_rows(n, h)
    K = len(vecs)
    report = KernelReport()
    counts = report.counts
    firsts = report.firsts
    hunting = set(want)
    verdicts: dict[int, int] = {}
    get = verdicts.get
    shared: dict = {}
    stack: list[int] = []

    def hit(bits: int, last: int) -> bool:
        """Apply a non-zero verdict; False once a stop-early scan has all it wants."""
        if bits & _MISMATCH:
            report.kramer_mismatches += 1
        for j in want:
            if bits >> j & 1:
                counts[j] += 1
                if firsts[j] is None:
                    firsts[j] = (*stack, last)
                    hunting.discard(j)
        return not stop_early or bool(hunting)

    def rec(depth: int, lo: int, u: list[int], key: int) -> bool:
        if depth == h - 1:
            below = None
            for r in range(lo, K):
                leaf = key + packed[r]
                bits = get(leaf)
                if bits is None:
                    if len(verdicts) >= VERDICT_CACHE_LIMIT:
                        verdicts.clear()
                    if rule != "minimax":
                        tally = list(map(add, u, vecs[r]))
                        bits = _leaf_verdict(tally, h, n, rule)
                    else:
                        below = below or _tight_verdicts(u, h, n, shared)
                        bits = below(r)
                    verdicts[leaf] = bits
                if bits and not hit(bits, r):
                    report.examined += r - lo + 1
                    return False
            report.examined += K - lo
            return True
        for r in range(lo, K):
            stack.append(r)
            keep = rec(depth + 1, r, list(map(add, u, vecs[r])), key + packed[r])
            stack.pop()
            if not keep:
                return False
        return True

    for prefix in prefixes:
        if len(prefix) >= h:
            raise ValueError("prefix must leave at least one voter to choose")
        stack[:] = prefix
        u = [0] * len(vecs[0])
        for r in prefix:
            u = list(map(add, u, vecs[r]))
        if not rec(len(prefix), prefix[-1] if prefix else 0, u, sum(packed[r] for r in prefix)):
            break
    return report


def _merge(want: tuple[int, ...], parts) -> KernelReport:
    """Sum reports over disjoint prefixes.

    Enumeration order is lexicographic on index tuples, so the least first hit
    is the earliest one."""
    merged = KernelReport()
    for part in parts:
        merged.examined += part.examined
        merged.kramer_mismatches += part.kramer_mismatches
        for j in want:
            merged.counts[j] += part.counts[j]
            first = part.firsts[j]
            if first is not None and (merged.firsts[j] is None or first < merged.firsts[j]):
                merged.firsts[j] = first
    return merged


def scan_minimax(
    h: int,
    n: int,
    want: tuple[int, ...] = (1, 2, 3),
    stop_early: bool = False,
    workers: int | None = None,
    neutral_cut: bool = False,
    rule: str | tuple[str, str] = "minimax",
) -> KernelReport:
    """Scan the representative space for a rule's bias flags: the one kernel entry.

    A rule given as a pair of TALLY_RULES names counts, as type 1, the
    representatives on which their selections differ.  With workers > 1 the
    two deepest prefix levels are striped across a process pool, one _scan
    (and one verdict cache) per worker; parallel runs never stop early, so
    counts stay exact and the reported first witness is the one earliest in
    enumeration order.  A visit count other than neutral_count/anonymous_count
    raises RuntimeError, unless the scan stopped early after finding every
    wanted type; n past MAX_SCAN_RANKINGS rankings raises ValueError before any
    table is built.
    """
    refusal = table_refusal(n)
    if refusal:
        raise ValueError(refusal)
    workers = resolve_workers(workers)
    K = math.factorial(n)
    space = neutral_count(h, n) if neutral_cut else anonymous_count(h, n)
    base_prefix = (0,) if neutral_cut else ()
    if workers <= 1 or h - len(base_prefix) < 3 or space < 50_000:
        report = _scan(
            h, n, want=want, stop_early=stop_early, prefixes=(base_prefix,), rule=rule
        )
    else:
        prefixes = [(r1, r2) for r1 in base_prefix or range(K) for r2 in range(r1, K)]
        chunks = [prefixes[w::workers] for w in range(workers)]
        tasks = [(h, n, want, False, chunk, rule) for chunk in chunks if chunk]
        with multiprocessing.Pool(processes=len(tasks)) as pool:
            report = _merge(want, pool.starmap(_scan, tasks))
    found_all = stop_early and all(report.firsts[j] is not None for j in want)
    if report.examined != space and not found_all:
        raise RuntimeError(f"scan visited {report.examined} of {space} representatives")
    return report


def profile_from_indices(n: int, indices: tuple[int, ...]) -> Profile:
    """The profile whose voters are all_rankings(n)[i] for i in indices.

    Each order is unranked from its index in the factorial number system, so
    only these rankings are built, never the n! table; an index of n! or more
    raises IndexError."""
    columns = []
    for index in indices:
        alts = list(range(1, n + 1))
        order = []
        for k in range(n - 1, -1, -1):
            digit, index = divmod(index, math.factorial(k))
            order.append(alts.pop(digit))
        columns.append(Ranking(tuple(order)))
    return Profile(tuple(columns))


# --- witness search ----------------------------------------------------------


def _disagreement(mismatches: int) -> str:
    return f"direct and threshold minimax disagree on {mismatches} profiles"


def search_exhaustive(
    h: int,
    n: int,
    js: tuple[int, ...],
    rule: str = "minimax",
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
    workers: int | None = None,
    stop_early: bool = False,
) -> list[SearchResult]:
    """Exhaustive search for each bias type in js at (h, n): the one cell search.

    The scan is plain when anonymous_count fits the budget and under the
    neutrality cut when only neutral_count does; otherwise, or when the ranking
    table is refused, every result is inconclusive with examined=0.  One
    scan_minimax serves all of js and each first hit is re-certified.  Without
    stop_early the scan is complete, so hits are exact counts and examined does
    not depend on the worker count; with it hits is None.  A dual-route
    mismatch is counted in mismatches and named in the note, never raised here.
    A cell outside 2 <= h <= MAX_H, 2 <= n <= MAX_N raises ValueError.
    """
    if not (2 <= h <= MAX_H and 2 <= n <= MAX_N):
        raise ValueError(f"need 2 <= h <= {MAX_H} and 2 <= n <= {MAX_N}, got h={h}, n={n}")
    space = anonymous_count(h, n)
    cut_space = neutral_count(h, n)
    refusal = table_refusal(n)

    def result(j: int, **fields) -> SearchResult:
        return SearchResult(h=h, n=n, j=j, rule=rule, method="exhaustive", space=space, **fields)

    if refusal or cut_space > budget:
        note = (
            f"space holds {space} representatives "
            f"({cut_space} under the neutrality cut), over budget {budget}"
            if cut_space > budget else refusal
        )
        return [result(j, outcome=OUTCOME_INCONCLUSIVE, examined=0, note=note) for j in js]
    cut = space > budget
    report = scan_minimax(
        h, n, want=js, stop_early=stop_early, workers=workers, neutral_cut=cut, rule=rule
    )
    notes = [f"neutrality cut: {cut_space} representatives cover the space"] if cut else []
    if report.kramer_mismatches:
        notes.append(_disagreement(report.kramer_mismatches))
    results = []
    for j in js:
        witness = None
        if report.firsts[j] is not None:
            profile = profile_from_indices(n, report.firsts[j])
            witness = certify_witness(profile, j, rule, method="exhaustive")
        results.append(result(
            j, outcome=OUTCOME_WITNESS if witness else OUTCOME_IMMUNE,
            examined=report.examined, witness=witness, note="; ".join(notes),
            hits=None if stop_early else report.counts[j],
            mismatches=report.kramer_mismatches,
        ))
    return results


def sample_tally(h: int, n: int, seed: int, index: int) -> list[int]:
    """upper_tally(sample_profile(h, n, seed, index)), summed from cached per-order rows."""
    return list(map(sum, zip(*map(_order_row, _draw_orders(h, n, seed, index)))))


def scan_samples(
    h: int, n: int, bit: int, rule, budget: int, seed: int
) -> tuple[int, Profile | None, int]:
    """Judge samples 0, 1, ... by _leaf_verdict on their sample_tally until one
    sets bit, at most budget: (examined, the hit's sample_profile or None, the
    examined samples with the dual-route mismatch bit).  Only a hit becomes a
    Profile."""
    mismatches = 0
    for index in range(budget):
        bits = _leaf_verdict(sample_tally(h, n, seed, index), h, n, rule)
        mismatches += bits & _MISMATCH
        if bits >> bit & 1:
            return index + 1, sample_profile(h, n, seed, index), mismatches
    return budget, None, mismatches


def search_sampled(h: int, n: int, j: int, rule: str, budget: int, seed: int) -> SearchResult:
    """Sampled search for bias type j at (h, n), for verify and find_witness:
    scan_samples, then certify_witness on a hit.  A miss is inconclusive; a
    dual-route mismatch is counted and named in the note, never raised here."""
    examined, profile, mismatches = scan_samples(h, n, j, rule, budget, seed)
    witness = certify_witness(profile, j, rule, "sampled", seed) if profile else None
    notes = [] if witness else [f"no witness in {budget} samples; sampling cannot certify immunity"]
    if mismatches:
        notes.append(_disagreement(mismatches))
    return SearchResult(
        h=h, n=n, j=j, rule=rule, method="sampled",
        outcome=OUTCOME_WITNESS if witness else OUTCOME_INCONCLUSIVE,
        examined=examined, space=anonymous_count(h, n), witness=witness, seed=seed,
        note="; ".join(notes), mismatches=mismatches,
    )


def find_witness(
    h: int,
    n: int,
    j: int,
    rule: str = "minimax",
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> SearchResult:
    """Search for a type-j reversal-bias witness for a rule at (h, n).

    budget bounds the representatives examined (mode "exhaustive") or the
    samples drawn (mode "sampled"); None means DEFAULT_EXHAUSTIVE_BUDGET or
    DEFAULT_SAMPLE_BUDGET.  Exhaustive mode is search_exhaustive for j alone,
    stopping at the first hit: it certifies immunity when the whole space (or
    the neutrality cut) is swept without a hit, yields an inconclusive result
    for a space larger than the budget, never a silent truncation, and raises
    ValueError past MAX_H or MAX_N.  Sampled mode is search_sampled.  Both
    raise RuntimeError when the two minimax routes disagreed.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {sorted(RULES)}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown search mode {mode!r}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if mode == "exhaustive":
        budget = DEFAULT_EXHAUSTIVE_BUDGET if budget is None else budget
        (result,) = search_exhaustive(h, n, (j,), rule, budget, workers, stop_early=True)
    else:
        budget = DEFAULT_SAMPLE_BUDGET if budget is None else budget
        result = search_sampled(h, n, j, rule, budget, seed)
    if result.mismatches:
        raise RuntimeError(_disagreement(result.mismatches))
    return result
