"""Search for reversal-bias witnesses and exhaustive immunity certificates.

All three rules under study are anonymous, so exhaustive runs enumerate one
representative per multiset of rankings (nondecreasing index tuples under the
lexicographic order on order vectors).  For existence/absence queries the
rules are also neutral, which allows an optional further cut: only multisets
containing the identity ranking need to be visited.  The cut is never used
for counting.

Exhaustive scans go through one entry, ``scan_minimax``, which checks its
visit count against the closed form.  It scans minimax for the bias types, or
a pair of rules for the multisets on which their selections differ; no score
rule is scanned alone (``rules.scored_tally`` says why).  ``search_exhaustive``
alone decides which minimax scan a cell gets, for ``find_witness`` and
``verify``, and ``compare`` scans with a pair for its first difference.
The kernel walks the parents of the leaves in two flat loops, heads and
last parent voters, with their upper-triangle tally packed in one integer;
it decides a minimax parent's leaves at once by bitsets over the last voter's
ranking, and judges each leaf of a pair through ``rules``' core.
Sampled searches (``search_sampled``, and ``compare`` through ``scan_samples``)
judge each seeded sample's tally by the same leaf verdict.  A sample is drawn
as one ranking code per voter, on one generator reseeded per sample; up to 8
alternatives the tally sums each code's row of the kernel's table in the
sampler's code order, built by the same block lemma, and larger n decode the
code.  Only a hit's profile is built, from its decoded orders.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import struct
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, itemgetter, lt, or_
from typing import Callable

from .bias import _mask_flags, bias_flags
from .graphs import profile_threshold
from .prefs import Profile, Ranking, _ranking, serialize_profile
from .rules import RULES, TALLY_RULES, _top, minimax_defeats, minimax_selections, upper_pairs

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
    _check_query(j, rule)
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
    """Outcome of one minimax search for one bias type: three-valued, never a silent None.

    space is anonymous_count(h, n) in every mode, also under the neutrality
    cut.  hits is the exact number of biased representatives, set only by an
    exhaustive scan that did not stop early; mismatches counts the profiles on
    which the two minimax routes disagreed, among those a sampled search drew
    (an exhaustive minimax scan decides by bitsets and counts none).
    """

    h: int
    n: int
    j: int
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
# Entries each leaf-verdict cache of a scan holds before it starts afresh:
# about 80 MB at the 76 bytes per entry measured at (4,5).  No cell within
# the default budget has that many; a plain scan of (5,5) does.
VERDICT_CACHE_LIMIT = 1 << 20
# Bits the minimax decider's parent memo and column caches hold before they
# start afresh, each entry charged its sets' lengths plus 2,048 bits for its
# key, container and dict slot: 32 MB.
PARENT_MEMO_BITS = 1 << 28

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
    places come in upper_pairs order).  The alternatives may be 0..n-1 or 1..n.
    Full tables of rows, in lexicographic or in code order, are _packed_rows,
    the transpose of _above_sets; single orders take this route where no
    table is built, in the sampler past TABLE_MAX_N."""
    places = sorted(range(len(order)), key=order.__getitem__)
    return bytes(itertools.starmap(lt, itertools.combinations(places, 2)))


@lru_cache(maxsize=None)
def _above_sets(n: int, code_order: bool = False) -> tuple[tuple[int, ...], ...]:
    """above[a][b] has bit r set iff ranking r puts alternative a over b
    (0-based; above[a][a] is 0).  Ranking r is all_rankings(n)[r] or, with
    code_order, the order that the sampler's code r draws (_code_drawer).

    The block lemma: block f, the B = (n - 1)! indices from f * B on, holds
    the rankings that start with f, and their tails come in the same order of
    the other n - 1 alternatives, z renumbered p(z).  In lexicographic order
    p(z) = z - (f < z).  In code order, block f's first draw takes pool[f] = f
    and random.sample moves the last pool entry, n - 1, into place f, so the
    tails draw from the pool 0..n-2 with n - 1 standing in place f: p(z) = f
    for z = n - 1, else z.  A ranking that starts with a puts a over b, one
    that starts with b does not, and any other puts a over b iff its tail
    does.  So block f of above[a][b] is all ones for f = a, empty for f = b,
    and otherwise the (n - 1)-set above[p(a)][p(b)] of the same order.  Each
    order recurses with one call shape, (n) or (n, code_order=True), so the
    cache holds one entry per (n, order)."""
    if n == 1:
        return ((0,),)
    if code_order:
        sub = _above_sets(n - 1, code_order=True)
        relabels = [[f if z == n - 1 else z for z in range(n)] for f in range(n)]
    else:
        sub = _above_sets(n - 1)
        relabels = [[z - (f < z) for z in range(n)] for f in range(n)]
    width = math.factorial(n - 1)
    ones = (1 << width) - 1
    above = [[0] * n for _ in range(n)]
    for a, b in itertools.permutations(range(n), 2):
        above[a][b] = sum(
            (ones if f == a else 0 if f == b else sub[p[a]][p[b]]) << f * width
            for f, p in enumerate(relabels)
        )
    return tuple(map(tuple, above))


@lru_cache(maxsize=None)
def _packed_rows(n: int, code_order: bool = False) -> tuple[int, ...]:
    """Per ranking, in the order of _above_sets(n, code_order), its _upper_row
    as one integer, byte k its u[k].

    The transpose of _above_sets: entry k of ranking r's _upper_row is 1 iff r
    puts pair k's smaller alternative x over the larger y, which is bit r of
    above[x][y].  So byte k of every row is laid down at once from that set's
    bits, lowest first, and the rows are cut from the table."""
    above = _above_sets(n, code_order=True) if code_order else _above_sets(n)
    size, K = n * (n - 1) // 2, math.factorial(n)
    table = bytearray(K * size)
    for k, (x, y) in enumerate(upper_pairs(n)):
        table[k::size] = f"{above[x][y]:0{K}b}"[::-1].encode()
    cut = struct.iter_unpack(f"{size}s", table.translate(bytes.maketrans(b"01", b"\0\1")))
    return tuple(map(int.from_bytes, map(itemgetter(0), cut), itertools.repeat("little")))


@dataclass
class KernelReport:
    """Aggregate of one scan over (part of) the multiset tree.

    kramer_mismatches stays 0 for a pair of rules, and for minimax unless
    its leaves are judged one by one (_leaf_decider).
    """

    examined: int = 0
    counts: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})
    firsts: dict = field(default_factory=lambda: {1: None, 2: None, 3: None})
    kramer_mismatches: int = 0


def _leaf_verdict(tally: list[int], h: int, n: int, rule) -> int:
    """One leaf's verdict bits from its tally.  For "minimax", bit j (1..3) is
    the type-j flag of _mask_flags on minimax_tally's masks and bit 0 the
    dual-route mismatch, set when the threshold selection is not the argmin
    of the worst defeats; for a pair of TALLY_RULES names, bit 1 alone, set
    when their masks on p differ.

    The mismatch bit is 0 on every u in [0,h]^(n(n-1)/2), so it is a
    cross-check of this code, never a fact about a profile.  Let m1 = min(wd)
    and mu0 = h // 2 + 1.  If m1 >= mu0, the threshold is m1 + 1 and its
    selection is the argmin set by definition.  Otherwise the threshold is
    mu0, which keeps every argmin x; suppose it also keeps some y with
    m1 < wd[y] < mu0.  Then wd[x] + wd[y] < 2 * (h // 2) <= h.  But wd[x] is at
    least y's tally over x and wd[y] at least x's tally over y, and those two
    sum to h: a contradiction.  The same holds for wdr on the transposed tally.
    """
    if rule == "minimax":
        wd, wdr, mu_p, mu_pr = minimax_defeats(tally, h, n)
        p, pr, _, _ = minimax_selections(wd, wdr, mu_p, mu_pr)
        t1, t2, t3 = _mask_flags(p, pr, n)
        return (_MISMATCH if p != _top(wd, min) else 0) | t1 << 1 | t2 << 2 | t3 << 3
    first, second = rule
    return (TALLY_RULES[first](tally, h, n)[0] != TALLY_RULES[second](tally, h, n)[0]) << 1


def _leaf_decider(h: int, n: int, rule) -> Callable[..., list[int]]:
    """Judge each leaf r >= lo by _leaf_verdict, through a verdict cache keyed
    by the leaf's packed tally: one int add and one lookup per leaf, up to
    the leaf by which every bit of until has been set.  Pairs of rules are
    scanned this way; minimax only by tests, as the reference
    _minimax_decider is held to.

    Soundness of the cache: _leaf_verdict reads the tally u, h, n and rule
    and nothing else (no ranking index), and all but u are fixed for one
    scan, so leaves with equal u have equal verdicts; the key's bytes are u
    (see _scan).  The cache lives for one scan.
    """
    packed, size = _packed_rows(n), n * (n - 1) // 2
    K = len(packed)
    verdicts: dict[int, int] = {}
    get = verdicts.get

    def decide(key: int, lo: int, until: int) -> list[int]:
        sets = [0, 0, 0, 0]
        for r in range(lo, K):
            leaf = key + packed[r]
            bits = get(leaf)
            if bits is None:
                if len(verdicts) >= VERDICT_CACHE_LIMIT:
                    verdicts.clear()
                tally = list(leaf.to_bytes(size, "little"))
                bits = verdicts[leaf] = _leaf_verdict(tally, h, n, rule)
            if bits:
                for j in range(4):
                    if bits >> j & 1:
                        sets[j] |= 1 << r
                if until:
                    until &= ~bits
                    if not until:
                        break
        return sets

    return decide


def _minimax_decider(h: int, n: int, want: tuple[int, ...]) -> Callable[..., list[int]]:
    """Decide all K last voters of a minimax parent at once, by K-bit sets.

    By the lemma in _scan, the leaf's worst defeats are wd + A(r) and its
    greatest victories wdr + B(r), wd and wdr the parent's: A[x] is the set
    of r that rank above x a rival tight for wd[x], B[x] of those that rank
    below x a rival tight for wdr[x].  The column lemma: x's column of the
    parent tally t, (t[y][x], y != x), fixes all four: wd[x] is its max,
    wdr[x] h - 1 less its min (t[x][y] = h - 1 - t[y][x]), A[x] ORs
    above[y][x] over the y at the max and B[x] above[x][y] over the y at the
    min.  So they are cached per x by the column, read off the key's bytes u
    (t[y][x], y < x) and their complement h - 1 - u (y > x; no byte
    borrows).  The diagonal t[x][x] = 0 stays out, as it would pull the min
    down; at the max it could tie only an all-zero column, where
    above[x][x] = 0 adds no bit.

    Minimax selects the argmin of the worst defeats (_leaf_verdict's mismatch
    argument), on p and on the reversal.  For W = w + R, R[x] a 0/1 function
    of r, and d = w[y] - w[x], x is in argmin W iff R[x] - R[y] <= d for every
    y != x: d >= 1 always holds, d = 0 needs not (R[x] and not R[y]), d = -1
    needs not R[x] and R[y], and d <= -2 never holds.  x is the unique argmin
    iff R[x] - R[y] < d: the same conditions, shifted by one.  So with
    m = min w only w - m clipped to 2 matters, and a plan, worked out once
    per distinct w and kept by w, lists the x at m and at m + 1.  x at m + 1
    is in where not R[x] and R[y] for every y at m; x at m is in where not
    R[x] or R[y] for the other y at m, and unique where not R[x] and R[y] for
    them or, alone at m, where not R[x] or R[y] for every y at m + 1; each
    condition left out follows from these.  The flags that _mask_flags, the
    types' one definition, sets on those selections are then: type 1, the
    union over x of uniq(wd, A, x) and uniq(wdr, B, x), since selections of
    one alternative meet only in it; type 2, of uniq(wd, A, x) and
    in(wdr, B, x); type 3, of in(wd, A, x) and in(wdr, B, x), less the set
    where every x is in argmin(wd + A), a selection of all n.  Bit 0 and the
    unwanted types are 0.

    The sets depend on u alone (h, n and want are fixed for a scan), so
    decide.memo keeps them by the packed tally, whose bytes are u (_scan);
    it, decide.columns and decide.plans charge each entry its sets' bit
    lengths (none for a plan) plus 2,048 bits to one count, and start afresh
    together past PARENT_MEMO_BITS.
    """
    above = _above_sets(n)
    full = (1 << math.factorial(n)) - 1
    size = n * (n - 1) // 2
    at = upper_pairs(n).index
    getters = [itemgetter(*[at((y, x)) if y < x else size + at((x, y)) for y in range(n) if y != x])
               for x in range(n)]
    top = (h - 1) * int.from_bytes(b"\x01" * size, "little")
    clip = (0, 1) + (2,) * h
    memo: dict[int, list[int]] = {}
    columns: list[dict] = [{} for _ in range(n)]
    plans: dict[tuple[int, ...], tuple] = {}
    held = 0

    def column_facts(x: int, column) -> tuple[int, int, int, int]:
        """(wd[x], A[x], wdr[x], B[x]) from x's column, cached and charged."""
        nonlocal held
        values = column if n > 2 else (column,)  # n = 2: a one-index getter reads a byte
        most, least = max(values), min(values)
        rivals = [y for y in range(n) if y != x]
        rise = reduce(or_, [above[y][x] for y, t in zip(rivals, values) if t == most])
        riser = reduce(or_, [above[x][y] for y, t in zip(rivals, values) if t == least])
        held += rise.bit_length() + riser.bit_length() + 2048
        columns[x][column] = facts = most, rise, h - 1 - least, riser
        return facts

    def argmin_sets(w, rises) -> tuple[list[int], list[int]]:
        """Per x, the sets of r where x is in argmin(w + rises(r)), and where it is alone there."""
        nonlocal held
        found = plans.get(w)
        if found is None:
            m = min(w)
            pattern = tuple(map(clip.__getitem__, map(m.__rsub__, w)))
            tied = [x for x in range(n) if pattern[x] == 0]
            others = [(x, [y for y in tied if y != x]) for x in tied]
            found = plans[w] = tied, [x for x in range(n) if pattern[x] == 1], others
            held += 2048
        tied, near, others = found
        get = rises.__getitem__
        inside, unique = [0] * n, [0] * n
        if len(tied) == 1:
            (x,) = tied
            both = rises[x]
            inside[x], unique[x] = full, (full ^ both) | reduce(and_, map(get, near), full)
        else:
            both = reduce(and_, map(get, tied))
            for x, rest in others:
                flat, shared = full ^ rises[x], reduce(and_, map(get, rest))
                inside[x], unique[x] = flat | shared, flat & shared
        for y in near:
            inside[y] = both & ~rises[y]
        return inside, unique

    def decide(key: int, lo: int, until: int) -> list[int]:
        nonlocal held
        sets = memo.get(key)
        if sets is None:
            tally = key.to_bytes(size, "little") + (top - key).to_bytes(size, "little")
            cols = [get(tally) for get in getters]
            facts = list(map(dict.get, columns, cols))
            if None in facts:
                facts = [f or column_facts(x, c) for x, (f, c) in enumerate(zip(facts, cols))]
            wd, rise, wdr, riser = zip(*facts)
            inside, unique = argmin_sets(wd, rise)
            insider, uniquer = argmin_sets(wdr, riser)
            sets = memo[key] = [0, 0, 0, 0]
            if 1 in want:
                sets[1] = reduce(or_, map(and_, unique, uniquer))
            if 2 in want:
                sets[2] = reduce(or_, map(and_, unique, insider))
            if 3 in want:
                sets[3] = reduce(or_, map(and_, inside, insider)) & ~reduce(and_, inside)
            held += sum(map(int.bit_length, sets)) + 2048
            if held > PARENT_MEMO_BITS:
                for cache in (memo, plans, *columns):
                    cache.clear()
                held = 0
        return sets

    decide.memo, decide.columns, decide.plans = memo, columns, plans  # type: ignore[attr-defined]
    return decide


def _scan(
    h: int,
    n: int,
    want: tuple[int, ...] = (1, 2, 3),
    stop_early: bool = False,
    neutral_cut: bool = False,
    stripe: tuple[int, int] = (0, 1),
    rule: str | tuple[str, str] = "minimax",
) -> KernelReport:
    """Decide each parent, h - 1 voters by nondecreasing ranking index, in
    enumeration order: a head, its voters but the last (under the cut, the
    identity, index 0, first), then each last voter v from the head's last up.

    Each voter adds its packed row, the ranking's upper-triangle 0/1 vector
    with one byte per pair, into the key: the head's once per head, v's once
    per parent.  At most MAX_H < 256 voters add into one byte, so no byte
    carries and a key's bytes are the tally u of its voters: u[k] of them
    rank pair k's smaller alternative first.  The rule's decider,
    decide(key, lo, until), returns per verdict bit j (0, the dual-route
    mismatch, or the type j) the set of last voters r (bit r) whose leaf,
    the parent plus ranking r, sets bit j.  Minimax decides all K at once by
    bitsets (_minimax_decider); a pair of rules judges leaf by leaf
    (_leaf_decider).  The parent's leaves are r = lo..K-1, lo = v, in
    enumeration order, so the walker reads each set from bit lo up: its
    popcount is the parent's count of that bit, its lowest set bit the
    parent's first hit, and examined grows by K - lo.  A stop-early scan
    ends at the leaf that gives the last wanted type its first hit and
    counts the leaves up to it, as a leaf-by-leaf walk would; until holds
    the types it still hunts, so that a decider may leave out the leaves
    past that one.

    The tight-rival lemma: a leaf's tally is its parent's (h - 1 voters) plus
    the last voter r's 0/1 vector.  So x's worst defeat is the parent's wd[x]
    plus one iff r ranks above x a rival y tight for x (y's defeat of x is
    wd[x]; any other rival's stays below wd[x] + 1), else wd[x]; x's greatest
    victory is wdr[x] plus one iff r ranks below x a rival tight for it.

    Stripe (w, k) keeps the parents whose v is w modulo k.  A parent has one
    v, so the k stripes are disjoint and together hold every parent with all
    its leaves; _merge sums them and keeps the least first hit, the earliest
    in enumeration order, so a pooled scan equals the serial one, (0, 1).
    The cut (2, n) cells' one parent, the identity, is their v; it ranks each
    pair's smaller alternative first, so its row is all ones: no n! table.
    """
    K = math.factorial(n)
    if neutral_cut and h == 2:
        rows, heads, end = (int.from_bytes(b"\x01" * (n * (n - 1) // 2), "little"),), [()], 1
    else:
        rows, end = _packed_rows(n), K
        tails = itertools.combinations_with_replacement(range(K), h - 2 - neutral_cut)
        heads = ((0, *tail) for tail in tails) if neutral_cut else tails
    decide = _minimax_decider(h, n, want) if rule == "minimax" else _leaf_decider(h, n, rule)
    report = KernelReport()
    hunting = set(want)
    w, k = stripe
    for head in heads:
        key = sum(map(rows.__getitem__, head))
        lo = head[-1] if head else 0
        for v in range(lo + (w - lo) % k, end, k):
            sets = decide(key + rows[v], v, sum(1 << j for j in hunting) if stop_early else 0)
            stop = K
            if stop_early and hunting and all(sets[j] >> v for j in hunting):
                stop = v + max(((s := sets[j] >> v) & -s).bit_length() for j in hunting)
            clip = (1 << stop - v) - 1
            if sets[0]:
                report.kramer_mismatches += (sets[0] >> v & clip).bit_count()
            for j in want:
                hits = sets[j] >> v & clip
                if hits:
                    report.counts[j] += hits.bit_count()
                    if report.firsts[j] is None:
                        report.firsts[j] = (*head, v, v + (hits & -hits).bit_length() - 1)
                        hunting.discard(j)
            report.examined += stop - v
            if stop_early and not hunting:
                return report
    return report


def _merge(want: tuple[int, ...], parts) -> KernelReport:
    """Sum reports over disjoint stripes.

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
    """Scan the representative space for minimax's bias flags: the one kernel entry.

    A rule given as a pair of TALLY_RULES names counts instead, as type 1,
    the representatives on which their selections differ.  With workers > 1 the
    parents are striped by their last voter across a process pool, one _scan
    (and one verdict cache) per worker, and never more workers than parents,
    so that a one-parent scan stays serial; parallel runs never stop early, so
    counts stay exact and the reported first witness is the one earliest in
    enumeration order.  A visit count other than neutral_count/anonymous_count
    raises RuntimeError, unless the scan stopped early after finding every
    wanted type.  A cell outside 2 <= h <= MAX_H, 2 <= n <= MAX_N, n past
    MAX_SCAN_RANKINGS rankings, or a want or rule that _check_scan refuses,
    raises ValueError before any table is built.
    """
    _check_cell(h, n)
    _check_scan(want, rule)
    refusal = table_refusal(n)
    if refusal:
        raise ValueError(refusal)
    parents = math.comb(math.factorial(n) + h - 2 - neutral_cut, h - 1 - neutral_cut)
    workers = min(resolve_workers(workers), parents)
    space = neutral_count(h, n) if neutral_cut else anonymous_count(h, n)
    if workers <= 1 or space < 50_000:
        report = _scan(h, n, want, stop_early, neutral_cut, rule=rule)
    else:
        tasks = [(h, n, want, False, neutral_cut, (w, workers), rule) for w in range(workers)]
        import multiprocessing  # here alone, so that importing the package stays light
        with multiprocessing.Pool(processes=workers) as pool:
            report = _merge(want, pool.starmap(_scan, tasks))
    found_all = stop_early and all(report.firsts[j] is not None for j in want)
    if report.examined != space and not found_all:
        raise RuntimeError(f"scan visited {report.examined} of {space} representatives")
    return report


def _unrank(n: int, index: int) -> tuple[int, ...]:
    """The order of all_rankings(n)[index], unranked from its index in the
    factorial number system; an index of n! or more raises IndexError."""
    alts = list(range(1, n + 1))
    order = []
    for k in range(n - 1, -1, -1):
        digit, index = divmod(index, math.factorial(k))
        order.append(alts.pop(digit))
    return tuple(order)


def profile_from_indices(n: int, indices: tuple[int, ...]) -> Profile:
    """The profile whose voters are all_rankings(n)[i] for i in indices.

    Each order is unranked by _unrank, so only these rankings are built,
    never the n! table; an index of n! or more raises IndexError."""
    return Profile(tuple(Ranking(_unrank(n, index)) for index in indices))


# --- witness search ----------------------------------------------------------


def _check_cell(h: int, n: int) -> None:
    if not (2 <= h <= MAX_H and 2 <= n <= MAX_N):
        raise ValueError(f"need 2 <= h <= {MAX_H} and 2 <= n <= {MAX_N}, got h={h}, n={n}")


def _check_query(j: int, rule: str = "minimax") -> None:
    """Refuse a bias type outside 1..3 and a rule outside RULES."""
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {sorted(RULES)}")


def _check_scan(want: tuple[int, ...], rule) -> None:
    """Refuse a want that is empty, repeats a type or names one outside 1..3,
    and a rule that is neither "minimax" nor a pair of TALLY_RULES names."""
    if not want or len(set(want)) < len(want) or not set(want) <= {1, 2, 3}:
        raise ValueError(f"bias types must be distinct and each 1, 2 or 3, got {want!r}")
    pair = isinstance(rule, tuple) and len(rule) == 2 and all(
        isinstance(name, str) and name in TALLY_RULES for name in rule
    )
    if rule != "minimax" and not pair:
        raise ValueError(f"rule must be 'minimax' or a pair of {sorted(TALLY_RULES)}, got {rule!r}")


def _disagreement(mismatches: int) -> str:
    return f"direct and threshold minimax disagree on {mismatches} profiles"


def search_exhaustive(
    h: int,
    n: int,
    js: tuple[int, ...],
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
    workers: int | None = None,
    stop_early: bool = False,
) -> list[SearchResult]:
    """Exhaustive minimax search for each bias type in js at (h, n): the one cell search.

    The scan is plain when anonymous_count fits the budget and under the
    neutrality cut when only neutral_count does; otherwise, or when the ranking
    table is refused, every result is inconclusive with examined=0.  One
    scan_minimax serves all of js and each first hit is re-certified.  Without
    stop_early the scan is complete, so hits are exact counts and examined does
    not depend on the worker count; with it hits is None.  A dual-route
    mismatch is counted in mismatches and named in the note, never raised here.
    A cell outside 2 <= h <= MAX_H, 2 <= n <= MAX_N, or a js that _check_scan
    refuses, raises ValueError.
    """
    _check_cell(h, n)
    _check_scan(js, "minimax")
    space = anonymous_count(h, n)
    cut_space = neutral_count(h, n)
    refusal = table_refusal(n)

    def result(j: int, **fields) -> SearchResult:
        return SearchResult(h=h, n=n, j=j, method="exhaustive", space=space, **fields)

    if refusal or cut_space > budget:
        note = (
            f"space holds {space} representatives "
            f"({cut_space} under the neutrality cut), over budget {budget}"
            if cut_space > budget else refusal
        )
        return [result(j, outcome=OUTCOME_INCONCLUSIVE, examined=0, note=note) for j in js]
    cut = space > budget
    report = scan_minimax(h, n, want=js, stop_early=stop_early, workers=workers, neutral_cut=cut)
    notes = [f"neutrality cut: {cut_space} representatives cover the space"] if cut else []
    if report.kramer_mismatches:
        notes.append(_disagreement(report.kramer_mismatches))
    results = []
    for j in js:
        witness = None
        if report.firsts[j] is not None:
            profile = profile_from_indices(n, report.firsts[j])
            witness = certify_witness(profile, j, "minimax", method="exhaustive")
        results.append(result(
            j, outcome=OUTCOME_WITNESS if witness else OUTCOME_IMMUNE,
            examined=report.examined, witness=witness, note="; ".join(notes),
            hits=None if stop_early else report.counts[j],
            mismatches=report.kramer_mismatches,
        ))
    return results


# --- seeded sampling ---------------------------------------------------------

# Codes of up to TABLE_MAX_N alternatives read their tally row off
# _packed_rows(n, code_order=True), n! entries per n; 8! covers every cell a
# default verify samples.  Larger n decode.
TABLE_MAX_N = 8


def _code_drawer(h: int, n: int, seed: int) -> Callable[[int], list[int]]:
    """index -> the ranking codes of the index-th seeded sample, one per voter.

    Sample i under seed s is h calls of rng.sample(range(1, n + 1), n) on
    random.Random(f"{s}:{i}").  Asked for all n of n values, Random.sample
    takes its pool branch, since n is at most its setsize (21 for n <= 5, and
    21 + 4^ceil(log4 3n) > n above).  That branch draws j = _randbelow(m) for
    m = n, n - 1, ..., 1, takes pool[j] and moves pool[m - 1] into its place;
    _randbelow is _randbelow_with_getrandbits, which draws
    getrandbits(m.bit_length()) until the value is below m.  Each voter's
    draws j_n, ..., j_1 fold into its code, the sum of j_m * (m - 1)! (a number
    in range(n!)); j_1 is always 0, but its words are drawn, since later
    voters would otherwise get them.  _decode gives the order the pool swaps
    build from one code; _above_sets(n, code_order=True) holds the pair sets
    of all n! codes' orders at once.

    One generator serves every sample.  Random.seed turns the string into the
    integer of its bytes followed by their SHA-512 digest, read big-endian,
    and seeds the C generator with it; draw does the same before it reads a
    word, so the generator's state before a seed is never read.  These are
    CPython internals; tests/data/sampled_stream.json,
    test_sample_profile_keeps_its_definition and the replay and interpreter
    guards in test_sampling.py name them when they change.
    """
    rng = random.Random.__new__(random.Random)  # unseeded: draw seeds it first
    reseed = super(random.Random, rng).seed
    sha512 = random._sha512  # Random.seed's own digest; hashlib would slow the import
    bits = rng.getrandbits
    steps = [(m, m.bit_length()) for m in range(n, 0, -1)]
    voters = range(h)

    def draw(index: int) -> list[int]:
        key = f"{seed}:{index}".encode()
        reseed(int.from_bytes(key + sha512(key).digest(), "big"))
        codes = []
        for _ in voters:
            code = 0
            for m, k in steps:
                j = bits(k)
                while j >= m:
                    j = bits(k)
                code = code * m + j
            codes.append(code)
        return codes

    return draw


def _decode(n: int, code: int) -> tuple[int, ...]:
    """The order of a code of n alternatives, by the pool swaps of its draws."""
    pool = list(range(1, n + 1))
    order = []
    for m in range(n, 0, -1):
        j, code = divmod(code, math.factorial(m - 1))
        order.append(pool[j])
        pool[j] = pool[m - 1]
    return tuple(order)


# Each code is decoded once while the cache holds it: every code of n <= 6.
@lru_cache(maxsize=4096)
def _code_ranking(n: int, code: int) -> Ranking:
    """The shared Ranking of a code's decoded order: a hit or a
    sample_profile needs its h rankings, never all n!."""
    return _ranking(_decode(n, code))


def _code_tallier(n: int) -> Callable[[list[int]], list[int]]:
    """codes -> the upper tally of the voters with these codes.

    The tally is read out by one to_bytes from the sum of the voters'
    _upper_row vectors as integers with one byte per pair: up to TABLE_MAX_N
    alternatives each code's row of _packed_rows(n, code_order=True), the
    decoded order's row above.  No byte carries, since at most MAX_H < 256
    voters add into one.
    """
    size = n * (n - 1) // 2
    if n <= TABLE_MAX_N:
        row = _packed_rows(n, code_order=True).__getitem__

        def tally(codes: list[int]) -> list[int]:
            return list(sum(map(row, codes)).to_bytes(size, "little"))
    else:
        def tally(codes: list[int]) -> list[int]:
            rows = (int.from_bytes(_upper_row(_decode(n, code)), "little") for code in codes)
            return list(sum(rows).to_bytes(size, "little"))

    return tally


def sample_profile(h: int, n: int, seed: int, index: int) -> Profile:
    """The index-th seeded random profile; independent of worker layout."""
    return Profile(tuple(_code_ranking(n, code) for code in _code_drawer(h, n, seed)(index)))


def scan_samples(
    h: int, n: int, bit: int, rule, budget: int, seed: int
) -> tuple[int, Profile | None, int]:
    """Judge samples 0, 1, ... by _leaf_verdict on their tally until one sets
    bit, at most budget: (examined, the hit's sample_profile or None, the
    examined samples with the dual-route mismatch bit).  One generator draws
    every sample, and only a hit becomes a Profile.  A cell outside
    2 <= h <= MAX_H, 2 <= n <= MAX_N, a bit outside 1..3 or a rule that
    _check_scan refuses raises ValueError before any draw."""
    _check_cell(h, n)
    _check_scan((bit,), rule)
    draw, tally = _code_drawer(h, n, seed), _code_tallier(n)
    mismatches = 0
    for index in range(budget):
        bits = _leaf_verdict(tally(draw(index)), h, n, rule)
        mismatches += bits & _MISMATCH
        if bits >> bit & 1:
            return index + 1, sample_profile(h, n, seed, index), mismatches
    return budget, None, mismatches


def search_sampled(h: int, n: int, j: int, budget: int, seed: int) -> SearchResult:
    """Sampled minimax search for bias type j at (h, n), for verify and
    find_witness: scan_samples, then certify_witness on a hit.  A miss is
    inconclusive; a dual-route mismatch is counted and named in the note,
    never raised here.  A j that scan_samples refuses raises ValueError before
    any draw."""
    examined, profile, mismatches = scan_samples(h, n, j, "minimax", budget, seed)
    witness = certify_witness(profile, j, "minimax", "sampled", seed) if profile else None
    notes = [] if witness else [f"no witness in {budget} samples; sampling cannot certify immunity"]
    if mismatches:
        notes.append(_disagreement(mismatches))
    return SearchResult(
        h=h, n=n, j=j, method="sampled",
        outcome=OUTCOME_WITNESS if witness else OUTCOME_INCONCLUSIVE,
        examined=examined, space=anonymous_count(h, n), witness=witness, seed=seed,
        note="; ".join(notes), mismatches=mismatches,
    )


def find_witness(
    h: int,
    n: int,
    j: int,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> SearchResult:
    """Search for a type-j reversal-bias witness for minimax at (h, n).

    budget bounds the representatives examined (mode "exhaustive") or the
    samples drawn (mode "sampled"); None means DEFAULT_EXHAUSTIVE_BUDGET or
    DEFAULT_SAMPLE_BUDGET.  Exhaustive mode is search_exhaustive for j alone,
    stopping at the first hit: it certifies immunity when the whole space (or
    the neutrality cut) is swept without a hit, yields an inconclusive result
    for a space larger than the budget, never a silent truncation.  Sampled
    mode is search_sampled.  Both raise ValueError past MAX_H or MAX_N, and
    RuntimeError when the two minimax routes disagreed.
    """
    _check_query(j)
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown search mode {mode!r}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if mode == "exhaustive":
        budget = DEFAULT_EXHAUSTIVE_BUDGET if budget is None else budget
        (result,) = search_exhaustive(h, n, (j,), budget, workers, stop_early=True)
    else:
        budget = DEFAULT_SAMPLE_BUDGET if budget is None else budget
        result = search_sampled(h, n, j, budget, seed)
    if result.mismatches:
        raise RuntimeError(_disagreement(result.mismatches))
    return result
