"""Minimax, Borda, and Copeland selections plus Condorcet queries.

All three rules are functions of the pairwise tally alone, and reversing every
voter transposes it.  The tally-level core takes the upper triangle ``u``
(``u[k]`` voters rank pair k's smaller alternative first; the reversal's is
``h - u``) and returns a rule's selections on the profile and its reversal,
each as a mask with bit x-1 for alternative x.

Minimax is implemented twice on purpose: once as the argmin of greatest
pairwise defeats and once through the threshold/dominant-set machinery
(``minimax_threshold``), which never touches the core.  The two must always
agree; tests and exhaustive sweeps hold them to that.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .graphs import dominant_set, minimal_threshold, profile_threshold
from .prefs import TALLY_CACHE_SIZE, Profile, _alts, tally_size


@lru_cache(maxsize=None)
def upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """0-based pairs (x, y), x < y, in lexicographic order: the index k of u."""
    return tuple((x, y) for x in range(n) for y in range(x + 1, n))


def upper_tally(profile: Profile) -> list[int]:
    """The upper triangle u of the profile's tally, indexed like upper_pairs."""
    counts = profile.tally()
    return [counts[x][y] for x, y in upper_pairs(profile.n)]


def minimax_defeats(u, h: int, n: int) -> tuple[list[int], list[int], int, int]:
    """Worst defeats on p and on its reversal, with both profile thresholds.

    One fused pass: wd[x] is x's greatest defeat in p and wdr[x] its greatest
    defeat in the reversal (its greatest victory in p), 0-based.  Each
    threshold is the least admissible mu above the smallest worst defeat.
    """
    wd = [0] * n
    wdr = [0] * n
    for (x, y), a in zip(upper_pairs(n), u):
        b = h - a
        if b > wd[x]:
            wd[x] = b
        if a > wd[y]:
            wd[y] = a
        if a > wdr[x]:
            wdr[x] = a
        if b > wdr[y]:
            wdr[y] = b
    mu0 = h // 2 + 1
    m1 = min(wd)
    m2 = min(wdr)
    return wd, wdr, m1 + 1 if m1 >= mu0 else mu0, m2 + 1 if m2 >= mu0 else mu0


def minimax_tally(u, h: int, n: int) -> tuple[int, int, int, int]:
    """Minimax on p and its reversal: (mask_p, mask_pr, mu_p, mu_pr)."""
    return minimax_selections(*minimax_defeats(u, h, n))


def minimax_selections(wd, wdr, mu_p: int, mu_pr: int) -> tuple[int, int, int, int]:
    """minimax_tally's result, read off minimax_defeats' result."""
    p = pr = 0
    bit = 1
    for d, dr in zip(wd, wdr):
        if d < mu_p:
            p |= bit
        if dr < mu_pr:
            pr |= bit
        bit <<= 1
    return p, pr, mu_p, mu_pr


def tally_core(profile: Profile) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, int]:
    """(u, wd, wdr, mu_p, mu_pr): the profile's upper triangle and its
    minimax_defeats, as tuples, cached by the profile's tally.  A reversal is
    tallied from its own columns before it is looked up."""
    return _core(profile.tally())


@lru_cache(maxsize=TALLY_CACHE_SIZE)
def _core(tally: tuple[tuple[int, ...], ...]):
    """tally_core on a tally.  It reads only its key (see TALLY_CACHE_SIZE) and
    returns only tuples and ints, so equal tallies may share one answer."""
    h, n = tally_size(tally)
    u = tuple(tally[x][y] for x, y in upper_pairs(n))
    wd, wdr, mu_p, mu_pr = minimax_defeats(u, h, n)
    return u, tuple(wd), tuple(wdr), mu_p, mu_pr


def _borda_scores(u, h: int, n: int) -> list[int]:
    """Row sums of the tally: an alternative earns one point per rival below it."""
    scores = [0] * n
    for (x, y), a in zip(upper_pairs(n), u):
        scores[x] += a
        scores[y] += h - a
    return scores


def _copeland_scores(u, h: int, n: int) -> list[int]:
    """Simple-majority wins minus losses."""
    mu0 = h // 2 + 1
    scores = [0] * n
    for (x, y), a in zip(upper_pairs(n), u):
        if a >= mu0:
            scores[x] += 1
            scores[y] -= 1
        elif h - a >= mu0:
            scores[y] += 1
            scores[x] -= 1
    return scores


def _top(scores, pick=max) -> int:
    """The mask of the alternatives scoring pick(scores)."""
    best = pick(scores)
    mask = 0
    for x, s in enumerate(scores):
        if s == best:
            mask |= 1 << x
    return mask


def scored_tally(scores, u, h: int, n: int) -> tuple[int, int, None, None]:
    """A score rule on p and on its reversal: top alternatives on u and on h - u.

    On the transposed tally h - u, Borda scores each x h(n-1) - s[x] and
    Copeland -s[x], so the reversal's top alternatives are p's bottom ones.
    The two selections meet only when the top score equals the bottom one:
    then every alternative ties, both select all n, and no bias type can be
    set.  So no score rule is scanned alone; the search kernel scans minimax,
    and score rules only in a pair, for where two selections differ.
    """
    s = scores(u, h, n)
    return _top(s), _top(s, min), None, None


# Each maps (u, h, n) to (mask_p, mask_pr, mu_p, mu_pr): the selections as
# masks, bit x-1 for alternative x, and thresholds None for rules without one.
TALLY_RULES = {
    "minimax": minimax_tally,
    "borda": partial(scored_tally, _borda_scores),
    "copeland": partial(scored_tally, _copeland_scores),
}


def minimax_direct(profile: Profile) -> frozenset[int]:
    """Alternatives whose greatest pairwise defeat, max over rivals y of t[y][x], is smallest."""
    return _alts(_top(tally_core(profile)[1], min))


def minimax_threshold(profile: Profile) -> frozenset[int]:
    """Dominant set at the least admissible threshold where one exists."""
    return dominant_set(profile, profile_threshold(profile))


def borda(profile: Profile) -> frozenset[int]:
    return _alts(_top(_borda_scores(upper_tally(profile), profile.h, profile.n)))


def copeland(profile: Profile) -> frozenset[int]:
    return _alts(_top(_copeland_scores(upper_tally(profile), profile.h, profile.n)))


def _condorcet(profile: Profile, side: int) -> int | None:
    # x beats every rival by simple majority iff its worst defeat is at most
    # h - mu0; the loser is the reversal's winner, read off the best victories.
    defeats = tally_core(profile)[1 + side]
    bound = profile.h - minimal_threshold(profile.h)
    return next((x + 1 for x, d in enumerate(defeats) if d <= bound), None)


def condorcet_winner(profile: Profile) -> int | None:
    """The alternative beating every rival by simple majority, if any."""
    return _condorcet(profile, 0)


def condorcet_loser(profile: Profile) -> int | None:
    """The alternative beaten by every rival by simple majority, if any."""
    return _condorcet(profile, 1)


# The profile-level route; certify_witness re-checks every witness through it.
RULES = {
    "minimax": minimax_threshold,
    "borda": borda,
    "copeland": copeland,
}
