"""Closed-form witness constructions for minimax reversal bias.

The recipes build profiles whose majority structure is known by design: a
rotational cycle on the low-numbered alternatives plus one extra alternative
inserted at the top of an initial block of voters and at the bottom of the
rest.  Each constructor certifies its profile and then holds the certified
thresholds and selections to the ones claimed by design, so a bug here fails
loudly instead of producing a bogus witness.
"""

from __future__ import annotations

from typing import Callable

from .bias import in_table
from .fixtures import fixture_profile
from .graphs import has_l_cycle, majority_graph, minimal_threshold
from .prefs import Profile, Ranking
from .search import Witness, certify_witness


class ConstructionError(ValueError):
    """Requested construction lies outside its domain or failed validation."""


def _rotation_profile(l: int, h: int, n: int) -> Profile:
    """h voters split as evenly as possible over the l rotations of (1..l).

    Alternatives l+1..n are appended below the cycle in ascending order, so
    pairwise comparisons among 1..l are untouched by the embedding.
    """
    tail = tuple(range(l + 1, n + 1))
    base = list(range(1, l + 1))
    columns: list[Ranking] = []
    for k in range(l):
        order = tuple(base[k:] + base[:k]) + tail
        copies = h // l + (1 if k < h % l else 0)
        columns.extend([Ranking(order)] * copies)
    return Profile(tuple(columns))


def construct_cycle_profile(l: int, mu: int, h: int, n: int | None = None) -> Profile:
    """A profile whose mu-majority graph contains an l-cycle.

    Domain: 2 <= l <= n, h/2 < mu <= (l-1)h/l.  The profile is the rotation
    profile, and it is valid on the whole domain: the arc i -> i+1 of the
    cycle 1 -> 2 -> ... -> l -> 1 is reversed only by the voters of the one
    rotation that starts at i+1 (at 1 for the arc l -> 1), at most
    ceil(h/l) of them.  So every arc is backed by at least
    h - ceil(h/l) = floor((l-1)h/l) >= mu voters, the last step because mu is
    an integer no larger than (l-1)h/l.  The cycle is still re-checked with
    has_l_cycle before the profile is returned.
    """
    if n is None:
        n = l
    if not 2 <= l <= n:
        raise ConstructionError(f"cycle length must satisfy 2 <= l <= n, got l={l}, n={n}")
    if h < 2:
        raise ConstructionError(f"need at least two voters, got h={h}")
    if not 2 * mu > h:
        raise ConstructionError(f"mu={mu} is not a majority threshold for h={h}")
    if mu * l > (l - 1) * h:
        raise ConstructionError(
            f"no l-cycle can survive threshold mu={mu} with l={l}, h={h}: "
            f"requires mu <= (l-1)h/l = {(l - 1) * h / l:.2f}"
        )
    profile = _rotation_profile(l, h, n)
    if not has_l_cycle(majority_graph(profile, mu), l):
        raise ConstructionError(f"rotation profile lost its {l}-cycle at mu={mu}, h={h}")
    return profile


def _extend_top_bottom(cycle: Profile, extra: int, top_count: int) -> Profile:
    """Insert a new alternative at the top of the first voters, bottom of the rest."""
    columns = []
    for i, col in enumerate(cycle.columns):
        if i < top_count:
            columns.append(Ranking((extra,) + col.order))
        else:
            columns.append(Ranking(col.order + (extra,)))
    return Profile(tuple(columns))


def _check_witness_shape(witness: Witness, mu_p: int, mu_pr: int) -> Witness:
    """The certified witness, once its thresholds and selections match the design."""
    n = witness.profile.n
    got = (witness.mu_p, witness.mu_pr, witness.selection_p, witness.selection_pr)
    if got != (mu_p, mu_pr, {n}, {n}):
        raise ConstructionError(
            f"construction sanity check failed: thresholds ({got[0]}, {got[1]}) "
            f"expected ({mu_p}, {mu_pr}); selections {sorted(got[2])}/{sorted(got[3])} "
            f"expected [{n}]/[{n}]"
        )
    return witness


def construct_witness_odd(h: int, n: int) -> Witness:
    """Type-1 witness for odd h: cycle on 1..n-1 at mu0+1, alternative n split.

    Domain: h odd, n >= 4, h(n-3) >= 3(n-1).  The first (h+1)/2 voters rank
    n first, the rest rank it last, so n's worst defeat and worst reversed
    defeat both stay strictly below everyone else's.
    """
    if h % 2 != 1:
        raise ConstructionError(f"h must be odd, got {h}")
    if n < 4:
        raise ConstructionError(f"need n >= 4, got {n}")
    if h * (n - 3) < 3 * (n - 1):
        raise ConstructionError(
            f"(h={h}, n={n}) violates h(n-3) >= 3(n-1); no such witness exists"
        )
    mu0 = minimal_threshold(h)
    mu = (h + 3) // 2
    cycle = construct_cycle_profile(n - 1, mu, h)
    profile = _extend_top_bottom(cycle, n, top_count=mu0)
    witness = certify_witness(profile, j=1, rule="minimax", method="constructive")
    return _check_witness_shape(witness, mu_p=mu0, mu_pr=mu)


def construct_witness_even(h: int, n: int) -> Witness:
    """Type-1 witness for even h: cycle on 1..n-1 at mu0, alternative n split h/2-h/2.

    Domain: h even, n >= 4, h(n-3) >= 2(n-1).
    """
    if h % 2 != 0:
        raise ConstructionError(f"h must be even, got {h}")
    if n < 4:
        raise ConstructionError(f"need n >= 4, got {n}")
    if h * (n - 3) < 2 * (n - 1):
        raise ConstructionError(
            f"(h={h}, n={n}) violates h(n-3) >= 2(n-1); no such witness exists"
        )
    mu0 = minimal_threshold(h)
    cycle = construct_cycle_profile(n - 1, mu0, h)
    profile = _extend_top_bottom(cycle, n, top_count=h // 2)
    witness = certify_witness(profile, j=1, rule="minimax", method="constructive")
    return _check_witness_shape(witness, mu_p=mu0, mu_pr=mu0)


def _recipe(h: int, n: int, j: int) -> Callable[[], Profile] | None:
    """The profile builder of the recipe that covers (h, n, j), or None."""
    if h < 2 or n < 2:
        return None
    odd = h % 2
    if n >= 4 and h * (n - 3) >= (3 if odd else 2) * (n - 1):  # the type-1 domains
        builder = construct_witness_odd if odd else construct_witness_even
        return lambda: builder(h, n).profile
    if j >= 2:
        if h == 3 and n >= 4:
            return lambda: fixture_profile(f"tm2-3-n({n})")
        if (h, n) in ((5, 4), (7, 4), (5, 5)):
            return lambda: fixture_profile(f"tm2-{h}-{n}")
    if j == 3:
        if h == 2 and n >= 3:
            return lambda: fixture_profile(f"tm3-2-n({n})")
        if n == 3 and h != 3:
            return lambda: fixture_profile(f"tm3-h-3({h})")
        if (h, n) == (4, 4):
            return lambda: fixture_profile("tm3-4-4")
    return None


def has_constructive_witness(h: int, n: int, j: int) -> bool:
    """Whether some recipe produces a minimax type-j witness at (h, n)."""
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    return _recipe(h, n, j) is not None


def constructive_witness(h: int, n: int, j: int) -> Witness | None:
    """Dispatch to a known recipe; None when no recipe applies.

    Cells inside the immunity region never get a witness.  A stronger bias
    type implies the weaker ones, so type-1 constructions also serve as
    type-2 and type-3 witnesses; certify_witness re-checks the actual flag.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    recipe = None if in_table(j, h, n) else _recipe(h, n, j)
    if recipe is None:
        return None
    return certify_witness(recipe(), j, rule="minimax", method="constructive")
