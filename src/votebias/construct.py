"""Closed-form witness constructions for minimax reversal bias.

constructive_witness is the one entry, and verify calls it directly.  The
type-1 recipe builds a rotational cycle on alternatives 1..n-1 plus
alternative n, inserted at the top of the first (h+1)//2 voters and at the
bottom of the rest; only its domain and the cycle's threshold depend on the
parity of h.  Type-2 and type-3 cells outside that domain take their
profile from the fixture catalogue.  The type-1 constructor certifies its
profile for the requested bias type and then holds the certified thresholds
and selections to the ones claimed by design, so a bug here fails loudly
instead of producing a bogus witness.
"""

from __future__ import annotations

from typing import Callable

from .bias import in_table
from .fixtures import load
from .graphs import has_l_cycle, majority_graph, minimal_threshold
from .prefs import Profile, Ranking
from .search import Witness, certify_witness


class ConstructionError(ValueError):
    """Requested construction lies outside its domain or failed validation."""


def construct_cycle_profile(l: int, mu: int, h: int, n: int | None = None) -> Profile:
    """A profile whose mu-majority graph contains an l-cycle.

    Domain: 2 <= l <= n, h/2 < mu <= (l-1)h/l.  The profile is the rotation
    profile: h voters split as evenly as possible over the l rotations of
    (1..l), with l+1..n appended below in ascending order, which leaves the
    comparisons among 1..l untouched.  It is valid on the whole domain: the
    arc i -> i+1 of the cycle 1 -> 2 -> ... -> l -> 1 is reversed only by
    the voters of the one rotation that starts at i+1 (at 1 for the arc
    l -> 1), at most ceil(h/l) of them.  So every arc is backed by at least
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
    tail = tuple(range(l + 1, n + 1))
    base = list(range(1, l + 1))
    columns: list[Ranking] = []
    for k in range(l):
        copies = h // l + (1 if k < h % l else 0)
        columns.extend([Ranking(tuple(base[k:] + base[:k]) + tail)] * copies)
    profile = Profile(tuple(columns))
    if not has_l_cycle(majority_graph(profile, mu), l):
        raise ConstructionError(f"rotation profile lost its {l}-cycle at mu={mu}, h={h}")
    return profile


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


def construct_type1_witness(h: int, n: int, j: int = 1) -> Witness:
    """Type-1 witness: a cycle on 1..n-1 at threshold mu, alternative n split.

    Domain: n >= 4, h(n-3) >= k(n-1) with k = 3 for odd h and 2 for even h.
    mu is mu0 + 1 for odd h and mu0 for even h.  The first (h+1)//2 voters
    rank n first, the rest rank it last, so n's worst defeat and worst
    reversed defeat both stay strictly below everyone else's: the profile's
    threshold is mu0 and its reversal's is mu.  It is certified for type j.
    """
    if n < 4:
        raise ConstructionError(f"need n >= 4, got {n}")
    k = 3 if h % 2 else 2
    if h * (n - 3) < k * (n - 1):
        raise ConstructionError(
            f"(h={h}, n={n}) violates h(n-3) >= {k}(n-1); no such witness exists"
        )
    mu0 = minimal_threshold(h)
    mu = mu0 + h % 2
    cycle = construct_cycle_profile(n - 1, mu, h).columns
    top = (h + 1) // 2
    profile = Profile(tuple(
        Ranking((n,) + col.order if i < top else col.order + (n,)) for i, col in enumerate(cycle)
    ))
    witness = certify_witness(profile, j, rule="minimax", method="constructive")
    return _check_witness_shape(witness, mu_p=mu0, mu_pr=mu)


def _recipe(h: int, n: int, j: int) -> Callable[[], Witness] | None:
    """The builder of the certified witness of the recipe that covers (h, n, j), or None."""
    def fixture(fixture_id: str) -> Callable[[], Witness]:
        return lambda: certify_witness(load(fixture_id).profile, j, rule="minimax",
                                       method="constructive")

    if h < 2 or n < 2:
        return None
    if n >= 4 and h * (n - 3) >= (3 if h % 2 else 2) * (n - 1):  # the type-1 domain
        return lambda: construct_type1_witness(h, n, j)
    if j >= 2:
        if h == 3 and n >= 4:
            return fixture(f"tm2-3-n({n})")
        if (h, n) in ((5, 4), (7, 4), (5, 5)):
            return fixture(f"tm2-{h}-{n}")
    if j == 3:
        if h == 2 and n >= 3:
            return fixture(f"tm3-2-n({n})")
        if n == 3 and h != 3:
            return fixture(f"tm3-h-3({h})")
        if (h, n) == (4, 4):
            return fixture("tm3-4-4")
    return None


def constructive_witness(h: int, n: int, j: int) -> Witness | None:
    """Dispatch to a known recipe; None when no recipe applies.

    Cells inside the immunity region never get a witness.  A stronger bias
    type implies the weaker ones, so type-1 constructions also serve as
    type-2 and type-3 witnesses; each is certified once, for type j.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"bias type must be 1, 2 or 3, got {j}")
    recipe = None if in_table(j, h, n) else _recipe(h, n, j)
    return None if recipe is None else recipe()
