"""Reversal-bias laboratory for majority-based voting rules.

The package audits how minimax, Borda and Copeland selections react to
reversing every voter's ranking, classifies the three grades of reversal
bias, and verifies the immunity boundary of minimax over the voter/
alternative grid by exhaustive enumeration, closed-form constructions and
seeded sampling.
"""

from .bias import BiasReport, audit_profile, bias_flags, in_table
from .construct import (
    ConstructionError,
    construct_cycle_profile,
    construct_type1_witness,
    constructive_witness,
)
from .fixtures import Fixture, fixture_ids, fixture_profile, load
from .graphs import (
    ComponentInfo,
    GraphAnalysis,
    MajorityGraph,
    acyclicity_threshold,
    analyze,
    dominant_set,
    export_dot,
    greenberg_threshold,
    has_l_cycle,
    majority_graph,
    minimal_threshold,
    profile_threshold,
)
from .prefs import (
    Profile,
    ProfileParseError,
    Ranking,
    TallyMatrix,
    parse_profile,
    serialize_profile,
)
from .properties import property_violations
from .rules import (
    RULES,
    borda,
    condorcet_loser,
    condorcet_winner,
    copeland,
    minimax_direct,
    minimax_threshold,
)
from .search import (
    CertificationError,
    SearchResult,
    SearchStrategy,
    Witness,
    all_rankings,
    anonymous_count,
    certify_witness,
    enumerate_anonymous,
    find_witness,
    neutral_count,
    profile_from_indices,
    resolve_workers,
    sample_profile,
    scan_minimax,
)

__version__ = "0.1.0"

__all__ = [
    "BiasReport",
    "CertificationError",
    "ComponentInfo",
    "ConstructionError",
    "Fixture",
    "GraphAnalysis",
    "MajorityGraph",
    "Profile",
    "ProfileParseError",
    "RULES",
    "Ranking",
    "SearchResult",
    "SearchStrategy",
    "TallyMatrix",
    "Witness",
    "acyclicity_threshold",
    "all_rankings",
    "analyze",
    "anonymous_count",
    "audit_profile",
    "bias_flags",
    "borda",
    "certify_witness",
    "condorcet_loser",
    "condorcet_winner",
    "construct_cycle_profile",
    "construct_type1_witness",
    "constructive_witness",
    "copeland",
    "dominant_set",
    "enumerate_anonymous",
    "export_dot",
    "find_witness",
    "fixture_ids",
    "fixture_profile",
    "greenberg_threshold",
    "has_l_cycle",
    "in_table",
    "load",
    "majority_graph",
    "minimal_threshold",
    "minimax_direct",
    "minimax_threshold",
    "neutral_count",
    "parse_profile",
    "profile_from_indices",
    "profile_threshold",
    "property_violations",
    "resolve_workers",
    "sample_profile",
    "scan_minimax",
    "serialize_profile",
]
