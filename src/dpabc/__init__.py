"""Differentially private approval-based committee voting.

Mechanisms with exact committee distributions, exact axiom checkers
(JR / PJR / EJR / Pareto efficiency / Condorcet), witness instance
constructors, and an audit harness measuring privacy and axiom-satisfaction
levels against the two-way and three-way tradeoff bound tables.
"""

from .axioms import (
    Axiom,
    CohesiveWitness,
    av_score,
    axiom_committee_set,
    cohesive_witnesses,
    condorcet_committee,
    dominance_pairs,
    pareto_dominates,
    pareto_frontier,
    satisfies_axiom,
)
from .audit import (
    AxiomLevel,
    BoundCheck,
    BoundId,
    DpAuditReport,
    JrMassBound,
    bound_premises,
    check_bound,
    dp_level,
    evaluate_bounds,
    jr_probability_bound,
    measure_levels,
    spread_log,
)
from .core import (
    Instance,
    InvalidParametersError,
    ProfileParseError,
    ResourceLimitError,
    enumerate_committees,
    enumerate_neighbors,
    format_instance,
    make_instance,
    parse_instance,
    permute,
    permute_committee,
    profile_distance,
)
from .instances import (
    BallotModel,
    WitnessId,
    WitnessInstance,
    random_instance,
    sidecar,
    witness,
    witness_id,
)
from .mechanisms import (
    AUDIT_MECHANISMS,
    MECHANISMS,
    CommitteeDistribution,
    exp_av_distribution,
    make_rule,
    rr_axiom_distribution,
    rr_condorcet_distribution,
    sample,
    sample_sequential_av,
    sequential_av_distribution,
    total_variation,
    uniform_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
