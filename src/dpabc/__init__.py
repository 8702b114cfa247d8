"""Differentially private approval-based committee voting.

Mechanisms with exact committee distributions, exact axiom checkers
(JR / PJR / EJR / Pareto efficiency / Condorcet), witness instance
constructors, and an audit harness measuring privacy and axiom-satisfaction
levels against the two-way and three-way tradeoff bound tables.
"""

from .axioms import (
    Axiom,
    axiom_committee_set,
    condorcet_committee,
    dominance_pairs,
    pareto_frontier,
)
from .audit import (
    AxiomLevel,
    BoundCheck,
    BoundId,
    DpAuditReport,
    bound_premises,
    check_bound,
    dp_level,
    evaluate_bounds,
    measure_levels,
)
from .core import (
    Instance,
    InvalidParametersError,
    ProfileParseError,
    ResourceLimitError,
    enumerate_neighbors,
    parse_instance,
)
from .instances import (
    BallotModel,
    WitnessId,
    WitnessInstance,
    random_instance,
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
