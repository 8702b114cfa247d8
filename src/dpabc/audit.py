"""Privacy and axiom-level measurement plus tradeoff-bound checking.

The *level* of an axiom under a distribution is the minimum probability ratio
across the axiom's boundary (satisfying over violating committee, dominator
over dominated, Condorcet committee over the rest). Levels are computed and
reported in log domain so products of levels are sums; when the distribution
carries exact rational weight exponents, a level is an exact rational multiple
of eps and comparisons are tolerance-free. Levels over an empty boundary are
vacuous (+inf) and excluded from bound checks with an explicit flag.

``dp_level`` measures the worst log-probability ratio over the full exhaustive
neighborhood of one instance (every single-voter ballot replacement, both
directions); the neighborhood has n*(2^m - 2) members, so the audit is capped
at m <= 8 by policy. The rule runs once per (ballot type, replacement ballot)
class of neighbors, which is exact for anonymous rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .axioms import (
    JR_FAMILY,
    Axiom,
    av_score,
    axiom_committee_set,
    condorcet_committee,
    dominance_pairs,
)
from .core import (
    Instance,
    InvalidParametersError,
    ResourceLimitError,
    enumerate_committees,
    nonempty_subsets,
)
from .mechanisms import CommitteeDistribution, as_epsilon, weight_exponent

TOLERANCE = 1e-9
NEIGHBOR_AUDIT_MAX_M = 8


@dataclass(frozen=True)
class AxiomLevel:
    """Measured level of one axiom: the min boundary probability ratio.

    ``log_value`` is ln(level); +inf means vacuous (no boundary pair exists).
    ``coeff`` is the exact rational c with level = e^(c * eps) when the
    distribution is exponential-family. ``attaining_pair`` is the
    (numerator, denominator) committee pair realizing the minimum.
    """

    axiom: Axiom
    log_value: float
    coeff: Optional[Fraction]
    attaining_pair: Optional[tuple]

    @property
    def vacuous(self) -> bool:
        return math.isinf(self.log_value)


@dataclass(frozen=True)
class DpAuditReport:
    """Worst-case log-probability ratio over an instance's neighborhood.

    ``instances_checked`` counts the whole neighbor relation;
    ``neighbors_evaluated`` counts the neighbors the rule was run on."""

    max_log_ratio: float
    attaining: Optional[tuple]  # (instance, neighbor, committee)
    instances_checked: int
    neighbors_evaluated: int


class BoundId(Enum):
    JR_2WAY = "jr-2way"
    PJR_2WAY = "pjr-2way"
    EJR_2WAY = "ejr-2way"
    PE_2WAY = "pe-2way"
    CC_2WAY = "cc-2way"
    JR_PJR_3WAY = "jr-pjr-3way"
    JR_EJR_3WAY = "jr-ejr-3way"
    PJR_EJR_3WAY = "pjr-ejr-3way"
    PE_JR_3WAY = "pe-jr-3way"
    PE_PJR_3WAY = "pe-pjr-3way"
    PE_EJR_3WAY = "pe-ejr-3way"
    PE_CC_3WAY = "pe-cc-3way"
    CC_JR_PRODUCT = "cc-jr-product"


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated tradeoff bound, log domain: satisfied iff lhs <= rhs
    within 1e-9 (exact rational comparison when both sides are pure
    log-weight combinations). ``attaining`` lists, per involved level, the
    committee pair realizing it."""

    bound_id: BoundId
    lhs_log: float
    rhs_log: float
    satisfied: bool
    vacuous: bool
    note: str
    lhs_coeff: Optional[Fraction]
    rhs_coeff: Optional[Fraction]
    attaining: tuple = ()


def _longest_dominance_chain(inst: Instance, start_ok, end_ok) -> int:
    """Longest number of dominance arrows along any chain whose first
    committee satisfies ``start_ok`` and whose last satisfies ``end_ok``;
    -1 when no such chain (of zero or more arrows) exists.

    Dominance strictly increases the dominator's total overlap, so sorting by
    AV score descending is a topological order.
    """
    committees = enumerate_committees(inst.m, inst.k)
    succ: dict = {w: [] for w in committees}
    for hi, lo in dominance_pairs(inst):
        succ[hi].append(lo)
    best = {w: 0 if start_ok(w) else None for w in committees}
    for w in sorted(committees, key=lambda c: av_score(c, inst.ballots), reverse=True):
        if best[w] is None:
            continue
        for lo in succ[w]:
            if best[lo] is None or best[lo] < best[w] + 1:
                best[lo] = best[w] + 1
    lengths = [best[w] for w in committees if end_ok(w) and best[w] is not None]
    return max(lengths, default=-1)


# bound_id -> (levels, rhs as a multiple of eps given (n, k)). A PE level in a
# three-way bound has weight nk-1; every other level has weight 1.
_BOUNDS: dict = {
    BoundId.JR_2WAY: ((Axiom.JR,), lambda n, k: 1),
    BoundId.PJR_2WAY: ((Axiom.PJR,), lambda n, k: 1),
    BoundId.EJR_2WAY: ((Axiom.EJR,), lambda n, k: -(-n // k)),
    BoundId.PE_2WAY: ((Axiom.PE,), lambda n, k: Fraction(1, k)),
    BoundId.CC_2WAY: ((Axiom.CC,), lambda n, k: 1),
    BoundId.JR_PJR_3WAY: ((Axiom.JR, Axiom.PJR), lambda n, k: 1),
    BoundId.JR_EJR_3WAY: ((Axiom.JR, Axiom.EJR), lambda n, k: 1),
    BoundId.PJR_EJR_3WAY: ((Axiom.PJR, Axiom.EJR), lambda n, k: -(-n // k)),
    BoundId.PE_JR_3WAY: ((Axiom.PE, Axiom.JR), lambda n, k: n),
    BoundId.PE_PJR_3WAY: ((Axiom.PE, Axiom.PJR), lambda n, k: n),
    BoundId.PE_EJR_3WAY: ((Axiom.PE, Axiom.EJR), lambda n, k: n),
    BoundId.PE_CC_3WAY: ((Axiom.PE, Axiom.CC), lambda n, k: n),
    BoundId.CC_JR_PRODUCT: ((Axiom.CC, Axiom.JR), lambda n, k: 0),
}


def _log_weights(dist: CommitteeDistribution) -> dict:
    """Committee -> its exact weight coefficient when the distribution has
    them, else its log-probability; a pair's level is the difference."""
    keys = dist.weight_coeffs if dist.weight_coeffs is not None else dist.log_probs
    return dict(zip(dist.committees, keys))


def _pair_level(
    dist: CommitteeDistribution, axiom: Axiom, pair: tuple, weights: dict
) -> AxiomLevel:
    """The level realized by the (numerator, denominator) committee pair,
    exact when the distribution carries weight coefficients."""
    diff = weights[pair[0]] - weights[pair[1]]
    if dist.weight_coeffs is None:
        return AxiomLevel(axiom, diff, None, pair)
    return AxiomLevel(axiom, weight_exponent(diff, dist.epsilon), diff, pair)


def _boundary_level(
    dist: CommitteeDistribution,
    axiom: Axiom,
    numerators: Sequence,
    denominators: Sequence,
) -> AxiomLevel:
    """Min over numerator x denominator committee pairs of their probability
    ratio: the lowest-weight numerator over the highest-weight denominator;
    ties resolve to the first committee in canonical order."""
    if not numerators or not denominators:
        return AxiomLevel(axiom, math.inf, None, None)
    weights = _log_weights(dist)
    pair = (min(numerators, key=weights.get), max(denominators, key=weights.get))
    return _pair_level(dist, axiom, pair, weights)


def axiom_level(dist: CommitteeDistribution, inst: Instance, ax: Axiom) -> AxiomLevel:
    """Level of a JR-family axiom: min P(satisfying) / P(violating); vacuous
    when the satisfying set is empty or is all of the committee space."""
    if ax not in JR_FAMILY:
        raise InvalidParametersError(f"axiom_level expects JR/PJR/EJR, got {ax}")
    satisfying = axiom_committee_set(inst, ax)
    members = set(satisfying)
    violating = [w for w in enumerate_committees(inst.m, inst.k) if w not in members]
    return _boundary_level(dist, ax, satisfying, violating)


def pe_level(dist: CommitteeDistribution, inst: Instance) -> AxiomLevel:
    """Level of Pareto efficiency: min P(dominator) / P(dominated) over all
    dominance pairs; vacuous when no committee dominates another."""
    pairs = dominance_pairs(inst)
    if not pairs:
        return AxiomLevel(Axiom.PE, math.inf, None, None)
    weights = _log_weights(dist)
    pair = min(pairs, key=lambda p: weights[p[0]] - weights[p[1]])
    return _pair_level(dist, Axiom.PE, pair, weights)


def cc_level(dist: CommitteeDistribution, inst: Instance) -> AxiomLevel:
    """Level of the Condorcet criterion: min P(W_c) / P(W) over W != W_c;
    vacuous when no Condorcet committee exists."""
    winner = condorcet_committee(inst)
    if winner is None:
        return AxiomLevel(Axiom.CC, math.inf, None, None)
    others = [w for w in enumerate_committees(inst.m, inst.k) if w != winner]
    return _boundary_level(dist, Axiom.CC, [winner], others)


def measure_levels(dist: CommitteeDistribution, inst: Optional[Instance] = None) -> dict:
    """All five axiom levels of a distribution on its instance."""
    inst = inst or dist.instance
    levels = {ax: axiom_level(dist, inst, ax) for ax in JR_FAMILY}
    levels[Axiom.PE] = pe_level(dist, inst)
    levels[Axiom.CC] = cc_level(dist, inst)
    return levels


def spread_log(dist: CommitteeDistribution) -> float:
    """max - min log probability; at most n*eps for any neutral DP rule."""
    return max(dist.log_probs) - min(dist.log_probs)


def dp_level(
    rule: Callable[[Instance], CommitteeDistribution], inst: Instance
) -> DpAuditReport:
    """Exhaustive DP audit of one instance's neighborhood.

    Maximizes |ln P(W | inst) - ln P(W | neighbor)| over all n*(2^m - 2)
    neighbors and all committees; the absolute value covers both directions.

    Precondition: ``rule`` is anonymous (its law depends only on the ballot
    multiset), as every rule in ``MECHANISMS`` is. A voter whose ballot an
    earlier voter holds then yields only neighbors equal, as multisets, to
    ones already evaluated, so such voters are skipped: the rule runs once per
    (ballot type, replacement) class. A skipped neighbor only repeats gaps
    already seen and the strict ``>`` keeps the first attaining triple, so the
    report equals that of a scan over every neighbor.
    """
    if inst.m > NEIGHBOR_AUDIT_MAX_M:
        raise ResourceLimitError(
            f"exhaustive neighborhood audit limited to m <= {NEIGHBOR_AUDIT_MAX_M}, "
            f"got m={inst.m}"
        )
    base = rule(inst)
    replacements = list(nonempty_subsets(inst.m))
    worst = 0.0
    attaining: Optional[tuple] = None
    evaluated = 0
    seen: set = set()
    for voter, current in enumerate(inst.ballots):
        if current in seen:
            continue
        seen.add(current)
        for ballot in replacements:
            if ballot == current:
                continue
            neighbor = inst.replace_ballot(voter, ballot)
            evaluated += 1
            other = rule(neighbor)
            gaps = [abs(a - b) for a, b in zip(base.log_probs, other.log_probs)]
            top = max(gaps)
            if top > worst:
                worst = top
                attaining = (inst, neighbor, base.committees[gaps.index(top)])
    return DpAuditReport(
        max_log_ratio=worst,
        attaining=attaining,
        instances_checked=inst.n * (2**inst.m - 2),
        neighbors_evaluated=evaluated,
    )


def dp_level_family(
    rule: Callable[[Instance], CommitteeDistribution], instances: Sequence
) -> DpAuditReport:
    """Family-level audit: max of per-instance audits over a caller-supplied
    instance list (the neighbor relation is never exhausted globally)."""
    reports = [dp_level(rule, inst) for inst in instances]
    best = max(reports, key=lambda r: r.max_log_ratio)
    return DpAuditReport(
        max_log_ratio=best.max_log_ratio,
        attaining=best.attaining,
        instances_checked=sum(r.instances_checked for r in reports),
        neighbors_evaluated=sum(r.neighbors_evaluated for r in reports),
    )


def check_bound(
    bound_id: BoundId, measurements: dict, inst: Instance, epsilon
) -> BoundCheck:
    """Evaluate one tradeoff bound against measured levels.

    The CC_JR_PRODUCT bound (level(CC) * level(JR) <= 1) is derived from
    instances whose Condorcet committee fails JR; on any other instance it is
    reported vacuous. PE_CC_3WAY is checked in the satisfiable direction
    (pe^(nk-1) * cc <= e^(n*eps)).
    """
    eps = as_epsilon(epsilon)
    axioms, rhs = _BOUNDS[bound_id]
    rhs_coeff = Fraction(rhs(inst.n, inst.k))
    note = ""
    if bound_id is BoundId.PE_CC_3WAY:
        note = "checked in the satisfiable direction"

    def vacuous(reason: str) -> BoundCheck:
        return BoundCheck(
            bound_id, math.inf, weight_exponent(rhs_coeff, eps), True, True,
            f"vacuous: {reason}", None, rhs_coeff,
        )

    if bound_id is BoundId.CC_JR_PRODUCT:
        winner = condorcet_committee(inst)
        if winner is None:
            return vacuous("no Condorcet committee")
        if winner in axiom_committee_set(inst, Axiom.JR):
            return vacuous("Condorcet committee satisfies JR; product unconstrained")

    # The PE-family 3-way bounds walk a dominance chain: nk arrows crossing
    # the axiom boundary, or (for CC) nk-1 arrows starting off the Condorcet
    # committee after one Condorcet-level step. Without that structure the
    # composite inequality is unconstrained on the instance.
    three_way_pe = Axiom.PE in axioms and len(axioms) > 1
    if three_way_pe and axioms[1] in JR_FAMILY:
        partner = axioms[1]
        members = set(axiom_committee_set(inst, partner))
        chain = _longest_dominance_chain(
            inst, lambda w: w in members, lambda w: w not in members
        )
        need = inst.n * inst.k
        if chain < need:
            return vacuous(
                f"longest dominance chain from a {partner.value}-satisfying "
                f"to a violating committee has {max(chain, 0)} arrows, needs {need}"
            )
    if three_way_pe and axioms[1] is Axiom.CC:
        winner = condorcet_committee(inst)
        if winner is not None:
            chain = _longest_dominance_chain(
                inst, lambda w: w != winner, lambda w: True
            )
            need = inst.n * inst.k - 1
            if chain < need:
                return vacuous(
                    f"longest dominance chain starting off the Condorcet "
                    f"committee has {max(chain, 0)} arrows, needs {need}"
                )

    levels = []
    for axiom in axioms:
        level = measurements.get(axiom)
        if level is None:
            raise InvalidParametersError(
                f"missing measurement for level {axiom.value!r} required by {bound_id.value}"
            )
        weight = inst.n * inst.k - 1 if three_way_pe and axiom is Axiom.PE else 1
        levels.append((level, weight))

    for level, _weight in levels:
        if level.vacuous:
            return vacuous(f"level {level.axiom.value} has no boundary pair")
    rhs_log = weight_exponent(rhs_coeff, eps)

    lhs_log = sum(weight * level.log_value for level, weight in levels)
    if all(level.coeff is not None for level, _ in levels):
        lhs_coeff = sum((weight * level.coeff for level, weight in levels), Fraction(0))
        satisfied = lhs_coeff <= rhs_coeff
    else:
        lhs_coeff = None
        satisfied = lhs_log <= rhs_log + TOLERANCE
    attaining = tuple(
        (level.axiom, level.attaining_pair) for level, _ in levels
    )
    return BoundCheck(
        bound_id, lhs_log, rhs_log, satisfied, False, note, lhs_coeff, rhs_coeff,
        attaining,
    )


def evaluate_bounds(
    dist: CommitteeDistribution,
    inst: Optional[Instance] = None,
    bound_ids: Optional[Sequence] = None,
) -> list:
    """Measure all levels once and evaluate the requested bounds (default:
    every bound in the table)."""
    inst = inst or dist.instance
    measurements = measure_levels(dist, inst)
    ids = tuple(bound_ids) if bound_ids is not None else tuple(BoundId)
    return [check_bound(bid, measurements, inst, dist.epsilon) for bid in ids]


@dataclass(frozen=True)
class JrMassBound:
    """Lower bounds on the probability mass a rule puts on JR committees."""

    instance_specific: float
    instance_free: float


def jr_probability_bound(jr_level: float, jr_count: int, m: int, k: int) -> JrMassBound:
    """Mass bounds implied by a JR level (min JR/non-JR probability ratio).

    instance_specific: level*t / (level*t + C(m,k) - t) with t = jr_count;
    instance_free:     level / (level + C(m,k) - 1).
    """
    if jr_level <= 0:
        raise InvalidParametersError(f"jr_level must be positive, got {jr_level}")
    total = math.comb(m, k)
    if not 1 <= jr_count <= total:
        raise InvalidParametersError(
            f"jr_count must lie in 1..C({m},{k})={total}, got {jr_count}"
        )
    specific = jr_level * jr_count / (jr_level * jr_count + total - jr_count)
    free = jr_level / (jr_level + total - 1)
    return JrMassBound(instance_specific=specific, instance_free=free)
