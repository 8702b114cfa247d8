"""Privacy and axiom-level measurement plus tradeoff-bound checking.

The *level* of an axiom under a distribution is the minimum probability ratio
across the axiom's boundary (satisfying over violating committee, dominator
over dominated, Condorcet committee over the rest). Levels are computed and
reported in log domain so products of levels are sums; when the distribution
carries its rule's integer scores, a level is an exact rational multiple of
eps and comparisons are tolerance-free. Levels over an empty boundary are
vacuous (+inf) and excluded from bound checks with an explicit flag.

``dp_level`` measures the worst log-probability ratio over the full exhaustive
neighborhood of one instance (every single-voter ballot replacement, both
directions) on the neighbors ``neighbor_orbits`` lists: one per orbit under
swapping twin alternatives (ones held by the same ballot types, so approved by
the same voters) and joined twin classes, exact for anonymous and neutral
rules. The replacements come from count vectors over the twin classes, not a
walk over all 2^m ballots; a policy cap checked before any is listed bounds
the predicted work, rule calls times the sets each call builds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from operator import sub
from typing import Callable, Optional, Sequence

from .axioms import (
    JR_FAMILY,
    Axiom,
    _mask,
    axiom_committee_set,
    condorcet_committee,
    dominance_pairs,
)
from .core import (
    Instance,
    InvalidParametersError,
    ResourceLimitError,
    canonical_committees,
    committee_index,
)
from .mechanisms import CommitteeDistribution, weight_exponent

TOLERANCE = 1e-9
NEIGHBOR_AUDIT_MAX_WORK = (2**8 - 1) * (2**8 - 2) * math.comb(8, 4)  # the most at m <= 8


@dataclass(frozen=True)
class AxiomLevel:
    """Measured level of one axiom: the min boundary probability ratio.

    ``log_value`` is ln(level) at ``epsilon``, the distribution's budget;
    +inf means vacuous (no boundary pair exists). ``coeff`` is the exact
    rational c with level = e^(c * eps), at every eps, when the distribution
    is exponential-family. ``attaining_pair`` is the (numerator,
    denominator) committee pair realizing the minimum, also eps-free then.
    """

    axiom: Axiom
    log_value: float
    coeff: Optional[Fraction]
    attaining_pair: Optional[tuple]
    epsilon: Fraction

    @property
    def vacuous(self) -> bool:
        return math.isinf(self.log_value)

    def log_at(self, epsilon: Fraction) -> float:
        """ln(level) at ``epsilon``: ``coeff * epsilon`` rounded as
        ``log_value`` was; a level without ``coeff`` has no other budget."""
        if self.coeff is not None:
            return weight_exponent(self.coeff.numerator, self.coeff.denominator, epsilon)
        if epsilon != self.epsilon and not self.vacuous:
            raise ValueError(f"level measured at eps {self.epsilon} has no value at {epsilon}")
        return self.log_value


@dataclass(frozen=True)
class DpAuditReport:
    """Worst-case log-probability ratio over an instance's neighborhood.

    ``instances_checked`` counts the whole neighbor relation;
    ``neighbors_evaluated`` counts the neighbors the rule was run on."""

    max_log_ratio: float
    attaining: Optional[tuple]  # (voter, replacement ballot, committee)
    instances_checked: int
    neighbors_evaluated: int


class BoundId(Enum):
    """A tradeoff bound, with its levels and its rhs as a multiple of eps given
    (n, k). A PE level in a three-way bound has weight nk-1; every other level
    has weight 1."""

    def __new__(cls, value: str, axioms: tuple, rhs: Callable):
        bound = object.__new__(cls)
        bound._value_, bound.axioms, bound.rhs = value, axioms, rhs
        return bound

    JR_2WAY = "jr-2way", (Axiom.JR,), lambda n, k: 1
    PJR_2WAY = "pjr-2way", (Axiom.PJR,), lambda n, k: 1
    EJR_2WAY = "ejr-2way", (Axiom.EJR,), lambda n, k: -(-n // k)
    PE_2WAY = "pe-2way", (Axiom.PE,), lambda n, k: Fraction(1, k)
    CC_2WAY = "cc-2way", (Axiom.CC,), lambda n, k: 1
    JR_PJR_3WAY = "jr-pjr-3way", (Axiom.JR, Axiom.PJR), lambda n, k: 1
    JR_EJR_3WAY = "jr-ejr-3way", (Axiom.JR, Axiom.EJR), lambda n, k: 1
    PJR_EJR_3WAY = "pjr-ejr-3way", (Axiom.PJR, Axiom.EJR), lambda n, k: -(-n // k)
    PE_JR_3WAY = "pe-jr-3way", (Axiom.PE, Axiom.JR), lambda n, k: n
    PE_PJR_3WAY = "pe-pjr-3way", (Axiom.PE, Axiom.PJR), lambda n, k: n
    PE_EJR_3WAY = "pe-ejr-3way", (Axiom.PE, Axiom.EJR), lambda n, k: n
    PE_CC_3WAY = "pe-cc-3way", (Axiom.PE, Axiom.CC), lambda n, k: n
    CC_JR_PRODUCT = "cc-jr-product", (Axiom.CC, Axiom.JR), lambda n, k: 0


@dataclass(frozen=True)
class BoundCheck:
    """One tradeoff bound evaluated against measured levels: satisfied iff
    lhs <= rhs, both as multiples of eps when every level is exact, else in
    log domain within 1e-9 at the levels' own budget. ``terms`` lists each
    involved (level, weight); ``logs`` gives both sides at a budget."""

    bound_id: BoundId
    satisfied: bool
    vacuous: bool
    note: str
    lhs_coeff: Optional[Fraction]
    rhs_coeff: Fraction
    terms: tuple = ()

    def logs(self, epsilon: Fraction) -> tuple:
        """``(lhs_log, rhs_log)`` at ``epsilon``; lhs is +inf when vacuous."""
        rhs = self.rhs_coeff
        rhs_log = weight_exponent(rhs.numerator, rhs.denominator, epsilon)
        if self.vacuous:
            return math.inf, rhs_log
        return sum(weight * level.log_at(epsilon) for level, weight in self.terms), rhs_log


def _longest_chain(inst: Instance, start_ok, end_ok) -> int:
    """Longest number of dominance arrows along any chain whose first
    committee satisfies ``start_ok`` and whose last satisfies ``end_ok``; -1
    when no such chain (of zero or more arrows) exists. Dominance is
    transitive, so a dominator's successor row strictly contains each of its
    successors' rows, and the committees by row length descending are a
    topological order of the successor table."""
    committees = canonical_committees(inst.m, inst.k)
    succ = dominance_pairs(inst)
    best = [0 if start_ok(w) else None for w in committees]
    for i in sorted(range(len(succ)), key=lambda i: len(succ[i]), reverse=True):
        if best[i] is None:
            continue
        step = best[i] + 1
        for j in succ[i]:
            if best[j] is None or best[j] < step:
                best[j] = step
    ends = [b for w, b in zip(committees, best) if b is not None and end_ok(w)]
    return max(ends, default=-1)


def bound_premises(inst: Instance) -> dict:
    """Bound -> why it is vacuous on ``inst`` whatever the distribution, or
    None, for every bound in the table.

    The CC_JR_PRODUCT bound (level(CC) * level(JR) <= 1) is derived from
    instances whose Condorcet committee fails JR. The PE-family 3-way bounds
    walk a dominance chain: nk arrows crossing the axiom boundary, or (for CC)
    nk-1 arrows starting off the Condorcet committee after one Condorcet-level
    step. Without that structure the composite inequality is unconstrained on
    the instance. The chain walks read the instance's cached successor table.
    """
    need = inst.n * inst.k
    premises: dict = {}
    for bound_id in BoundId:
        axioms, reason = bound_id.axioms, None
        if bound_id is BoundId.CC_JR_PRODUCT:
            winner = condorcet_committee(inst)
            if winner is None:
                reason = "no Condorcet committee"
            elif winner in axiom_committee_set(inst, Axiom.JR):
                reason = "Condorcet committee satisfies JR; product unconstrained"
        elif bound_id is BoundId.PE_CC_3WAY:
            winner = condorcet_committee(inst)
            if winner is not None:
                chain = _longest_chain(inst, lambda w: w != winner, lambda w: True)
                if chain < need - 1:
                    reason = (
                        f"longest dominance chain starting off the Condorcet "
                        f"committee has {max(chain, 0)} arrows, needs {need - 1}"
                    )
        elif Axiom.PE in axioms and len(axioms) > 1:
            partner = axioms[1]
            members = set(axiom_committee_set(inst, partner))
            chain = _longest_chain(inst, members.__contains__, lambda w: w not in members)
            if chain < need:
                reason = (
                    f"longest dominance chain from a {partner.value}-satisfying "
                    f"to a violating committee has {max(chain, 0)} arrows, needs {need}"
                )
        premises[bound_id] = reason
    return premises


def _pair_level(
    dist: CommitteeDistribution, axiom: Axiom, i: int, j: int, weights: Sequence
) -> AxiomLevel:
    """The level realized by canonical committees ``i`` over ``j``: their
    score difference over ``dist.scale``, exact, when the distribution has
    scores (``weights`` is ``dist.scores``), else their log-probability
    difference (``weights`` is ``dist.log_probs``)."""
    diff = weights[i] - weights[j]
    pair = (dist.committees[i], dist.committees[j])
    if dist.scores is None:
        return AxiomLevel(axiom, diff, None, pair, dist.epsilon)
    log_value = weight_exponent(diff, dist.scale, dist.epsilon)
    return AxiomLevel(axiom, log_value, Fraction(diff, dist.scale), pair, dist.epsilon)


def _boundary_level(
    dist: CommitteeDistribution, axiom: Axiom, numerators: list, weights: Sequence
) -> AxiomLevel:
    """Min over pairs of a numerator and any other committee, all given by
    ascending canonical index, of their probability ratio: the lowest-weight
    numerator over the highest-weight other committee; ties resolve to the
    lowest index. Vacuous when the numerators are none or all of the
    committees."""
    others = sorted(set(range(len(weights))).difference(numerators))
    if not numerators or not others:
        return AxiomLevel(axiom, math.inf, None, None, dist.epsilon)
    key = weights.__getitem__
    return _pair_level(dist, axiom, min(numerators, key=key), max(others, key=key), weights)


def _pe_level(dist: CommitteeDistribution, weights: Sequence) -> AxiomLevel:
    """Level of Pareto efficiency: min P(dominator) / P(dominated) over all
    dominance pairs, the first such pair in permutations order on ties;
    vacuous when no committee dominates another. Rounding is monotone, so a
    row's least difference is to its largest weight, first attained by the
    row's first index with exactly that difference."""
    low = None
    for i, row in enumerate(dominance_pairs(dist.instance)):
        if row:
            diff = weights[i] - max(map(weights.__getitem__, row))
            if low is None or diff < low[0]:
                low = (diff, i, row)
    if low is None:
        return AxiomLevel(Axiom.PE, math.inf, None, None, dist.epsilon)
    diff, i, row = low
    j = next(j for j in row if weights[i] - weights[j] == diff)
    return _pair_level(dist, Axiom.PE, i, j, weights)


def measure_levels(dist: CommitteeDistribution) -> dict:
    """All five axiom levels of a distribution on its instance, read from
    its scores (or, for the sequential law, its log-probabilities) by
    canonical committee index. A JR-family level is min P(satisfying) /
    P(violating), the Condorcet level min P(W_c) / P(W) over W != W_c
    (vacuous without W_c)."""
    inst = dist.instance
    weights = dist.log_probs if dist.scores is None else dist.scores
    index = committee_index(inst.m, inst.k)
    # each axiom set comes in canonical order, so its indices ascend
    members = {ax: [index[w] for w in axiom_committee_set(inst, ax)] for ax in JR_FAMILY}
    levels = {ax: _boundary_level(dist, ax, members[ax], weights) for ax in JR_FAMILY}
    levels[Axiom.PE] = _pe_level(dist, weights)
    winner = condorcet_committee(inst)
    condorcet = [] if winner is None else [index[winner]]
    levels[Axiom.CC] = _boundary_level(dist, Axiom.CC, condorcet, weights)
    return levels


def neighbor_orbits(inst: Instance) -> list:
    """The first ``(voter, replacement ballot)`` of each orbit of neighbors, in scan order.

    * Anonymity: voters casting the same ballot have neighbors equal as
      multisets, so each distinct ballot is visited once, in order of first
      appearance, through its first voter.
    * Neutrality: alternatives are twins when the same ballot types
      (distinct ballots) hold them, so the same voters approve them, and a
      ballot of ``inst`` holds a twin class whole or not at all. Twin
      classes come in order of their least member. Two equal-size classes
      are joined when swapping them member for member, in index order,
      fixes the ballot multiset. Twin and joined-class swaps map a neighbor
      to one whose gaps are the same floats on permuted committees and
      permute each component of joined classes in every way, so (type,
      replacement) pairs share an orbit exactly when they share a key: per
      component, the sorted (replacement count, type count) pairs. The
      first pair per key in scan order is listed: t * (prod(|C| + 1) - 2)
      for t ballot types, twin classes C, or fewer with joined classes; times
      max(C(m, min(k, m // 2)), C(8, 4)) past NEIGHBOR_AUDIT_MAX_WORK is refused.
    * Replacements: per count vector of members per twin class, its first
      ballot in bitmask order, which takes each class's lowest members; in
      the order a walk over all 2^m - 1 ballots meets them.
    """
    types: dict = {}  # each ballot type -> its first voter, in voter order
    for voter, ballot in enumerate(inst.ballots):
        types.setdefault(ballot, voter)
    holders = [0] * inst.m  # the ballot types holding each alternative, one bit per type
    for i, ballot in enumerate(types):
        for a in ballot:
            holders[a] |= 1 << i
    members: dict = {}  # an alternative's holders -> its twin class, ascending
    for a, held in enumerate(holders):
        members.setdefault(held, []).append(a)
    classes = list(members.values())
    work = math.prod(len(c) + 1 for c in classes) - 2
    work *= len(types) * max(math.comb(inst.m, min(inst.k, inst.m // 2)), math.comb(8, 4))
    if work > NEIGHBOR_AUDIT_MAX_WORK:
        raise ResourceLimitError(
            f"DP audit limited to {NEIGHBOR_AUDIT_MAX_WORK} committee evaluations, got {work}"
        )
    # a count vector's first ballot in bitmask order takes the lowest members of
    # each class: one replacement per vector, in bitmask order, less the empty ballot
    picks = itertools.product(*([c[:j] for j in range(len(c) + 1)] for c in classes))
    firsts = [(tuple(map(len, p)), frozenset(itertools.chain(*p))) for p in picks]
    replacements = sorted(firsts, key=lambda first: _mask(first[1]))[1:]
    vectors = {b: tuple(len(b.intersection(c)) for c in classes) for b in types}
    profile = Counter(vectors[b] for b in inst.ballots)
    component = list(range(len(classes)))  # each class's component, named by a member class
    for i, j in itertools.combinations(range(len(classes)), 2):
        if len(classes[i]) != len(classes[j]):
            continue
        order = [*range(i), j, *range(i + 1, j), i, *range(j + 1, len(classes))]
        if Counter({tuple(v[x] for x in order): c for v, c in profile.items()}) == profile:
            component = [component[i] if c == component[j] else c for c in component]
    joined = len(set(component)) < len(classes)
    keys: set = set()
    scan = []
    for current, voter in types.items():
        for counts, ballot in replacements:
            if ballot == current:
                continue
            if joined:
                key = tuple(sorted(zip(component, counts, vectors[current])))
                if key in keys:
                    continue
                keys.add(key)
            scan.append((voter, ballot))
    return scan


def dp_level(
    rule: Callable[[Instance], CommitteeDistribution], inst: Instance
) -> DpAuditReport:
    """Exhaustive DP audit of one instance's neighborhood.

    Maximizes |ln P(W | inst) - ln P(W | neighbor)| over all n*(2^m - 2)
    neighbors and all committees; the absolute value covers both directions.
    The rule runs on ``inst`` and on each neighbor ``neighbor_orbits(inst)`` lists.

    Preconditions: ``rule`` is anonymous (its law depends only on the ballot
    multiset) and neutral (relabelling the alternatives relabels its law's
    committees, bit for bit), as every rule in ``MECHANISMS`` is.

    A neighbor whose law (its ``log_probs``) an earlier neighbor had is not
    compared again. A skipped neighbor only repeats a gap vector already
    seen, up to order, and the strict ``>`` keeps the first attaining
    (voter, replacement ballot, committee), so the report equals that of a
    scan over every neighbor.
    """
    scan = neighbor_orbits(inst)
    base = rule(inst)
    worst = 0.0
    attaining: Optional[tuple] = None
    laws: set = set()
    for voter, ballot in scan:
        other = rule(inst._replaced(voter, ballot))  # scan entries are valid already
        if other.log_probs in laws:
            continue
        laws.add(other.log_probs)
        top = max(map(abs, map(sub, base.log_probs, other.log_probs)))
        if top > worst:
            worst = top
            gaps = [abs(a - b) for a, b in zip(base.log_probs, other.log_probs)]
            attaining = (voter, ballot, base.committees[gaps.index(top)])
    return DpAuditReport(
        max_log_ratio=worst,
        attaining=attaining,
        instances_checked=inst.n * (2**inst.m - 2),
        neighbors_evaluated=len(scan),
    )


def check_bound(bound_id: BoundId, levels: dict, inst: Instance, premises: dict) -> BoundCheck:
    """Evaluate one tradeoff bound against the measured ``levels``.

    A bound whose premise fails on ``inst`` (``premises`` is
    ``bound_premises(inst)``) is reported vacuous. Over exact levels the
    check holds at every eps, else only at the levels' own. PE_CC_3WAY is
    checked in the satisfiable direction (pe^(nk-1) * cc <= e^(n*eps)).
    """
    axioms = bound_id.axioms
    rhs_coeff = Fraction(bound_id.rhs(inst.n, inst.k))
    reason = premises[bound_id]
    terms = []
    if reason is None:
        three_way_pe = Axiom.PE in axioms and len(axioms) > 1
        for axiom in axioms:
            level = levels.get(axiom)
            if level is None:
                raise InvalidParametersError(
                    f"missing measurement for level {axiom.value!r} required by {bound_id.value}"
                )
            weight = inst.n * inst.k - 1 if three_way_pe and axiom is Axiom.PE else 1
            terms.append((level, weight))
        reason = next(
            (f"level {lv.axiom.value} has no boundary pair" for lv, _ in terms if lv.vacuous),
            None,
        )
    if reason is not None:
        return BoundCheck(bound_id, True, True, f"vacuous: {reason}", None, rhs_coeff)

    note = "checked in the satisfiable direction" if bound_id is BoundId.PE_CC_3WAY else ""
    terms = tuple(terms)
    if all(level.coeff is not None for level, _ in terms):
        # the weighted coefficients as integers over one denominator
        den = math.lcm(*(level.coeff.denominator for level, _ in terms))
        num = sum(w * lv.coeff.numerator * (den // lv.coeff.denominator) for lv, w in terms)
        satisfied = num * rhs_coeff.denominator <= rhs_coeff.numerator * den
        return BoundCheck(bound_id, satisfied, False, note, Fraction(num, den), rhs_coeff, terms)
    check = BoundCheck(bound_id, False, False, note, None, rhs_coeff, terms)
    lhs_log, rhs_log = check.logs(terms[0][0].epsilon)
    return replace(check, satisfied=lhs_log <= rhs_log + TOLERANCE)


def evaluate_bounds(levels: dict, inst: Instance, premises: dict) -> list:
    """Every bound in the table, checked against the measured ``levels``
    (``measure_levels(dist)``) with ``premises = bound_premises(inst)``."""
    return [check_bound(bid, levels, inst, premises) for bid in BoundId]
