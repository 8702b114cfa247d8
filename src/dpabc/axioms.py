"""Exact checkers for representation and efficiency axioms.

Definitions (standard in the approval-based committee voting literature), for
an instance with ``n`` voters, ``m`` alternatives, committee size ``k``:

* A voter group ``V`` is *l-cohesive* if ``|V| >= l*n/k`` and the voters in
  ``V`` commonly approve at least ``l`` alternatives. The size threshold is
  evaluated in exact integer arithmetic (``k*|V| >= l*n``), never floats.
* ``W`` satisfies **JR** if every 1-cohesive group contains a voter with an
  approved committee member.
* ``W`` satisfies **PJR** if for every l-cohesive group ``V``,
  ``|W & union of V's ballots| >= l``.
* ``W`` satisfies **EJR** if every l-cohesive group contains a voter with at
  least ``l`` approved committee members.
* ``W1`` *Pareto dominates* ``W2`` if no voter's approval overlap drops and
  some voter's strictly rises.
* A *Condorcet committee* beats every other committee in a strict pairwise
  majority of overlap comparisons.

Everything here is a pure function over immutable inputs; results for whole
instances are memoized.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import Optional, Sequence

from .core import Instance, InvalidParametersError, enumerate_committees


class Axiom(Enum):
    JR = "jr"
    PJR = "pjr"
    EJR = "ejr"
    PE = "pe"
    CC = "cc"


JR_FAMILY = (Axiom.JR, Axiom.PJR, Axiom.EJR)


@dataclass(frozen=True)
class CohesiveWitness:
    """A maximal l-cohesive group: the set of all voters approving every
    member of ``core_alternatives`` (with ``|core_alternatives| = ell``)."""

    ell: int
    core_alternatives: frozenset
    voters: frozenset


def _cohesive_groups(inst: Instance, levels: Sequence) -> list:
    """``(ell, T, V_T)`` for every alternative set ``T`` with ``|T| = ell`` in
    ``levels`` whose maximal voter set ``V_T = {i : T subset P_i}`` satisfies
    ``k*|V_T| >= ell*n``; ``V_T`` is a bitmask of voter indices, the AND of
    the approver masks of ``T``'s members."""
    n, k = inst.n, inst.k
    approvers = [0] * inst.m
    for i, ballot in enumerate(inst.ballots):
        for a in ballot:
            approvers[a] |= 1 << i
    out = []
    for ell in levels:
        cores = itertools.combinations(range(inst.m), ell)
        for T, masks in zip(cores, itertools.combinations(approvers, ell)):
            voters = reduce(operator.and_, masks)
            if k * voters.bit_count() >= ell * n:
                out.append((ell, T, voters))
    return out


def cohesive_witnesses(inst: Instance, ell: int) -> list:
    """For every alternative set ``T`` with ``|T| = ell``, the maximal voter
    set ``V_T = {i : T subset P_i}``, kept whenever ``k*|V_T| >= ell*n``.

    Maximal witnesses suffice for JR/EJR checking: any l-cohesive group with
    common core ``T`` is a subset of ``V_T``.
    """
    if not 1 <= ell <= inst.k:
        raise InvalidParametersError(f"need 1 <= ell <= k, got ell={ell}, k={inst.k}")
    return [
        CohesiveWitness(
            ell, frozenset(T), frozenset(i for i in range(inst.n) if voters >> i & 1)
        )
        for _, T, voters in _cohesive_groups(inst, (ell,))
    ]


def _mask(alternatives) -> int:
    return sum(1 << a for a in alternatives)


def _committee_masks(m: int, k: int) -> list:
    """Bitmasks of the canonical committees, in canonical order."""
    return [sum(c) for c in itertools.combinations([1 << a for a in range(m)], k)]


def _ballot_types(inst: Instance) -> list:
    """The distinct ballots as sorted ``(mask, voters)`` pairs, ``voters`` the
    bitmask of the indices of the voters casting that ballot."""
    voters: dict = {}
    for i, ballot in enumerate(inst.ballots):
        mask = _mask(ballot)
        voters[mask] = voters.get(mask, 0) | 1 << i
    return sorted(voters.items())


def _overlaps(inst: Instance, types: list) -> list:
    """Row ``i``: canonical committee ``i``'s overlap with each type."""
    return [[(w & t).bit_count() for t, _ in types] for w in _committee_masks(inst.m, inst.k)]


def _pjr_groups(inst: Instance) -> list:
    """``(union, cap)`` pairs: a committee ``w`` violates PJR iff some pair
    has ``cap > |w & union|``.

    A violating group's intersection and union depend only on which ballot
    types it contains, and taking every voter of each included type maximizes
    the group size, so scanning subsets of distinct ballot types decides PJR
    exactly. A subset with an empty intersection is cohesive for no ``ell``,
    and neither is any superset, so the scan prunes there. For each union only
    the largest ``cap`` (largest ``ell`` the group is cohesive for) is kept.
    """
    n, k = inst.n, inst.k
    types = [(ballot, voters.bit_count()) for ballot, voters in _ballot_types(inst)]
    best: dict = {}

    def extend(start: int, common: int, union: int, size: int) -> None:
        for i in range(start, len(types)):
            ballot, count = types[i]
            if common & ballot:
                shared, covered, voters = common & ballot, union | ballot, size + count
                # largest l this group can be cohesive for
                cap = min(k, shared.bit_count(), (k * voters) // n)
                if cap > best.get(covered, 0):
                    best[covered] = cap
                extend(i + 1, shared, covered, voters)

    extend(0, (1 << inst.m) - 1, 0, 0)
    return list(best.items())


def _violation_test(inst: Instance, ax: Axiom):
    """Predicate on committee bitmasks: True iff the committee violates
    ``ax``. Builds the per-instance tables once; each test is then a scan of
    them."""
    n, k = inst.n, inst.k
    if ax is Axiom.PJR:
        unions = _pjr_groups(inst)
        return lambda w: any(cap > (w & union).bit_count() for union, cap in unions)
    if ax not in (Axiom.JR, Axiom.EJR):
        raise InvalidParametersError(f"satisfies_axiom expects JR/PJR/EJR, got {ax}")
    # w violates iff, for some cohesive V_T, the voters of V_T with fewer than
    # ell members of w are numerous enough to be l-cohesive themselves
    top = 1 if ax is Axiom.JR else k
    cohesive = _cohesive_groups(inst, range(1, top + 1))
    groups = list(dict.fromkeys((ell, v) for ell, _, v in cohesive))
    types = _ballot_types(inst)

    def violates(w: int) -> bool:
        # below[ell]: the voters with fewer than ell members of w
        below = [0] * (top + 1)
        for ballot, voters in types:
            overlap = (ballot & w).bit_count()
            if overlap < top:
                below[overlap + 1] |= voters
        for ell in range(2, top + 1):
            below[ell] |= below[ell - 1]
        for ell, v in groups:
            if k * (v & below[ell]).bit_count() >= ell * n:
                return True
        return False

    return violates


def satisfies_axiom(w: Sequence, inst: Instance, ax: Axiom) -> bool:
    """Exact membership test of committee ``w`` in JR/PJR/EJR for ``inst``."""
    return not _violation_test(inst, ax)(_mask(w))


@lru_cache(maxsize=4096)
def axiom_committee_set(inst: Instance, ax: Axiom) -> tuple:
    """All committees satisfying ``ax``, in canonical order.

    The inclusion chain EJR subset PJR subset JR holds on every instance.
    """
    violates = _violation_test(inst, ax)
    keep = [not violates(w) for w in _committee_masks(inst.m, inst.k)]
    return tuple(itertools.compress(enumerate_committees(inst.m, inst.k), keep))


def _approval_counts(inst: Instance) -> list:
    """Per alternative, the number of voters approving it. A committee's AV
    score is the sum of its members' counts."""
    return [sum(1 for b in inst.ballots if a in b) for a in range(inst.m)]


def av_score(w: Sequence, profile: Sequence) -> int:
    """Total approval overlap: sum over voters of |ballot & w|."""
    wset = frozenset(w)
    return sum(len(frozenset(b) & wset) for b in profile)


def pareto_dominates(w1: Sequence, w2: Sequence, profile: Sequence) -> bool:
    """True iff every voter overlaps ``w1`` at least as much as ``w2`` and
    some voter strictly more."""
    s1, s2 = frozenset(w1), frozenset(w2)
    strict = False
    for b in profile:
        o1, o2 = len(b & s1), len(b & s2)
        if o1 < o2:
            return False
        if o1 > o2:
            strict = True
    return strict


@lru_cache(maxsize=4096)
def dominance_pairs(inst: Instance) -> tuple:
    """All ordered committee pairs (dominator, dominated), canonical order."""
    committees = enumerate_committees(inst.m, inst.k)
    overlaps = _overlaps(inst, _ballot_types(inst))
    pairs = []
    for i, j in itertools.permutations(range(len(committees)), 2):
        oi, oj = overlaps[i], overlaps[j]
        if all(a >= b for a, b in zip(oi, oj)) and oi != oj:
            pairs.append((committees[i], committees[j]))
    return tuple(pairs)


def pareto_frontier(inst: Instance) -> tuple:
    """Committees not Pareto-dominated by any other committee."""
    dominated = {lo for _, lo in dominance_pairs(inst)}
    return tuple(w for w in enumerate_committees(inst.m, inst.k) if w not in dominated)


@lru_cache(maxsize=4096)
def condorcet_committee(inst: Instance) -> Optional[tuple]:
    """The committee beating every other in strict pairwise majority, or None.

    Uniqueness is implied by the definition (two such committees would each
    have to beat the other). No committee beats a Condorcet committee, so an
    elimination scan that keeps the running candidate while it wins reaches
    it and keeps it; a second pass verifies the survivor. That is at most
    2(C(m,k) - 1) pairwise tallies over ballot types; exact ties block.
    """
    n, types = inst.n, _ballot_types(inst)
    counts = [voters.bit_count() for _, voters in types]
    overlaps = _overlaps(inst, types)

    def beats(i: int, j: int) -> bool:
        return 2 * sum(c for c, a, b in zip(counts, overlaps[i], overlaps[j]) if a > b) > n

    best = 0
    for j in range(1, len(overlaps)):
        if not beats(best, j):
            best = j
    if all(beats(best, j) for j in range(len(overlaps)) if j != best):
        return enumerate_committees(inst.m, inst.k)[best]
    return None
