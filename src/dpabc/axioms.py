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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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


def cohesive_witnesses(inst: Instance, ell: int) -> list:
    """For every alternative set ``T`` with ``|T| = ell``, the maximal voter
    set ``V_T = {i : T subset P_i}``, kept whenever ``k*|V_T| >= ell*n``.

    Maximal witnesses suffice for JR/EJR checking: any l-cohesive group with
    common core ``T`` is a subset of ``V_T``.
    """
    if not 1 <= ell <= inst.k:
        raise InvalidParametersError(f"need 1 <= ell <= k, got ell={ell}, k={inst.k}")
    out = []
    for T in itertools.combinations(range(inst.m), ell):
        core = frozenset(T)
        voters = frozenset(i for i, b in enumerate(inst.ballots) if core <= b)
        if inst.k * len(voters) >= ell * inst.n:
            out.append(CohesiveWitness(ell, core, voters))
    return out


def _mask(alternatives) -> int:
    return sum(1 << a for a in alternatives)


def _ballot_types(inst: Instance) -> tuple:
    """``(types, committees, overlap)``: the distinct ballots as sorted
    ``(mask, voters)`` pairs, the canonical committees, and ``overlap(i)``,
    the list of committee ``i``'s overlaps with each type. A row is filled on
    first use, so a scan that stops early builds only the rows it reads."""
    types = sorted(Counter(_mask(b) for b in inst.ballots).items())
    masks = [t for t, _ in types]
    committees = enumerate_committees(inst.m, inst.k)
    rows: list = [None] * len(committees)

    def overlap(i: int) -> list:
        row = rows[i]
        if row is None:
            w = _mask(committees[i])
            row = rows[i] = [(w & t).bit_count() for t in masks]
        return row

    return types, committees, overlap


def _cohesive_groups(inst: Instance, levels: Sequence) -> list:
    """``(ell, ballot types of V_T)`` for every maximal l-cohesive group
    ``V_T`` (see :func:`cohesive_witnesses`) with ``ell`` in ``levels``.

    Some l-cohesive group with core ``T`` has no voter with ``ell`` approved
    members of ``w`` iff the voters of ``V_T`` holding fewer than ``ell``
    such members are numerous enough to be l-cohesive; a ``V_T`` too small
    for that can never violate, so only cohesive ones are kept.
    """
    masks = [_mask(b) for b in inst.ballots]
    groups = {}
    for ell in levels:
        for group in cohesive_witnesses(inst, ell):
            types = tuple(sorted(Counter(masks[i] for i in group.voters).items()))
            groups[ell, types] = None
    return list(groups)


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
    types = _ballot_types(inst)[0]
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
    if ax in (Axiom.JR, Axiom.EJR):
        levels = (1,) if ax is Axiom.JR else range(1, k + 1)
        groups = _cohesive_groups(inst, levels)
        return lambda w: any(
            k * sum(c for b, c in members if (b & w).bit_count() < ell) >= ell * n
            for ell, members in groups
        )
    raise InvalidParametersError(f"satisfies_axiom expects JR/PJR/EJR, got {ax}")


def satisfies_axiom(w: Sequence, inst: Instance, ax: Axiom) -> bool:
    """Exact membership test of committee ``w`` in JR/PJR/EJR for ``inst``."""
    return not _violation_test(inst, ax)(_mask(w))


@lru_cache(maxsize=4096)
def axiom_committee_set(inst: Instance, ax: Axiom) -> tuple:
    """All committees satisfying ``ax``, in canonical order.

    The inclusion chain EJR subset PJR subset JR holds on every instance.
    """
    violates = _violation_test(inst, ax)
    return tuple(w for w in enumerate_committees(inst.m, inst.k) if not violates(_mask(w)))


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
    _, committees, overlap = _ballot_types(inst)
    overlaps = [overlap(i) for i in range(len(committees))]
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
    have to beat the other). O(C(m,k)^2) pairwise tallies over ballot types;
    exact ties block.
    """
    types, committees, overlap = _ballot_types(inst)
    voters = [count for _, count in types]
    for i, w in enumerate(committees):
        row = overlap(i)
        if all(
            i == j
            or 2 * sum(c for c, a, b in zip(voters, row, overlap(j)) if a > b) > inst.n
            for j in range(len(committees))
        ):
            return w
    return None
