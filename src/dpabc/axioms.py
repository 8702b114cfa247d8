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

Everything here is a pure function over immutable inputs. Three results for
whole instances are memoized: ``axiom_committee_set``, ``dominance_pairs`` and
``condorcet_committee``; the randomized-response rules read ``_axiom_scores``
and ``_condorcet_index``, which are not, so a rule keeps no instance alive.
Tables that depend only on ``(m, k)`` or on one ballot are shared by every
instance. Only ``_ballot_types`` and ``_approval_counts`` read the voters.
"""

from __future__ import annotations

import itertools
import operator
from enum import Enum
from functools import lru_cache, reduce
from typing import Optional

from .core import (
    Instance,
    InvalidParametersError,
    ResourceLimitError,
    canonical_committees,
    committee_index,
)


class Axiom(Enum):
    JR = "jr"
    PJR = "pjr"
    EJR = "ejr"
    PE = "pe"
    CC = "cc"


JR_FAMILY = (Axiom.JR, Axiom.PJR, Axiom.EJR)

# Most (intersection, union) states the PJR pass may hold, and most visits
# to them it may make (each ballot type visits every state held before it).
# Ballots sharing one alternative reach 3^(m-1) states: the m=11 profile of
# the 1024 ballots containing alternative 0 holds 59049 states and makes
# 25.2M visits, about 11 s at 29 MB peak RSS (2-vCPU Xeon VM, CPython 3.11.7).
PJR_STATE_MAX = 100_000
PJR_VISIT_MAX = 40_000_000


def _cohesive_groups(inst: Instance, types: list, top: int) -> list:
    """``(ell, T, V_T)`` for every alternative bitmask ``T`` with ``|T| = ell
    <= top`` whose maximal voter set ``V_T = {i : T subset P_i}`` satisfies
    ``k*|V_T| >= ell*n``; ``V_T`` is a bitmask of voter indices, the AND of
    the approver masks of ``T``'s members. Voters are numbered type by type:
    each ``(mask, count)`` of ``types`` (``_ballot_types``) owns the next
    ``count`` bits. The cores of each size come in lexicographic order from a
    depth-first walk that extends a core only while it passes: ``V_T``
    shrinks as ``T`` grows while the bar rises."""
    n, k = inst.n, inst.k
    approvers = [0] * inst.m  # per alternative, the bitmask of its approving voters
    low = 0
    for ballot, count in types:
        block = (1 << count) - 1 << low
        while ballot:  # each member, by lowest set bit
            bit = ballot & -ballot
            approvers[bit.bit_length() - 1] |= block
            ballot ^= bit
        low += count
    out = []

    def extend(core: int, voters: int, start: int) -> None:
        ell = core.bit_count() + 1
        for a in range(start, inst.m):
            shared = voters & approvers[a]
            if k * shared.bit_count() >= ell * n:
                out.append((ell, core | 1 << a, shared))
                if ell < top:
                    extend(core | 1 << a, shared, a + 1)

    extend(0, (1 << n) - 1, 0)
    return out


def _mask(alternatives) -> int:
    return sum(1 << a for a in alternatives)


@lru_cache(maxsize=64)
def _committee_masks(m: int, k: int) -> tuple:
    """Bitmasks of the canonical committees, in canonical order."""
    return tuple(map(_mask, canonical_committees(m, k)))


@lru_cache(maxsize=1024)
def _ballot_table(m: int, k: int, ballot: int) -> tuple:
    """``(column, below)`` for one ballot mask, shared by every instance with
    this ``(m, k)``: ``column[i]`` is canonical committee ``i``'s overlap with
    the ballot (one byte each, so ``k < 256``) and ``below[c]``, for ``c`` in
    ``0..k``, the committee bitset (bit ``i`` for committee ``i``) of the
    committees with overlap below ``c``."""
    column = bytes((w & ballot).bit_count() for w in _committee_masks(m, k))
    # overlap o becomes the digit "1" exactly when o < c; bit 0 is committee 0
    below = tuple(
        int(column.translate(b"1" * c + b"0" * (256 - c))[::-1], 2) for c in range(k + 1)
    )
    return column, below


@lru_cache(maxsize=1024)
def _ballot_mask(ballot: frozenset) -> int:
    """A ballot's bitmask, shared: a DP-audit neighbour shares all but one ballot."""
    return _mask(ballot)


def _ballot_types(inst: Instance) -> list:
    """The distinct ballots as sorted ``(mask, count)`` pairs, ``count`` the
    number of voters casting that ballot."""
    counts: dict = {}
    for ballot in inst.ballots:
        counts[ballot] = counts.get(ballot, 0) + 1
    return sorted((_ballot_mask(ballot), count) for ballot, count in counts.items())


def _overlaps(inst: Instance, types: list) -> list:
    """Row ``i``: canonical committee ``i``'s overlap with each type."""
    return list(zip(*(_ballot_table(inst.m, inst.k, t)[0] for t, _ in types)))


def _pjr_groups(inst: Instance) -> list:
    """``(union, cap)`` pairs: a committee ``w`` violates PJR iff some pair
    has ``cap > |w & union|``.

    A violating group's intersection and union depend only on which ballot
    types it contains, and taking every voter of each included type maximizes
    the group size, so sets of distinct ballot types decide PJR exactly. A
    group's ``cap`` (the largest ``ell`` it is cohesive for) depends only on
    its intersection, its union and its voter count, and rises with the
    count; so one pass over the types keeps, per (intersection, union), the
    most voters of any non-empty type set that has them. Each type opens its
    own state and extends every earlier state whose intersection it meets: at
    most ``min(2^types, 3^m)`` states; past ``PJR_STATE_MAX`` states or
    ``PJR_VISIT_MAX`` visits the pass raises ``ResourceLimitError``. For
    each union only the largest ``cap`` is kept.
    """
    n, k = inst.n, inst.k
    most: dict = {}
    visits = 0
    for ballot, count in _ballot_types(inst):
        visits += len(most)
        for (common, union), size in list(most.items()):
            if common & ballot:
                key = (common & ballot, union | ballot)
                if size + count > most.get(key, 0):
                    most[key] = size + count
        # no set of earlier types has this ballot as intersection and union
        most[ballot, ballot] = count
        if len(most) > PJR_STATE_MAX or visits > PJR_VISIT_MAX:
            raise ResourceLimitError(
                f"PJR check limited to {PJR_STATE_MAX} (intersection, union) states "
                f"and {PJR_VISIT_MAX} visits to them, exceeded at m={inst.m} n={n}"
            )
    best: dict = {}
    for (common, union), size in most.items():
        cap = min(k, common.bit_count(), k * size // n)
        if cap > best.get(union, 0):
            best[union] = cap
    return list(best.items())


def _at_least(rows: list, enough: int) -> int:
    """The committee bitset of the committees whose ``rows`` (``(committee
    bitset, voter count)`` pairs) that hold them count ``enough`` voters or
    more. A row counting ``enough`` (at least 1) on its own holds only such
    committees, so it joins the result by OR; for the other rows every
    committee keeps a binary counter, and ``planes[j]`` holds bit ``j`` of
    all the counters at once."""
    alone = 0
    planes = [0] * sum(count for _, count in rows if count < enough).bit_length()
    for bits, count in rows:
        if count >= enough:
            alone |= bits
            continue
        for j in range(count.bit_length()):
            carry = bits if count >> j & 1 else 0
            while carry:  # planes[j] gains carry, with the overflow moving up
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
    # compare every counter with enough from the top bit down; -1 is all ones
    above, equal = 0, -1
    for j in range(max(len(planes), enough.bit_length()) - 1, -1, -1):
        plane = planes[j] if j < len(planes) else 0
        if enough >> j & 1:
            equal &= plane
        else:
            above |= equal & plane
            equal &= ~plane
    return alone | above | equal


def _violations(inst: Instance, ax: Axiom) -> int:
    """The committee bitset of the committees violating ``ax``.

    PJR: a committee violates iff its overlap with some group union is below
    that group's cap, so the violators are the OR of ``below[cap]`` over the
    unions. JR/EJR: a committee ``w`` violates iff, for some cohesive
    ``(ell, T, V_T)``, the voters of ``V_T`` with fewer than ``ell`` members
    of ``w`` are l-cohesive themselves, i.e. iff the ballot types holding
    ``T`` whose ``below[ell]`` holds ``w`` have at least ``ell*n/k`` voters:
    one bit-sliced count per group over all committees at once."""
    m, n, k = inst.m, inst.n, inst.k
    if ax is Axiom.PJR:
        return reduce(
            operator.or_, (_ballot_table(m, k, u)[1][cap] for u, cap in _pjr_groups(inst)), 0
        )
    if ax not in (Axiom.JR, Axiom.EJR):
        raise InvalidParametersError(f"committee sets are for JR/PJR/EJR only, got {ax}")
    top = 1 if ax is Axiom.JR else k
    counted = _ballot_types(inst)
    types = [(t, _ballot_table(m, k, t)[1], count) for t, count in counted]
    groups = _cohesive_groups(inst, counted, top)
    # a group inside another of the same ell, or equal to it, adds no
    # violators; by ell and size descending, a group's container comes first,
    # and containment is transitive, so testing against the kept ones is enough
    kept: dict = {}
    found = 0
    for ell, core, group in sorted(groups, key=lambda g: (g[0], -g[2].bit_count())):
        same = kept.setdefault(ell, [])
        if any(v | group == v for v in same):
            continue
        same.append(group)
        members = [(below[ell], count) for t, below, count in types if core & t == core]
        found |= _at_least(members, -(-ell * n // k))
    return found


# "0" (no violation) becomes score 1 and "1" becomes score 0
_SATISFIES = bytes.maketrans(b"01", b"\x01\x00")


def _axiom_scores(inst: Instance, ax: Axiom) -> tuple:
    """Per canonical committee, 1 if it satisfies ``ax`` and 0 if not: the
    committee bitset of ``_violations`` read as one score tuple."""
    count = len(canonical_committees(inst.m, inst.k))
    # character i is bit i of the bitset
    violating = format(_violations(inst, ax), f"0{count}b")[::-1]
    return tuple(violating.encode().translate(_SATISFIES))


@lru_cache(maxsize=4096)
def axiom_committee_set(inst: Instance, ax: Axiom) -> tuple:
    """All committees satisfying ``ax``, in canonical order.

    The inclusion chain EJR subset PJR subset JR holds on every instance.
    """
    return tuple(itertools.compress(canonical_committees(inst.m, inst.k), _axiom_scores(inst, ax)))


def _approval_counts(inst: Instance) -> list:
    """Per alternative, the number of voters approving it, counted ballot by
    ballot in time linear in the profile's size."""
    counts = [0] * inst.m
    for ballot in inst.ballots:
        for a in ballot:
            counts[a] += 1
    return counts


def _av_scores(inst: Instance) -> tuple:
    """Each canonical committee's AV score, the sum of its members' approval
    counts: the k-combinations of the counts come in the order of the
    k-combinations of ``range(m)``, the canonical committee order."""
    return tuple(map(sum, itertools.combinations(_approval_counts(inst), inst.k)))


@lru_cache(maxsize=4096)
def dominance_pairs(inst: Instance) -> tuple:
    """The dominance relation as a successor table over canonical committee
    indices: entry ``i`` is the ascending tuple of the indices ``j`` such that
    committee ``i`` Pareto dominates committee ``j``. Read in order, the
    ``(i, j)`` pairs come in ``itertools.permutations`` order. Every entry
    takes its indices from one shared list, so a pair costs one slot.

    Row ``i`` compares overlaps only with the committees of strictly lower
    AV score, each the count-weighted sum of an overlap row. The filter is
    exact: every ballot type has a voter, so dominance strictly raises the
    AV score, and a strictly lower score already means a different row."""
    types = _ballot_types(inst)
    counts = [count for _, count in types]
    rows = [(o, sum(map(operator.mul, o, counts))) for o in _overlaps(inst, types)]
    indices = list(range(len(rows)))
    return tuple(
        tuple(
            itertools.compress(
                indices, (sj < si and all(map(operator.ge, oi, oj)) for oj, sj in rows)
            )
        )
        for oi, si in rows
    )


def pareto_frontier(inst: Instance) -> tuple:
    """Committees not Pareto-dominated by any other committee: those whose
    index appears in no entry of the successor table."""
    dominated = set(itertools.chain.from_iterable(dominance_pairs(inst)))
    committees = canonical_committees(inst.m, inst.k)
    return tuple(w for i, w in enumerate(committees) if i not in dominated)


def _condorcet_index(inst: Instance) -> Optional[int]:
    """The index of the committee beating every other in strict pairwise majority, or None.

    Uniqueness is implied by the definition (two such committees would each
    have to beat the other). For ``k < m``, every member ``a`` of a Condorcet
    committee ``W`` is approved by a strict majority: ``W`` beats ``W - a + b``
    for an outsider ``b``, and only voters approving ``a`` prefer ``W``. So
    only committees of majority-approved alternatives are candidates, and
    there is none when fewer than ``k`` alternatives are. No committee beats
    a Condorcet committee, so an elimination scan over the candidates that
    keeps the running candidate while it wins reaches it and keeps it; a
    second pass verifies the survivor against every committee. That is at
    most C(m', k) - 1 + C(m, k) - 1 pairwise tallies over ballot types, with
    ``m'`` the majority-approved alternatives; exact ties block. For ``k = m``
    the one committee has no other to beat.
    """
    m, n, k = inst.m, inst.n, inst.k
    if k == m:
        return 0
    majority = [a for a, c in enumerate(_approval_counts(inst)) if 2 * c > n]
    if len(majority) < k:
        return None
    types = _ballot_types(inst)
    counts = [count for _, count in types]
    overlaps = _overlaps(inst, types)

    def beats(i: int, j: int) -> bool:
        wins = itertools.compress(counts, map(operator.gt, overlaps[i], overlaps[j]))
        return 2 * sum(wins) > n

    index = committee_index(m, k)
    best, *rest = (index[w] for w in itertools.combinations(majority, k))
    for j in rest:
        if not beats(best, j):
            best = j
    return best if all(beats(best, j) for j in range(len(overlaps)) if j != best) else None


@lru_cache(maxsize=4096)
def condorcet_committee(inst: Instance) -> Optional[tuple]:
    """The Condorcet committee of ``_condorcet_index``, or None."""
    best = _condorcet_index(inst)
    return None if best is None else canonical_committees(inst.m, inst.k)[best]
