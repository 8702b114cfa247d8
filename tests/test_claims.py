"""The abstract's claims about the axioms without privacy, checked exactly.

"Compatible without DP": on every profile some committee satisfies EJR (so
PJR and JR) and is Pareto efficient. The one exception the paper names is
the Condorcet committee against JR: when a Condorcet committee exists it is
Pareto efficient, but it can fail JR and EJR.

Each sweep covers every anonymous profile (multiset of non-empty ballots) of
its shapes and every committee size k < m: 5087 instances.
"""

import itertools

import pytest

from dpabc import Axiom, Instance, axiom_committee_set, condorcet_committee, pareto_frontier
from dpabc.core import nonempty_subsets

# (m, n) shapes of the sweep
SHAPES = [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (5, 2)]


def sweep():
    """Every profile of every shape, with every k < m."""
    for m, n in SHAPES:
        for profile in itertools.combinations_with_replacement(list(nonempty_subsets(m)), n):
            for k in range(1, m):
                yield Instance(profile, m, k)


@pytest.fixture(scope="module")
def instances():
    return list(sweep())


def test_sweep_size(instances):
    assert len(instances) == 5087


def test_some_ejr_committee_is_pareto_efficient(instances):
    for inst in instances:
        frontier = set(pareto_frontier(inst))
        assert frontier.intersection(axiom_committee_set(inst, Axiom.EJR)), inst


def test_condorcet_committee_is_pareto_efficient(instances):
    winners = [(inst, condorcet_committee(inst)) for inst in instances]
    winners = [(inst, w) for inst, w in winners if w is not None]
    assert len(winners) == 444
    for inst, winner in winners:
        assert winner in pareto_frontier(inst), inst


def test_condorcet_committee_fails_jr_on_one_orbit(instances):
    # {a}, then two voters approving the other three alternatives at k = 3:
    # the committee of those three beats every other, and leaves the voter
    # of {a}, a third of the profile, unrepresented
    failing = {ax: set() for ax in (Axiom.JR, Axiom.EJR)}
    for inst in instances:
        winner = condorcet_committee(inst)
        for ax, found in failing.items():
            if winner is not None and winner not in axiom_committee_set(inst, ax):
                found.add(inst)
    expected = {}
    for a in range(4):
        rest = frozenset(range(4)) - {a}
        ballots = sorted([frozenset({a}), rest, rest], key=lambda b: sum(1 << x for x in b))
        expected[Instance(ballots, 4, 3)] = tuple(sorted(rest))
    assert failing[Axiom.JR] == failing[Axiom.EJR] == set(expected)
    for inst in expected:
        assert condorcet_committee(inst) == expected[inst]
