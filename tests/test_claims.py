"""The abstract's claims, each checked where README's "Claims" table says.

C1, "every axiom is incompatible with DP": every audited law gives every
committee a finite log-probability, so every axiom with a violating
committee has a finite level.

C4, "compatible without DP": on every profile some committee satisfies EJR
(so PJR and JR) and is Pareto efficient. The one exception the paper names
is the Condorcet committee against JR: when a Condorcet committee exists it
is Pareto efficient, but it can fail JR and EJR. Each sweep covers every
anonymous profile (multiset of non-empty ballots) of its shapes and every
committee size k < m: 5087 instances.
"""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dpabc import (
    MECHANISMS,
    Axiom,
    Instance,
    WitnessId,
    axiom_committee_set,
    condorcet_committee,
    measure_levels,
    pareto_frontier,
    witness,
)
from dpabc.core import nonempty_subsets
from dpabc.mechanisms import AUDIT_MECHANISMS

ROOT = Path(__file__).resolve().parents[1]

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


def test_every_audited_law_has_finite_logs():
    # C1: a finite log-probability on every committee bounds every level that
    # has a boundary pair; the probabilities themselves may underflow to 0.0
    laws = 0
    for wid in WitnessId:
        inst = witness(wid).inst
        for name in AUDIT_MECHANISMS:
            for eps in ("0.1", "1", "2"):
                dist = MECHANISMS[name](inst, eps)
                assert all(map(math.isfinite, dist.log_probs)), (wid, name, eps)
                for level in measure_levels(dist).values():
                    assert level.vacuous or math.isfinite(level.log_value), (wid, name, eps)
                laws += 1
    assert laws == 162


def claims_node_ids():
    """The test node ids that README's "Claims" section names."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    return sorted(set(re.findall(r"`(tests/[\w/]+\.py::[\w:\[\]-]+)`", section)))


def test_pytest_collects_every_node_id_in_the_claims_table():
    ids = claims_node_ids()
    assert len(ids) >= 5
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids]
    # plugins only slow the collection down; the node ids do not depend on them
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = set(done.stdout.splitlines())
    assert [i for i in ids if i not in collected] == []
