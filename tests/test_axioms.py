import itertools
import random
from collections import Counter
from types import ModuleType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpabc import (
    Axiom,
    BallotModel,
    InvalidParametersError,
    axiom_committee_set,
    condorcet_committee,
    dominance_pairs,
    dp_level,
    enumerate_neighbors,
    Instance,
    random_instance,
    uniform_distribution,
    witness,
    WitnessId,
)
import dpabc
from dpabc import axioms
from dpabc.axioms import (
    JR_FAMILY,
    _approval_counts,
    _at_least,
    _ballot_mask,
    _ballot_types,
    _cohesive_groups,
    _mask,
    _pjr_groups,
)
from dpabc.core import ResourceLimitError, canonical_committees
from dpabc.instances import DEFAULT_PARAMETERS

from brute import (
    av_score,
    brute_condorcet,
    brute_satisfies,
    cohesive_witnesses,
    pareto_dominates,
    permute,
    permute_committee,
)
from strategies import grouped_instance, instances, instances_with_permutation
from witnesses import companion, tagged


def cohesive_walk(inst, top):
    """``_cohesive_groups`` over ``_ballot_types(inst)``, each ``V_T`` read as
    a set of voter indices: bit j of ``V_T`` is the j-th voter when the voters
    are listed type by type, types by ballot mask and voters in index order."""
    order = sorted(range(inst.n), key=lambda i: sum(1 << a for a in inst.ballots[i]))
    return [
        (ell, core, frozenset(order[j] for j in range(inst.n) if voters >> j & 1))
        for ell, core, voters in _cohesive_groups(inst, _ballot_types(inst), top)
    ]


def dominance_committee_pairs(inst):
    """The successor table flattened into (dominator, dominated) committee
    pairs, read entry by entry."""
    committees = canonical_committees(inst.m, inst.k)
    return [
        (committees[i], committees[j])
        for i, row in enumerate(dominance_pairs(inst))
        for j in row
    ]


class TestCohesiveWitnesses:
    def test_jr_upper_single_witness(self):
        w = witness(WitnessId.JR_UPPER)
        found = cohesive_witnesses(w.inst, 1)
        assert len(found) == 1
        assert found[0].core_alternatives == frozenset({0})
        assert found[0].voters == frozenset({0, 1})

    def test_unanimous_singleton(self):
        inst = Instance([{0}] * 4, 3, 1)
        found = cohesive_witnesses(inst, 1)
        assert len(found) == 1
        assert found[0].core_alternatives == frozenset({0})
        assert found[0].voters == frozenset(range(4))

    def test_fig3_two_cohesive(self):
        w = witness(WitnessId.FIG3_DIVERGENCE)
        found = cohesive_witnesses(w.inst, 2)
        assert len(found) == 1
        assert found[0].core_alternatives == frozenset({2, 3})
        assert found[0].voters == frozenset(range(4))

    def test_ell_out_of_range(self):
        inst = Instance([{0}], 3, 1)
        with pytest.raises(InvalidParametersError):
            cohesive_witnesses(inst, 2)
        with pytest.raises(InvalidParametersError):
            cohesive_witnesses(inst, 0)

    def test_threshold_is_exact_rational(self):
        # n=3, k=2: 1-cohesive needs k*|V| >= n, i.e. |V| >= 1.5, so |V| >= 2
        inst = Instance([{0}, {0}, {1}], 3, 2)
        found = cohesive_witnesses(inst, 1)
        assert [sorted(w.voters) for w in found] == [[0, 1]]

    @settings(max_examples=100, deadline=None)
    @given(instances(max_m=6, max_n=8, max_k=3))
    def test_walk_yields_the_maximal_groups_of_every_size(self, inst):
        # the depth-first walk behind JR and EJR against the definition
        groups = cohesive_walk(inst, inst.k)
        for ell in range(1, inst.k + 1):
            walked = [
                (frozenset(a for a in range(inst.m) if core >> a & 1), voters)
                for size, core, voters in groups
                if size == ell
            ]
            expected = [(w.core_alternatives, w.voters) for w in cohesive_witnesses(inst, ell)]
            assert walked == expected, ell


class TestSatisfiesAxiom:
    def test_jr_upper_membership_flips_across_neighbor(self):
        wid = WitnessId.JR_UPPER
        w = witness(wid)
        committee = tagged(wid, *DEFAULT_PARAMETERS[wid])["W"]
        assert committee in axiom_committee_set(w.inst, Axiom.JR)
        assert committee not in axiom_committee_set(companion(wid, w.inst), Axiom.JR)

    def test_fig3_pjr_without_ejr(self):
        wid = WitnessId.FIG3_DIVERGENCE
        w = witness(wid)
        tags = tagged(wid, *DEFAULT_PARAMETERS[wid])
        w_1, w_2 = tags["W_1"], tags["W_2"]
        assert w_2 in axiom_committee_set(w.inst, Axiom.PJR)
        assert w_2 not in axiom_committee_set(w.inst, Axiom.EJR)
        assert w_1 in axiom_committee_set(w.inst, Axiom.EJR)

    def test_full_committee_satisfies_everything(self):
        inst = Instance([{0, 1}, {2}, {0}], 3, 3)
        for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
            assert (0, 1, 2) in axiom_committee_set(inst, ax)

    def test_rejects_efficiency_axioms(self):
        inst = Instance([{0}], 3, 1)
        with pytest.raises(InvalidParametersError, match="for JR/PJR/EJR only"):
            axiom_committee_set(inst, Axiom.PE)


class TestAxiomCommitteeSet:
    def test_jr_upper_set_is_committees_containing_zero(self):
        w = witness(WitnessId.JR_UPPER)
        assert axiom_committee_set(w.inst, Axiom.JR) == ((0, 1), (0, 2), (0, 3))

    def test_no_cohesive_group_means_all_satisfy(self):
        inst = Instance([{0}, {1}, {2}], 3, 1)
        assert axiom_committee_set(inst, Axiom.JR) == ((0,), (1,), (2,))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_m=6, max_n=8, max_k=3))
    def test_hierarchy(self, inst):
        ejr = set(axiom_committee_set(inst, Axiom.EJR))
        pjr = set(axiom_committee_set(inst, Axiom.PJR))
        jr = set(axiom_committee_set(inst, Axiom.JR))
        assert ejr <= pjr <= jr


class TestParetoDominance:
    def test_irreflexive(self):
        w = witness(WitnessId.PE_CHAIN)
        assert not pareto_dominates((0, 1), (0, 1), w.inst.ballots)

    def test_chain_head(self):
        w = witness(WitnessId.PE_CHAIN)
        tags = tagged(WitnessId.PE_CHAIN, *DEFAULT_PARAMETERS[WitnessId.PE_CHAIN])
        assert pareto_dominates(tags["W_1_1"], tags["W_1_2"], w.inst.ballots)
        assert not pareto_dominates(tags["W_1_2"], tags["W_1_1"], w.inst.ballots)

    @settings(max_examples=30, deadline=None)
    @given(instances(max_m=5, max_n=5))
    def test_strict_partial_order(self, inst):
        committees = canonical_committees(inst.m, inst.k)
        dominates = {
            (a, b)
            for a in committees
            for b in committees
            if pareto_dominates(a, b, inst.ballots)
        }
        for a in committees:
            assert (a, a) not in dominates
        for a, b in dominates:
            assert (b, a) not in dominates
        for (a, b), (c, d) in itertools.product(dominates, repeat=2):
            if b == c:
                assert (a, d) in dominates

    @settings(max_examples=30, deadline=None)
    @given(instances(max_m=5, max_n=5))
    # the axioms_scaling bench profiles, m = 7..12, where the score filter
    # skips the most pairs (11,652 dominance pairs at m = 12)
    @example(random_instance(7, 13, 3, BallotModel("impartial", 0.3), 2))
    @example(random_instance(8, 12, 4, BallotModel("impartial", 0.3), 3))
    @example(random_instance(9, 11, 4, BallotModel("impartial", 0.3), 9))
    @example(random_instance(10, 10, 4, BallotModel("impartial", 0.3), 1))
    @example(random_instance(11, 9, 4, BallotModel("impartial", 0.3), 1))
    @example(random_instance(12, 8, 4, BallotModel("impartial", 0.3), 1))
    def test_dominance_pairs_match_predicate(self, inst):
        # the PE level keeps the first minimal pair, so the order matters too
        expected = [
            (a, b)
            for a, b in itertools.permutations(canonical_committees(inst.m, inst.k), 2)
            if pareto_dominates(a, b, inst.ballots)
        ]
        # one entry per committee; flattened, the pairs come in that order
        assert len(dominance_pairs(inst)) == len(canonical_committees(inst.m, inst.k))
        assert dominance_committee_pairs(inst) == expected


class TestAvScore:
    def test_disjoint_committee_scores_zero(self):
        assert av_score((2, 3), ({0, 1}, {0})) == 0

    def test_chain_scores(self):
        w = witness(WitnessId.PE_CHAIN)
        assert av_score((0, 1), w.inst.ballots) == 4
        assert av_score((0, 2), w.inst.ballots) == 3

    @settings(max_examples=40)
    @given(instances(max_m=5, max_n=6))
    def test_summation_orders_agree(self, inst):
        for w in canonical_committees(inst.m, inst.k):
            per_alternative = sum(
                sum(1 for b in inst.ballots if a in b) for a in w
            )
            assert av_score(w, inst.ballots) == per_alternative

    @settings(max_examples=60)
    @given(instances(max_m=8, max_n=10, max_k=4))
    def test_approval_counts_count_each_alternatives_approvers(self, inst):
        counts = _approval_counts(inst)
        assert len(counts) == inst.m
        for a in range(inst.m):
            assert counts[a] == sum(1 for b in inst.ballots if a in b)

    @settings(max_examples=30, deadline=None)
    @given(instances(max_m=5, max_n=5))
    def test_dominance_implies_strictly_greater_score(self, inst):
        for hi, lo in dominance_committee_pairs(inst):
            assert av_score(hi, inst.ballots) > av_score(lo, inst.ballots)


class TestCondorcet:
    def test_unanimous(self):
        inst = Instance([{0, 1}] * 3, 4, 2)
        assert condorcet_committee(inst) == (0, 1)

    def test_cc_upper_witness(self):
        w = witness(WitnessId.CC_UPPER)
        assert condorcet_committee(w.inst) == (0, 2)

    def test_disjoint_split_has_none(self):
        inst = Instance([{0}, {1}], 3, 1)
        assert condorcet_committee(inst) is None

    def test_exact_tie_blocks(self):
        # two voters, each preferring a different committee: no strict majority
        inst = Instance([{0, 1}, {2, 3}], 4, 2)
        assert condorcet_committee(inst) is None

    @settings(max_examples=40, deadline=None)
    @given(instances(max_m=5, max_n=6))
    def test_never_pareto_dominated(self, inst):
        winner = condorcet_committee(inst)
        if winner is not None:
            assert all(lo != winner for _, lo in dominance_committee_pairs(inst))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_m=5, max_n=6))
    def test_matches_brute_force(self, inst):
        assert condorcet_committee(inst) == brute_condorcet(inst)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_on_repeated_ballots(self, seed):
        # a few shared ballots per profile, so ballot types carry several voters
        m = 3 + seed % 4
        inst = grouped_instance(m, 4 + seed % 6, 1 + seed % (m - 1), 0.5, 1 + seed % 3, seed)
        assert len(set(inst.ballots)) < inst.n
        assert condorcet_committee(inst) == brute_condorcet(inst)

    def test_condorcet_committee_last_in_canonical_order(self):
        # (2, 3) is the last of the C(4, 2) committees; the elimination scan
        # must switch to it at its final step
        inst = Instance([{2, 3}, {2, 3}, {0}], 4, 2)
        assert canonical_committees(4, 2)[-1] == (2, 3)
        assert condorcet_committee(inst) == brute_condorcet(inst) == (2, 3)

    def test_elimination_survivor_on_a_cycle_is_rejected(self):
        # an elimination scan over every committee would end on (3, 4, 5),
        # which sits on the majority cycle (3, 4, 5) > (1, 2, 3) > (0, 1, 4)
        # > (3, 4, 5); only alternatives 0 and 3 have two approvals of three,
        # fewer than k, so condorcet_committee returns None before any scan
        inst = Instance([{0, 1, 2, 3}, {0, 4}, {3, 5}], 6, 3)

        def beats(w1, w2):
            wins = sum(len(b & set(w1)) > len(b & set(w2)) for b in inst.ballots)
            return 2 * wins > inst.n

        cycle = [(3, 4, 5), (1, 2, 3), (0, 1, 4)]
        assert all(beats(cycle[i], cycle[(i + 1) % 3]) for i in range(3))
        survivor = canonical_committees(6, 3)[0]
        for w in canonical_committees(6, 3)[1:]:
            if not beats(survivor, w):
                survivor = w
        assert survivor == cycle[0]
        assert [a for a, c in enumerate(_approval_counts(inst)) if 2 * c > inst.n] == [0, 3]
        assert condorcet_committee(inst) is None
        assert brute_condorcet(inst) is None

    def test_majority_scan_survivor_is_rejected(self):
        # alternatives 0 (4 of 5 voters) and 1 (3 of 5) pass the majority
        # filter; (0,) does not beat (1,), so the scan ends on (1,), which
        # the verification rejects: only voter 2 prefers it to (0,)
        inst = Instance([{0, 1}, {0, 1}, {1}, {0, 2}, {0}], 3, 1)
        assert _approval_counts(inst) == [4, 3, 1]
        assert condorcet_committee(inst) is None
        assert brute_condorcet(inst) is None

    def test_full_committee_is_condorcet(self):
        # k = m leaves one committee, with no other to beat, however few
        # voters approve its members
        inst = Instance([{0}, {1}, {2}], 3, 3)
        assert condorcet_committee(inst) == brute_condorcet(inst) == (0, 1, 2)

    @settings(max_examples=80, deadline=None)
    @given(instances(max_m=6, max_n=7, max_k=5))
    def test_members_are_majority_approved(self, inst):
        winner = condorcet_committee(inst)
        if winner is not None and inst.k < inst.m:
            counts = _approval_counts(inst)
            assert all(2 * counts[a] > inst.n for a in winner)

    @pytest.mark.parametrize("wid", [wid for wid in WitnessId if witness(wid).inst.m <= 6])
    def test_matches_brute_on_every_evaluated_neighbour(self, wid):
        for neighbour in audit_traffic(witness(wid).inst):
            assert condorcet_committee(neighbour) == brute_condorcet(neighbour), neighbour

    def test_incompatibility_witness_fails_jr(self):
        wid = WitnessId.CC_JR_INCOMPAT
        w = witness(wid)
        winner = condorcet_committee(w.inst)
        assert winner == tagged(wid, *DEFAULT_PARAMETERS[wid])["W_c"]
        assert winner not in axiom_committee_set(w.inst, Axiom.JR)


class TestNeutrality:
    @settings(max_examples=50, deadline=None)
    @given(instances_with_permutation(max_m=5, max_n=5), st.data())
    def test_checkers_commute_with_permutation(self, inst_sigma, data):
        inst, sigma = inst_sigma
        committees = canonical_committees(inst.m, inst.k)
        w = data.draw(st.sampled_from(committees))
        ax = data.draw(st.sampled_from([Axiom.JR, Axiom.PJR, Axiom.EJR]))
        assert (w in axiom_committee_set(inst, ax)) == (
            permute_committee(w, sigma) in axiom_committee_set(permute(inst, sigma), ax)
        )


# (m, k, approval probability, seed) of impartial profiles with n = 10 and
# 8-9 distinct ballots; between them they have committees violating JR, PJR
# but not JR, and EJR but not PJR
DIVERSE_PROFILES = [(6, 4, 0.3, 9), (7, 5, 0.3, 87), (7, 4, 0.5, 20)]


class TestAgainstBruteOracle:
    @settings(max_examples=40, deadline=None)
    @given(instances(max_m=5, max_n=5, max_k=3), st.data())
    def test_matches_raw_enumeration(self, inst, data):
        w = data.draw(st.sampled_from(canonical_committees(inst.m, inst.k)))
        for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
            assert (w in axiom_committee_set(inst, ax)) == brute_satisfies(w, inst, ax)

    @pytest.mark.parametrize("m, k, p, seed", DIVERSE_PROFILES)
    def test_every_committee_on_many_ballot_types(self, m, k, p, seed):
        inst = random_instance(m, 10, k, BallotModel("impartial", p), seed)
        assert len(set(inst.ballots)) >= 8
        for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
            expected = tuple(
                w for w in canonical_committees(m, k) if brute_satisfies(w, inst, ax)
            )
            assert axiom_committee_set(inst, ax) == expected

    @pytest.mark.parametrize("m, k, p, seed", DIVERSE_PROFILES)
    def test_replicated_voters_cross_a_word_of_voter_bits(self, m, k, p, seed):
        # seven copies of every voter scale both sides of each cohesiveness
        # threshold by 7, so the sets equal the original profile's; n = 70
        # voters do not fit in a 64-bit voter mask
        inst = random_instance(m, 10, k, BallotModel("impartial", p), seed)
        replicated = Instance([b for b in inst.ballots for _ in range(7)], m, k)
        assert replicated.n == 70
        for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
            expected = tuple(
                w for w in canonical_committees(m, k) if brute_satisfies(w, inst, ax)
            )
            assert axiom_committee_set(replicated, ax) == expected


def direct_violates(w, inst, ax):
    """JR/EJR by their reduction to maximal cohesive groups, with every core
    ``T`` enumerated: ``w`` violates iff the voters of some ``V_T`` with
    fewer than ``ell`` members of ``w`` number at least ``ell*n/k``."""
    top = 1 if ax is Axiom.JR else inst.k
    for ell in range(1, top + 1):
        for core in itertools.combinations(range(inst.m), ell):
            group = [b for b in inst.ballots if b.issuperset(core)]
            if inst.k * len(group) < ell * inst.n:
                continue
            short = sum(1 for b in group if len(b & frozenset(w)) < ell)
            if inst.k * short >= ell * inst.n:
                return True
    return False


def bloc_profile(m, n, k, seed):
    """Two thirds of the voters approve {0, 1} plus rare extras, the rest
    random ballots over the other alternatives: dozens of ballot types, and
    committees that ignore the bloc violate JR and EJR."""
    rng = random.Random(seed)
    ballots = []
    for i in range(n):
        p = 0.1 if i % 3 else 0.5
        extra = {a for a in range(2, m) if rng.random() < p}
        ballots.append(({0, 1} if i % 3 else set()) | extra or {m - 1})
    return Instance(ballots, m, k)


class TestBallotTypes:
    @settings(max_examples=100)
    @given(instances(max_m=5, max_n=12))
    def test_types_are_the_ballot_counts_by_mask(self, inst):
        counts = Counter(inst.ballots)
        expected = sorted((sum(1 << a for a in b), c) for b, c in counts.items())
        assert _ballot_types(inst) == expected
        assert all(_ballot_mask(b) == _mask(b) for b in counts)


class TestManyBallotTypes:
    """Profiles with far more ballot types than the brute oracle can take:
    the per-group counts run over dozens of types with multi-bit totals."""

    @pytest.mark.parametrize("m, n, k, seed", [(8, 60, 3, 1), (7, 90, 4, 2), (8, 45, 4, 3)])
    def test_jr_ejr_match_the_direct_reduction(self, m, n, k, seed):
        inst = bloc_profile(m, n, k, seed)
        assert len(set(inst.ballots)) >= 25
        committees = canonical_committees(m, k)
        for ax in (Axiom.JR, Axiom.EJR):
            expected = tuple(w for w in committees if not direct_violates(w, inst, ax))
            assert 0 < len(expected) < len(committees)
            assert axiom_committee_set(inst, ax) == expected


# prefix ballots {0..j}: a core's voters are those whose prefix reaches its
# largest member, so the cohesive groups of each ell form nested chains; in
# the second profile three more ballots add groups that overlap the chain
# without nesting in it, which pruning by overlap would drop
NESTED_CORE_PROFILES = [
    Instance([set(range(j + 1)) for j in range(8)] + [set(range(8))] * 2, 8, 4),
    Instance(
        [set(range(j + 1)) for j in range(7)] + [{2, 4, 5, 6}, {0, 2, 4, 6, 7}, {2, 5, 6}], 8, 4
    ),
]


class TestNestedCohesiveCores:
    """A group inside another of the same ell is dropped by testing it
    against the groups kept so far, visited by ell and size descending."""

    @pytest.mark.parametrize("inst", NESTED_CORE_PROFILES)
    def test_sets_match_brute(self, inst):
        groups = {(ell, v) for ell, _, v in cohesive_walk(inst, inst.k)}
        nested = [(ell, g) for ell, g in groups if any(e == ell and v > g for e, v in groups)]
        assert len(nested) >= 5 and len(nested) > len(groups) / 2
        committees = canonical_committees(inst.m, inst.k)
        for ax in JR_FAMILY:
            expected = tuple(w for w in committees if brute_satisfies(w, inst, ax))
            assert 0 < len(expected) < len(committees)
            assert axiom_committee_set(inst, ax) == expected


def distinct_ballot_profile(rng):
    """A profile over 4-6 alternatives whose 3-12 voters all cast different
    ballots, so every voter is a ballot type of its own."""
    m, n, k = rng.randint(4, 6), rng.randint(3, 12), rng.randint(1, 3)
    masks = rng.sample(range(1, 1 << m), n)
    return Instance([{a for a in range(m) if mask >> a & 1} for mask in masks], m, k)


class TestPjrOnDistinctBallots:
    """The PJR pass over ballot types where there are as many types as
    voters, against the raw definition over every voter subset."""

    def test_pjr_sets_match_brute(self):
        rng = random.Random(20261018)
        violators = 0
        for _ in range(150):
            inst = distinct_ballot_profile(rng)
            committees = canonical_committees(inst.m, inst.k)
            expected = tuple(w for w in committees if brute_satisfies(w, inst, Axiom.PJR))
            assert axiom_committee_set(inst, Axiom.PJR) == expected, inst
            violators += len(committees) - len(expected)
        assert violators > 0


class TestAtLeast:
    """The bit-sliced counter against a sum per committee, with rows that
    reach ``enough`` on their own taken by OR."""

    @staticmethod
    def summed(rows, size, enough):
        return sum(
            1 << i
            for i in range(size)
            if sum(count for bits, count in rows if bits >> i & 1) >= enough
        )

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_committee_sums(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 64)
        rows = [(rng.getrandbits(size), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))]
        top = max(count for _, count in rows)
        # 1: every row reaches it alone; 10 and up: no row does; the largest
        # count: that row does, and the others when they tie it
        for enough in (1, rng.randint(10, 20), top, rng.randint(1, 20)):
            assert _at_least(rows, enough) == self.summed(rows, size, enough), (rows, enough)

    def test_some_rows_alone(self):
        rows = [(0b0011, 5), (0b0110, 2), (0b1100, 2), (0b1000, 1)]
        # committee 0: 5; 1: 7; 2: 4; 3: 3
        assert _at_least(rows, 5) == 0b0011 == self.summed(rows, 4, 5)
        assert _at_least(rows, 4) == 0b0111 == self.summed(rows, 4, 4)
        assert _at_least(rows, 3) == 0b1111 == self.summed(rows, 4, 3)

    def test_no_rows(self):
        assert _at_least([], 1) == 0


class TestPjrWorkCaps:
    """Ballots {0, p} for p = 1..10 share alternative 0, and every set of
    them has its own (intersection, union): the PJR pass ends holding
    2^10 - 1 = 1023 states, after 2^j - 1 visits at ballot j + 1, 1013 in
    all."""

    INST = Instance([{0, p} for p in range(1, 11)], 11, 2)

    @pytest.mark.parametrize("cap, limit", [("PJR_STATE_MAX", 1023), ("PJR_VISIT_MAX", 1013)])
    def test_pass_reaches_exactly_the_cap(self, monkeypatch, cap, limit):
        expected = _pjr_groups(self.INST)
        monkeypatch.setattr(axioms, cap, limit)
        assert _pjr_groups(self.INST) == expected
        monkeypatch.setattr(axioms, cap, limit - 1)
        with pytest.raises(ResourceLimitError, match="PJR"):
            _pjr_groups(self.INST)


def audit_traffic(inst):
    """Every instance ``dp_level`` runs its rule on: ``inst``, then one
    neighbour per orbit of (ballot type, replacement) pairs under swapping
    twin alternatives and twin classes."""
    seen = []
    dp_level(lambda neighbour: seen.append(neighbour) or uniform_distribution(neighbour), inst)
    return seen


def multiset(inst):
    return frozenset(Counter(inst.ballots).items())


class TestAuditTrafficOracle:
    """The bitset JR/PJR/EJR sets on every distinct neighbour multiset of the
    instances the DP audit feeds the rr rules, which share the per-(m, k,
    ballot) tables; the audit itself runs the rules on fewer of them."""

    # rule calls per witness: one per orbit of (ballot type, replacement)
    TRAFFIC = {
        WitnessId.JR_UPPER: 30,
        WitnessId.PJR_UPPER: 42,
        WitnessId.EJR_UPPER: 10,
        WitnessId.PE_CHAIN: 32,
        WitnessId.CC_UPPER: 28,
        WitnessId.FIG3_DIVERGENCE: 10,
        WitnessId.CC_JR_INCOMPAT: 28,
    }

    @pytest.mark.parametrize("wid", [wid for wid in WitnessId if witness(wid).inst.m <= 6])
    def test_sets_match_brute_on_every_neighbour_multiset(self, wid):
        inst = witness(wid).inst
        neighbours = {multiset(nb): nb for _, nb in enumerate_neighbors(inst)}
        assert len(neighbours) == len(set(inst.ballots)) * (2**inst.m - 2)
        traffic = audit_traffic(inst)
        assert len(traffic) == 1 + self.TRAFFIC[wid]
        assert traffic[0] == inst
        assert {multiset(nb) for nb in traffic[1:]} <= neighbours.keys()
        committees = canonical_committees(inst.m, inst.k)
        for neighbour in (inst, *neighbours.values()):
            for ax in JR_FAMILY:
                members = axiom_committee_set(neighbour, ax)
                assert members == tuple(
                    w for w in committees if brute_satisfies(w, neighbour, ax)
                ), (neighbour, ax)


def test_every_module_table_is_bounded():
    # the (m, k)- and ballot-keyed tables live for the whole process
    tables = {
        f"{module.__name__}.{name}": fn
        for module in vars(dpabc).values()
        if isinstance(module, ModuleType)
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info")
    }
    for name in (
        "dpabc.core.canonical_committees",
        "dpabc.core.committee_index",
        "dpabc.axioms._committee_masks",
        "dpabc.axioms._ballot_table",
    ):
        assert name in tables
    for name, fn in tables.items():
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name
