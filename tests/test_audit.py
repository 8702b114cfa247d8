import functools
import gc
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpabc import (
    Axiom,
    BoundId,
    axiom_committee_set,
    condorcet_committee,
    dominance_pairs,
    InvalidParametersError,
    ResourceLimitError,
    check_bound,
    CommitteeDistribution,
    dp_level,
    enumerate_neighbors,
    evaluate_bounds,
    exp_av_distribution,
    Instance,
    make_rule,
    measure_levels,
    rr_axiom_distribution,
    rr_condorcet_distribution,
    uniform_distribution,
    witness,
    WitnessId,
)
from dpabc.audit import (
    NEIGHBOR_AUDIT_MAX_WORK,
    TOLERANCE,
    _longest_chain,
    bound_premises,
    neighbor_orbits,
)
from dpabc.axioms import JR_FAMILY, _av_scores
from dpabc.core import canonical_committees, nonempty_subsets
from dpabc.mechanisms import AUDIT_MECHANISMS, MECHANISMS, _from_scores

from brute import (
    brute_longest_chain,
    brute_scan,
    jr_probability_bound,
    pareto_dominates,
    permute,
    permute_committee,
    profile_distance,
    ratio_coeff,
    swap_generators,
    twin_classes,
)
from strategies import instances, instances_with_permutation, symmetric_instances
from witnesses import companion


class TestAxiomLevel:
    def test_uniform_is_one(self):
        w = witness(WitnessId.JR_UPPER)
        level = measure_levels(uniform_distribution(w.inst))[Axiom.JR]
        assert level.coeff == Fraction(0)
        assert level.log_value == 0.0
        assert not level.vacuous

    def test_randomized_response_attains_half_eps(self):
        w = witness(WitnessId.JR_UPPER)
        for eps in ("0.1", "0.5", "1", "2"):
            dist = rr_axiom_distribution(w.inst, eps, Axiom.JR)
            level = measure_levels(dist)[Axiom.JR]
            assert level.coeff == Fraction(1, 2)

    def test_pjr_level_of_jr_response_depends_on_gap(self):
        # on JR_UPPER the PJR and JR sets coincide, so the PJR level is still
        # e^(eps/2); on CC_JR_INCOMPAT a JR-but-not-PJR committee exists and
        # drags the measured level to 1
        w = witness(WitnessId.JR_UPPER)
        dist = rr_axiom_distribution(w.inst, 1, Axiom.JR)
        assert measure_levels(dist)[Axiom.PJR].coeff == Fraction(1, 2)

        w2 = witness(WitnessId.CC_JR_INCOMPAT)
        dist2 = rr_axiom_distribution(w2.inst, 1, Axiom.JR)
        assert measure_levels(dist2)[Axiom.PJR].coeff == Fraction(0)

    def test_vacuous_when_set_is_everything(self):
        w = witness(WitnessId.FIG3_DIVERGENCE)  # JR holds everywhere
        level = measure_levels(uniform_distribution(w.inst))[Axiom.JR]
        assert level.vacuous
        assert level.attaining_pair is None

    def test_attaining_pair_crosses_boundary(self):
        w = witness(WitnessId.JR_UPPER)
        dist = rr_axiom_distribution(w.inst, 1, Axiom.JR)
        lo, hi = measure_levels(dist)[Axiom.JR].attaining_pair
        assert 0 in lo and 0 not in hi


class TestPeLevel:
    def test_uniform_is_one(self):
        w = witness(WitnessId.PE_CHAIN)
        level = measure_levels(uniform_distribution(w.inst))[Axiom.PE]
        assert level.log_value == 0.0

    def test_exp_av_attains_min_gap(self):
        w = witness(WitnessId.PE_CHAIN)
        level = measure_levels(exp_av_distribution(w.inst, 1))[Axiom.PE]
        assert level.coeff == Fraction(1, 4)  # min AV gap 1, k = 2

    def test_vacuous_without_dominance_pairs(self):
        inst = Instance([{0, 1, 2}] * 2, 3, 2)  # all committees tie
        level = measure_levels(uniform_distribution(inst))[Axiom.PE]
        assert level.vacuous

    def test_float_tie_keeps_the_lower_index(self):
        # (0,) dominates (1,) and (2,); their log-probabilities differ, but
        # -1 less either rounds to -1.0, so the first pair in the row attains
        inst = Instance([{0}], 3, 1)
        assert dominance_pairs(inst) == ((1, 2), (), ())
        log_probs = (-1.0, -2e-17, -1e-17)
        committees = canonical_committees(3, 1)
        dist = CommitteeDistribution(inst, Fraction(1), committees, None, 1, log_probs)
        assert log_probs[0] - log_probs[1] == log_probs[0] - log_probs[2] == -1.0
        level = measure_levels(dist)[Axiom.PE]
        assert level.log_value == -1.0
        assert level.attaining_pair == ((0,), (1,))


class TestCcLevel:
    def test_mechanism_attains_full_eps(self):
        w = witness(WitnessId.CC_UPPER)
        for eps in ("0.1", "1", "2"):
            dist = rr_condorcet_distribution(w.inst, eps)
            assert measure_levels(dist)[Axiom.CC].coeff == Fraction(1)

    def test_uniform_is_one(self):
        w = witness(WitnessId.CC_UPPER)
        assert measure_levels(uniform_distribution(w.inst))[Axiom.CC].log_value == 0.0

    def test_vacuous_without_condorcet_committee(self):
        w = witness(WitnessId.JR_UPPER)
        assert measure_levels(uniform_distribution(w.inst))[Axiom.CC].vacuous


class TestDpLevel:
    def test_uniform_rule_leaks_nothing(self):
        w = witness(WitnessId.JR_UPPER)
        report = dp_level(make_rule("uniform", 1), w.inst)
        assert report.max_log_ratio == 0.0
        assert report.instances_checked == 4 * (2**4 - 2)

    def test_condorcet_response_is_tight_on_witness(self):
        w = witness(WitnessId.CC_UPPER)
        report = dp_level(make_rule("rr-condorcet", 1), w.inst)
        assert report.max_log_ratio == pytest.approx(1.0, abs=1e-9)
        voter, ballot, _ = report.attaining
        neighbor = w.inst.replace_ballot(voter, ballot)
        assert profile_distance(w.inst.ballots, neighbor.ballots) == 1

    def test_jr_response_within_budget(self):
        w = witness(WitnessId.PJR_UPPER)
        report = dp_level(make_rule("rr-jr", 1), w.inst)
        assert report.max_log_ratio <= 1 + 1e-9

    def test_policy_cap_names_limit(self):
        # 511 ballot types * (2^9 - 2) rule calls * C(9, 4) committees is
        # 32,836,860 committee evaluations, refused before any rule call
        inst = all_ballots(9, 4)

        def rule(x):
            raise AssertionError("the rule ran past the work cap")

        with pytest.raises(ResourceLimitError, match="4533900 committee evaluations, got 32836860"):
            dp_level(rule, inst)

    @pytest.mark.parametrize(
        "m, k, t, calls, per_call",
        [
            # 18,424 rule calls at m = k = 14: one committee per law, but
            # each call's EJR cores reach C(14, 7) = 3432 sets of one size
            (14, 14, 4, 18424, math.comb(14, 7)),
            # 452,746 rule calls at m = 10, k = 1: ten committees per law,
            # but a call is charged at least C(8, 4), so no admitted audit
            # makes more rule calls than 255 * 254, the most at m <= 8
            (10, 1, 443, 452746, math.comb(8, 4)),
        ],
    )
    def test_policy_cap_charges_each_call_its_largest_set_family(self, m, k, t, calls, per_call):
        masks = random.Random(0).sample(range(1, 1 << m), t)
        inst = Instance([{a for a in range(m) if mask >> a & 1} for mask in masks], m, k)
        assert predicted_rule_calls(inst) == calls
        assert calls * per_call > NEIGHBOR_AUDIT_MAX_WORK

        def rule(x):
            raise AssertionError("the rule ran past the work cap")

        with pytest.raises(ResourceLimitError, match=f"got {calls * per_call}$"):
            dp_level(rule, inst)

    def test_policy_cap_admits_its_own_value(self):
        # every ballot over 8 alternatives at k = 4 predicts exactly the cap,
        # the most work any profile with m <= 8 can predict
        inst = all_ballots(8, 4)
        assert predicted_rule_calls(inst) * math.comb(8, 4) == NEIGHBOR_AUDIT_MAX_WORK == 4533900
        assert dp_level(make_rule("uniform", 1), inst).neighbors_evaluated == 140

    def test_policy_cap_admits_a_small_scan_past_m_8(self):
        # one voter at m = 9: twin classes {0} and {1..8}, 2 * 9 - 2 rule calls
        report = dp_level(make_rule("uniform", 1), Instance([{0}], 9, 2))
        assert report.neighbors_evaluated == 16
        assert report.instances_checked == 2**9 - 2

    def test_unknown_mechanism_lists_valid_names(self):
        with pytest.raises(InvalidParametersError, match="'no-such-rule'; valid: exp-av, "):
            make_rule("no-such-rule", 1)

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_no_rule_keeps_a_neighbour_alive(self, mechanism):
        # an audit holds only the profile it audits: a rule that cached its
        # result by instance would keep every neighbour's n-tuple in memory
        inst = witness(WitnessId.CC_UPPER).inst
        rule, seen = make_rule(mechanism, 1), []

        def recording(x):
            seen.append(weakref.ref(x))
            return rule(x)

        report = dp_level(recording, inst)
        gc.collect()
        assert len(seen) == report.neighbors_evaluated + 1
        assert [r for r in seen if r() is not None and r() is not inst] == []

    def test_direction_symmetric_on_designed_pair(self):
        # auditing from either profile of the flip pair finds the same worst
        # ratio: the absolute log difference covers both directions
        inst = witness(WitnessId.CC_UPPER).inst
        rule = make_rule("rr-condorcet", 1)
        assert dp_level(rule, inst).max_log_ratio == pytest.approx(
            dp_level(rule, companion(WitnessId.CC_UPPER, inst)).max_log_ratio, abs=1e-12
        )


def all_ballots(m, k):
    """The profile of every non-empty ballot over m alternatives, one voter
    each, in bitmask order."""
    return Instance(list(nonempty_subsets(m)), m, k)


def predicted_rule_calls(inst):
    """The rule calls a scan over one replacement per twin-class count
    vector makes before joined classes merge any: t * (prod(|C| + 1) - 2)
    for t ballot types and twin classes C."""
    return len(set(inst.ballots)) * (math.prod(len(c) + 1 for c in twin_classes(inst)) - 2)


def full_neighborhood_audit(rule, inst):
    """Reference audit: the rule on every neighbor, no class skipped.
    Returns (max_log_ratio, attaining, neighbors checked)."""
    base = rule(inst)
    worst = 0.0
    attaining = None
    checked = 0
    for voter, neighbor in enumerate_neighbors(inst):
        checked += 1
        other = rule(neighbor)
        for idx, w in enumerate(base.committees):
            gap = abs(base.log_probs[idx] - other.log_probs[idx])
            if gap > worst:
                worst = gap
                attaining = (voter, neighbor.ballots[voter], w)
    return worst, attaining, checked


def swap_group(inst):
    """The alternative permutations, as tuples, generated by
    ``swap_generators(inst)``."""
    generators = swap_generators(inst)
    identity = tuple(range(inst.m))
    group, frontier = {identity}, [identity]
    while frontier:
        products = {tuple(g[a] for a in h) for h in frontier for g in generators}
        frontier = list(products - group)
        group |= products
    return group


def orbit_count(inst):
    """Neighbors the rule runs on: the orbits of (ballot type, replacement)
    pairs under ``swap_group(inst)``, less the empty ballot and each pair
    that gives a voter their own ballot."""
    group = swap_group(inst)
    seen = set()
    orbits = 0
    for t in set(inst.ballots):
        for b in nonempty_subsets(inst.m):
            if b != t and (t, b) not in seen:
                orbits += 1
                seen.update(
                    (frozenset(g[a] for a in t), frozenset(g[a] for a in b)) for g in group
                )
    return orbits


_SMALL_WITNESSES = [wid for wid in WitnessId if witness(wid).inst.m <= 6]


class TestDpLevelMatchesFullNeighborhood:
    # every witness x every audited rule at eps 1, and seq-av on an m=8
    # witness: on the m=8 witnesses many neighbours share a score vector, so
    # the law memo and dp_level's skip of repeated laws are exercised
    @pytest.mark.parametrize(
        "wid, mechanism, eps",
        [
            *(
                (wid, mechanism, eps)
                for wid in _SMALL_WITNESSES
                for mechanism in sorted(MECHANISMS)
                for eps in ("0.1", "1")
            ),
            *(
                (wid, mechanism, "1")
                for wid in WitnessId
                if wid not in _SMALL_WITNESSES
                for mechanism in AUDIT_MECHANISMS
            ),
            (WitnessId.PJR_EJR_3WAY, "seq-av", "1"),
        ],
    )
    def test_same_report_as_full_scan(self, wid, mechanism, eps):
        inst = witness(wid).inst
        rule = make_rule(mechanism, eps)
        report = dp_level(rule, inst)
        worst, attaining, checked = full_neighborhood_audit(rule, inst)
        assert report.max_log_ratio == worst
        assert report.attaining == attaining
        assert report.instances_checked == checked
        assert report.neighbors_evaluated == orbit_count(inst)

    @settings(max_examples=40, deadline=None)
    @given(
        instances(max_m=5, max_n=4),
        st.sampled_from(AUDIT_MECHANISMS + ("seq-av",)),
        st.sampled_from(("0.1", "1")),
    )
    def test_same_report_as_full_scan_on_random_profiles(self, inst, mechanism, eps):
        rule = make_rule(mechanism, eps)
        report = dp_level(rule, inst)
        worst, attaining, checked = full_neighborhood_audit(rule, inst)
        assert report.max_log_ratio == worst
        assert report.attaining == attaining
        assert report.instances_checked == checked
        assert report.neighbors_evaluated == orbit_count(inst)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_instances(max_m=5, max_n=3))
    def test_same_report_as_full_scan_on_symmetric_profiles(self, inst):
        # random profiles seldom have two classes whose swap fixes them
        evaluated = orbit_count(inst)
        for mechanism in sorted(MECHANISMS):
            rule = make_rule(mechanism, 1)
            report = dp_level(rule, inst)
            worst, attaining, checked = full_neighborhood_audit(rule, inst)
            assert (report.max_log_ratio, report.attaining) == (worst, attaining), mechanism
            assert report.instances_checked == checked
            assert report.neighbors_evaluated == evaluated


# (ballots, m, k, neighbours evaluated) for the twin-orbit edge cases
_EDGE_PROFILES = [
    # every voter approves everything: one class of size m, so the
    # orbits are the replacement sizes 1..m-1
    ([{0, 1, 2, 3, 4}] * 3, 5, 2, 5 - 1),
    # k = m: one committee, still one class per approver set
    ([{0, 1}, {2}, {0, 1, 3}], 4, 4, 3 * (3 * 2 * 2 - 2)),
    # no twins: every replacement is its own orbit
    ([{0}, {0, 1}, {0, 1, 2}], 3, 2, 3 * (2**3 - 2)),
    # two joined classes of size 2: both types lie in one orbit, and
    # a replacement counts its members per class, 3 * 3 - 2 orbits
    ([{0, 1}, {2, 3}], 4, 2, 3 * 3 - 2),
    # every ballot over 5 alternatives: all 5 singleton classes are
    # joined, and an orbit is (|t|, |b|, |t & b|) for t != b
    ([set(c) for r in range(1, 6) for c in itertools.combinations(range(5), r)], 5, 2, 40),
    # the rotation (0 1 2)(3 4 5) fixes the ballot multiset, but no
    # swap of two classes does: the audit uses only a subgroup of
    # the symmetries and evaluates all 3 * (2^6 - 2) neighbours
    ([{0, 1, 3}, {1, 2, 4}, {2, 0, 5}], 6, 2, 3 * (2**6 - 2)),
    # unapproved alternatives: no ballot holds the class {3, 4, 5}
    ([{0, 1}, {0, 1}, {2}], 6, 2, 2 * (3 * 2 * 4 - 2)),
]


class TestTwinOrbits:
    """dp_level runs the rule once per orbit of (ballot type, replacement)
    pairs under swapping twin alternatives (approved by the same voters) and
    swapping equal-size twin classes where that fixes the ballot multiset."""

    @pytest.mark.parametrize("ballots, m, k, evaluated", _EDGE_PROFILES)
    def test_edge_profiles_match_full_scan(self, ballots, m, k, evaluated):
        inst = Instance(ballots, m, k)
        assert orbit_count(inst) == evaluated
        for mechanism in sorted(MECHANISMS):
            rule = make_rule(mechanism, 1)
            report = dp_level(rule, inst)
            worst, attaining, checked = full_neighborhood_audit(rule, inst)
            assert (report.max_log_ratio, report.attaining) == (worst, attaining), mechanism
            assert report.instances_checked == checked
            assert report.neighbors_evaluated == evaluated

    def test_witness_grid_count(self):
        # 532 rule calls per rule on the 9 witnesses, against 764 with one per
        # ballot type and twin orbit of replacements, and 1876 with one per
        # ballot type and replacement
        insts = [witness(wid).inst for wid in WitnessId]
        reports = [dp_level(make_rule("uniform", 1), inst) for inst in insts]
        assert [r.neighbors_evaluated for r in reports] == [orbit_count(i) for i in insts]
        assert sum(r.neighbors_evaluated for r in reports) == 532

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(instances(max_m=8, max_n=6), symmetric_instances(max_m=8, max_n=3)))
    def test_predicted_rule_calls_bound_the_scan(self, inst):
        # the work cap's count of rule calls is an upper bound, exact unless
        # some swap of two twin classes fixes the ballot multiset
        predicted = predicted_rule_calls(inst)
        evaluated = len(neighbor_orbits(inst))
        assert evaluated <= predicted
        transpositions = sum(math.comb(len(c), 2) for c in twin_classes(inst))
        if len(swap_generators(inst)) == transpositions:
            assert evaluated == predicted


def recorded_scan(inst):
    """The (voter, replacement ballot) pairs ``dp_level`` runs its rule on,
    in order, read off a rule that records every instance it is given."""
    given_instances = []

    def rule(x):
        given_instances.append(x)
        return uniform_distribution(x)

    dp_level(rule, inst)
    scan = []
    for x in given_instances[1:]:
        (voter,) = (v for v in range(inst.n) if x.ballots[v] != inst.ballots[v])
        scan.append((voter, x.ballots[voter]))
    return scan


# (witness, neighbours evaluated) for each witness at m = 10
_M10_PAIRS = [
    (WitnessId.JR_UPPER, 102),
    (WitnessId.PJR_UPPER, 186),
    (WitnessId.EJR_UPPER, 34),
    (WitnessId.PE_CHAIN, 92),
    (WitnessId.CC_UPPER, 124),
    (WitnessId.JR_PJR_3WAY, 426),
    (WitnessId.PJR_EJR_3WAY, 118),
    (WitnessId.FIG3_DIVERGENCE, 82),
    (WitnessId.CC_JR_INCOMPAT, 156),
]


class TestNeighborOrbits:
    """neighbor_orbits builds each count vector's replacement from the lowest
    members of every twin class; the (voter, replacement) pairs it lists, in
    order, are those of ``brute_scan``, which walks all 2^m ballots. No rule
    runs."""

    @pytest.mark.parametrize("ballots, m, k, evaluated", _EDGE_PROFILES)
    def test_edge_profiles(self, ballots, m, k, evaluated):
        inst = Instance(ballots, m, k)
        scan = neighbor_orbits(inst)
        assert scan == brute_scan(inst)
        assert len(scan) == evaluated

    def test_witnesses(self):
        for wid in WitnessId:
            inst = witness(wid).inst
            assert neighbor_orbits(inst) == brute_scan(inst), wid

    @pytest.mark.parametrize("wid, pairs", _M10_PAIRS)
    def test_witnesses_past_m_8(self, wid, pairs):
        # brute_scan walks all 2^m ballots: 0.1 s at m = 10, seconds at m = 14
        inst = witness(wid, m=10).inst
        scan = neighbor_orbits(inst)
        assert scan == brute_scan(inst)
        assert len(scan) == pairs

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(instances(max_m=8, max_n=6), symmetric_instances(max_m=8, max_n=3)))
    def test_random_profiles(self, inst):
        assert neighbor_orbits(inst) == brute_scan(inst)


class TestScanOrder:
    """dp_level runs its rule on exactly the neighbours ``neighbor_orbits``
    lists, in order, read off a rule that records every instance it is
    given."""

    @pytest.mark.parametrize("ballots, m, k, evaluated", _EDGE_PROFILES)
    def test_edge_profiles(self, ballots, m, k, evaluated):
        inst = Instance(ballots, m, k)
        assert recorded_scan(inst) == neighbor_orbits(inst)

    def test_witnesses(self):
        for wid in WitnessId:
            inst = witness(wid).inst
            assert recorded_scan(inst) == neighbor_orbits(inst), wid

    @pytest.mark.parametrize("wid, pairs", _M10_PAIRS)
    def test_witnesses_past_m_8(self, wid, pairs):
        inst = witness(wid, m=10).inst
        scan = recorded_scan(inst)
        assert scan == neighbor_orbits(inst)
        assert len(scan) == pairs

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(instances(max_m=8, max_n=6), symmetric_instances(max_m=8, max_n=3)))
    def test_random_profiles(self, inst):
        assert recorded_scan(inst) == neighbor_orbits(inst)


class TestAnonymity:
    """dp_level evaluates the neighbors of one voter per ballot type, which is
    exact only for rules that depend on the ballot multiset alone."""

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_voter_order_does_not_change_the_law(self, mechanism):
        for wid in WitnessId:
            inst = witness(wid).inst
            dist = MECHANISMS[mechanism](inst, 1)
            ballots = inst.ballots
            for order in (ballots[::-1], ballots[1:] + ballots[:1]):
                other = MECHANISMS[mechanism](Instance(order, inst.m, inst.k), 1)
                assert other.log_probs == dist.log_probs
                assert other.scores == dist.scores


def assert_relabelled(mechanism, inst, sigma):
    """Relabelling the alternatives by ``sigma`` moves each committee's
    log-probability and score to the relabelled committee, bit for bit."""
    dist = MECHANISMS[mechanism](inst, 1)
    image = MECHANISMS[mechanism](permute(inst, sigma), 1)
    where = {w: i for i, w in enumerate(image.committees)}
    moved = [where[permute_committee(w, sigma)] for w in dist.committees]
    assert [image.log_probs[i] for i in moved] == list(dist.log_probs)
    if dist.scores is None:
        assert image.scores is None
    else:
        assert [image.scores[i] for i in moved] == list(dist.scores)


class TestNeutrality:
    """dp_level evaluates one neighbour per orbit under swapping twin
    alternatives and twin classes, which is exact only for rules whose law
    relabels with the alternatives bit for bit."""

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_relabelling_permutes_the_law_on_every_witness(self, mechanism):
        for wid in WitnessId:
            inst = witness(wid).inst
            for sigma in (tuple(range(inst.m))[::-1], tuple(range(1, inst.m)) + (0,)):
                assert_relabelled(mechanism, inst, sigma)

    @settings(max_examples=60, deadline=None)
    @given(instances_with_permutation(max_m=6, max_n=6), st.sampled_from(sorted(MECHANISMS)))
    def test_relabelling_permutes_the_law(self, inst_sigma, mechanism):
        assert_relabelled(mechanism, *inst_sigma)


class TestLevelInvariants:
    def test_randomized_response_attains_half_eps_on_every_proper_set(self):
        # whenever the targeted axiom's committee set is proper, the measured
        # level of the matching randomized response is exactly e^(eps/2)
        for wid in WitnessId:
            w = witness(wid)
            total = len(canonical_committees(w.inst.m, w.inst.k))
            for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
                members = axiom_committee_set(w.inst, ax)
                if not 0 < len(members) < total:
                    continue
                dist = rr_axiom_distribution(w.inst, "0.7", ax)
                assert measure_levels(dist)[ax].coeff == Fraction(1, 2), (wid, ax)

    def test_condorcet_response_privacy_tight_across_witness_family(self):
        for n, k, m in ((3, 2, 4), (5, 2, 4), (3, 3, 5)):
            w = witness(WitnessId.CC_UPPER, n=n, k=k, m=m)
            report = dp_level(make_rule("rr-condorcet", 1), w.inst)
            assert report.max_log_ratio == pytest.approx(1.0, abs=1e-9), (n, k, m)

    def test_exp_av_dominance_ratio_floor(self):
        # any dominance pair has AV gap >= 1, so the PE level of the AV
        # exponential mechanism is at least e^(eps/(2k)) whenever pairs exist
        for wid in WitnessId:
            w = witness(wid)
            level = measure_levels(exp_av_distribution(w.inst, 1))[Axiom.PE]
            if not level.vacuous:
                assert level.coeff >= Fraction(1, 2 * w.inst.k)

    def test_degenerate_full_committee_space_is_all_vacuous(self):
        inst = Instance([{0, 1}, {2}], 3, 3)  # k = m: one committee
        levels = measure_levels(uniform_distribution(inst))
        assert all(level.vacuous for level in levels.values())
        checks = evaluate_bounds(levels, inst, bound_premises(inst))
        assert all(c.vacuous for c in checks)
        assert all(c.satisfied for c in checks)


# every (m, n) of the swap-pair sweep; k runs over 1..m-1
SWAP_SHAPES = ((3, 2), (3, 3), (4, 2), (4, 3))


def neighbour_multisets(m, n):
    """Every unordered pair of n-ballot multisets over m alternatives that
    differ in one ballot, each multiset a sorted tuple of indices into
    ``nonempty_subsets(m)``."""
    types = range(2**m - 1)
    for profile in itertools.combinations_with_replacement(types, n):
        for out in set(profile):
            rest = list(profile)
            rest.remove(out)
            for ballot in types:
                other = tuple(sorted(rest + [ballot]))
                if other > profile:
                    yield profile, other


@functools.lru_cache(maxsize=None)
def axiom_roles(m, k, profile):
    """The profile's instance and, per axiom, what holds its roles: each
    JR-family committee set, the dominance pairs (by committee index) and
    the Condorcet committee."""
    ballots = tuple(nonempty_subsets(m))
    inst = Instance([ballots[i] for i in profile], m, k)
    roles = {ax: set(axiom_committee_set(inst, ax)) for ax in JR_FAMILY}
    roles[Axiom.PE] = {(i, j) for i, row in enumerate(dominance_pairs(inst)) for j in row}
    roles[Axiom.CC] = condorcet_committee(inst)
    return inst, roles


def swapped(ax, mine, theirs):
    """Whether two neighbours swap the roles of ``ax``: each side's set holds
    a committee the other's lacks, a dominance pair reverses, or both
    Condorcet committees exist and differ."""
    if ax in JR_FAMILY:
        return bool(mine - theirs and theirs - mine)
    if ax is Axiom.PE:
        return any((j, i) in theirs for i, j in mine)
    return None not in (mine, theirs) and mine != theirs


def swap_pair_sweep(rules):
    """Over every neighbour pair of SWAP_SHAPES at eps 1: the number of pairs
    swapping each axiom, and per (rule, axiom) the number whose levels
    multiply past e^(2 eps), compared exactly in ``coeff`` for a score rule
    and within TOLERANCE for seq-av."""
    swaps, violations, measured = Counter(), Counter(), {}

    def levels(rule, inst):
        if (rule, inst) not in measured:
            measured[rule, inst] = measure_levels(MECHANISMS[rule](inst, 1))
        return measured[rule, inst]

    for m, n in SWAP_SHAPES:
        for k in range(1, m):
            for pair in neighbour_multisets(m, n):
                (p, mine), (q, theirs) = (axiom_roles(m, k, profile) for profile in pair)
                axes = [ax for ax in Axiom if swapped(ax, mine[ax], theirs[ax])]
                swaps.update(axes)
                for rule, ax in itertools.product(rules, axes):
                    x, y = levels(rule, p)[ax], levels(rule, q)[ax]
                    if x.coeff is not None:
                        within = x.coeff + y.coeff <= 2
                    else:
                        within = x.log_value + y.log_value <= 2 + TOLERANCE
                    violations[rule, ax] += not within
    return swaps, +violations


class TestSwapPairs:
    """Neighbours P, P' swap an axiom's roles when some W is on the
    satisfying (dominating, Condorcet) side for P and some W' for P', and
    not the other way round. Then level(P) * level(P') <= (P(W) / P'(W)) *
    (P'(W') / P(W')), which an eps-DP rule keeps within e^(2 eps). This is
    a necessary condition only: the halved-scale exp-av passes it."""

    def test_every_rule_keeps_swapping_levels_within_twice_eps(self):
        swaps, violations = swap_pair_sweep(sorted(MECHANISMS))
        assert swaps == {Axiom.JR: 1650, Axiom.PJR: 1956, Axiom.EJR: 2040, Axiom.PE: 9564,
                         Axiom.CC: 33}
        assert violations == {}

    def test_pe_swaps_tie_on_every_shared_ballot(self):
        # with P = R + {c} and P' = R + {b}, W1 dominates W2 on P and W2
        # dominates W1 on P' exactly when they tie on every ballot of R, W1
        # meets c in more members and W2 meets b in more; so there are none
        # when c or b is in R, and committees group by their overlaps with R
        with_swaps = 0
        for m, n in SWAP_SHAPES:
            ballots = tuple(nonempty_subsets(m))
            for k in range(1, m):
                committees = [set(w) for w in canonical_committees(m, k)]
                for pair in neighbour_multisets(m, n):
                    (_, mine), (_, theirs) = (axiom_roles(m, k, profile) for profile in pair)
                    table = {(i, j) for i, j in mine[Axiom.PE] if (j, i) in theirs[Axiom.PE]}
                    (c,), (b,) = (Counter(x) - Counter(y) for x, y in (pair, pair[::-1]))
                    shared = set(Counter(pair[0]) - Counter([c]))
                    groups = {}
                    for i, w in enumerate(committees):
                        key = tuple(len(w & ballots[r]) for r in sorted(shared))
                        groups.setdefault(key, []).append(i)
                    meets = [(len(w & ballots[c]), len(w & ballots[b])) for w in committees]
                    predicted = {
                        (i, j)
                        for group in groups.values()
                        for i, j in itertools.permutations(group, 2)
                        if meets[i][0] > meets[j][0] and meets[j][1] > meets[i][1]
                    }
                    assert table == predicted, (m, n, k, pair)
                    assert not (predicted and {b, c} & shared), (m, n, k, pair)
                    with_swaps += bool(predicted)
        assert with_swaps == 9564

    def test_flags_exp_av_at_scale_one(self, monkeypatch):
        # with q = AV(W) the rule is only 2k*eps-DP
        monkeypatch.setitem(
            MECHANISMS,
            "exp-av",
            lambda inst, eps: _from_scores(inst, eps, _av_scores(inst), 1),
        )
        _, violations = swap_pair_sweep(["exp-av"])
        assert violations == {("exp-av", Axiom.PE): 108}


class TestBoundGrid:
    def test_half_eps_grid_has_no_violations(self):
        # complements the acceptance grid's {0.1, 1, 2} with eps = 0.5
        for wid in WitnessId:
            w = witness(wid)
            premises = bound_premises(w.inst)
            for mechanism in AUDIT_MECHANISMS:
                dist = MECHANISMS[mechanism](w.inst, "0.5")
                for result in evaluate_bounds(measure_levels(dist), w.inst, premises):
                    assert result.vacuous or result.satisfied, (
                        wid, mechanism, result.bound_id,
                    )


# the README's bound table: each row's right-hand side, in units of eps, at
# (n, k) = (7, 3), where ceil(n/k) = 3 and n/k rounded down is 2
_RHS_AT_7_3 = {
    BoundId.JR_2WAY: 1,
    BoundId.PJR_2WAY: 1,
    BoundId.EJR_2WAY: 3,
    BoundId.PE_2WAY: Fraction(1, 3),
    BoundId.CC_2WAY: 1,
    BoundId.JR_PJR_3WAY: 1,
    BoundId.JR_EJR_3WAY: 1,
    BoundId.PJR_EJR_3WAY: 3,
    BoundId.PE_JR_3WAY: 7,
    BoundId.PE_PJR_3WAY: 7,
    BoundId.PE_EJR_3WAY: 7,
    BoundId.PE_CC_3WAY: 7,
    BoundId.CC_JR_PRODUCT: 0,
}


class TestBoundTable:
    @pytest.mark.parametrize("bound_id", list(BoundId), ids=lambda b: b.value)
    def test_rhs_at_n_not_divisible_by_k(self, bound_id):
        assert bound_id.rhs(7, 3) == _RHS_AT_7_3[bound_id]


class TestSpread:
    @pytest.mark.parametrize("mechanism", AUDIT_MECHANISMS + ("seq-av",))
    def test_log_spread_cap_on_witnesses(self, mechanism):
        for wid in (WitnessId.JR_UPPER, WitnessId.CC_UPPER, WitnessId.PE_CHAIN):
            w = witness(wid)
            dist = MECHANISMS[mechanism](w.inst, 1)
            assert max(dist.log_probs) - min(dist.log_probs) <= w.inst.n * 1.0 + 1e-9


def checked(bound_id, dist):
    """``bound_id`` checked against ``dist``'s levels at eps 1."""
    inst = dist.instance
    return check_bound(bound_id, measure_levels(dist), inst, bound_premises(inst))


class TestCheckBound:
    def test_two_way_jr_satisfied_with_margin(self):
        w = witness(WitnessId.JR_UPPER)
        dist = rr_axiom_distribution(w.inst, 1, Axiom.JR)
        check = checked(BoundId.JR_2WAY, dist)
        assert check.satisfied and not check.vacuous
        assert check.lhs_coeff == Fraction(1, 2)
        assert check.rhs_coeff == Fraction(1)

    def test_cc_jr_product_tight_on_incompatibility_witness(self):
        w = witness(WitnessId.CC_JR_INCOMPAT)
        dist = rr_condorcet_distribution(w.inst, 1)
        check = checked(BoundId.CC_JR_PRODUCT, dist)
        assert check.satisfied and not check.vacuous
        assert check.lhs_coeff == Fraction(0)  # cc level e^eps, jr level e^-eps
        assert abs(check.logs(dist.epsilon)[0]) <= 1e-9

    def test_cc_jr_product_vacuous_when_winner_satisfies_jr(self):
        w = witness(WitnessId.CC_UPPER)  # its Condorcet committee satisfies JR
        dist = rr_condorcet_distribution(w.inst, 1)
        check = checked(BoundId.CC_JR_PRODUCT, dist)
        assert check.vacuous

    def test_ejr_two_way_scales_with_ceil(self):
        w = witness(WitnessId.EJR_UPPER)  # n=4, k=2 -> ceil(n/k) = 2
        dist = uniform_distribution(w.inst)
        check = checked(BoundId.EJR_2WAY, dist)
        assert check.rhs_coeff == Fraction(2)
        assert check.satisfied

    def test_pe_family_requires_chain_structure(self):
        w = witness(WitnessId.PJR_EJR_3WAY)
        dist = exp_av_distribution(w.inst, 1)
        check = checked(BoundId.PE_CC_3WAY, dist)
        assert check.vacuous
        assert "dominance chain" in check.note

    def test_pe_cc_applicable_on_single_voter_instance(self):
        inst = Instance([{0, 1}], 5, 2)  # W_c exists; chain of nk-1 = 1 arrow
        dist = exp_av_distribution(inst, 1)
        check = checked(BoundId.PE_CC_3WAY, dist)
        assert not check.vacuous
        assert check.satisfied
        assert check.note == "checked in the satisfiable direction"
        assert check.lhs_coeff == Fraction(1, 2)  # pe^(nk-1) * cc = e^(eps/4) * e^(eps/4)

    def test_pe_jr_applicable_on_chain_witness(self):
        w = witness(WitnessId.PE_CHAIN)
        dist = exp_av_distribution(w.inst, 1)
        check = checked(BoundId.PE_JR_3WAY, dist)
        assert not check.vacuous
        assert check.satisfied
        assert check.lhs_coeff == Fraction(1)  # 3 * 1/4 + 1/4
        assert check.rhs_coeff == Fraction(2)

    def test_missing_measurement_names_level(self):
        w = witness(WitnessId.JR_UPPER)
        with pytest.raises(InvalidParametersError, match="jr"):
            check_bound(BoundId.JR_2WAY, {}, w.inst, bound_premises(w.inst))

    def test_premises_cover_whole_table(self):
        assert list(bound_premises(witness(WitnessId.PE_CHAIN).inst)) == list(BoundId)

    def test_inexact_levels_refuse_another_eps(self):
        # seq-av has no scores: its levels and checks hold at eps 1 only
        inst = witness(WitnessId.PE_CHAIN).inst
        levels = measure_levels(MECHANISMS["seq-av"](inst, 1))
        level = next(lv for lv in levels.values() if not lv.vacuous)
        assert level.coeff is None and level.log_at(Fraction(1)) == level.log_value
        check = check_bound(BoundId.JR_2WAY, levels, inst, bound_premises(inst))
        assert not check.vacuous and check.lhs_coeff is None
        assert check.logs(Fraction(1))[0] == levels[Axiom.JR].log_value
        for stale in (level.log_at, check.logs):
            with pytest.raises(ValueError, match="measured at eps 1 has no value at 2"):
                stale(Fraction(2))

    def test_evaluate_bounds_covers_whole_table(self):
        w = witness(WitnessId.JR_UPPER)
        levels = measure_levels(uniform_distribution(w.inst))
        checks = evaluate_bounds(levels, w.inst, bound_premises(w.inst))
        assert {c.bound_id for c in checks} == set(BoundId)


_GRID = [
    (wid, mechanism, eps)
    for wid in WitnessId
    for mechanism in AUDIT_MECHANISMS
    for eps in ("0.1", "1")
]


def boundary_pairs(inst, ax):
    """Every (numerator, denominator) committee pair on the boundary of
    ``ax``, straight from the definitions; PE pairs in ``dominance_pairs``
    order (ordered committee pairs in canonical order)."""
    committees = canonical_committees(inst.m, inst.k)
    if ax in JR_FAMILY:
        members = set(axiom_committee_set(inst, ax))
        return [(a, b) for a in committees for b in committees if a in members and b not in members]
    if ax is Axiom.PE:
        return [
            (a, b)
            for a, b in itertools.permutations(committees, 2)
            if pareto_dominates(a, b, inst.ballots)
        ]
    winner = condorcet_committee(inst)
    return [(winner, b) for b in committees if winner is not None and b != winner]


class TestLevelScanOracle:
    """The level scans against a brute-force minimum of the exact ratio
    coefficient over each axiom's boundary pairs."""

    @pytest.mark.parametrize("wid, mechanism, eps", _GRID)
    def test_levels_equal_brute_minimum(self, wid, mechanism, eps):
        inst = witness(wid).inst
        dist = MECHANISMS[mechanism](inst, eps)
        for ax, level in measure_levels(dist).items():
            pairs = boundary_pairs(inst, ax)
            if not pairs:
                assert level.vacuous and level.coeff is None, ax
                continue
            coeffs = [ratio_coeff(dist, a, b) for a, b in pairs]
            low = min(coeffs)
            assert level.coeff == low, ax
            assert level.log_value == float(low * dist.epsilon), ax
            assert level.attaining_pair in pairs, ax
            assert ratio_coeff(dist, *level.attaining_pair) == low, ax
            if ax is Axiom.PE:
                assert level.attaining_pair == pairs[coeffs.index(low)]

    @pytest.mark.parametrize("mechanism", ["exp-av", "seq-av", "rr-jr", "rr-condorcet"])
    @settings(max_examples=100, deadline=None)
    @given(inst=instances(max_m=5, max_n=4))
    def test_attaining_pair_is_first_minimal_pair(self, mechanism, inst):
        dist = MECHANISMS[mechanism](inst, 1)
        weights = dist.log_probs if dist.scores is None else dist.scores
        index = dist.committees.index
        for ax, level in measure_levels(dist).items():
            pairs = boundary_pairs(inst, ax)
            gaps = [weights[index(a)] - weights[index(b)] for a, b in pairs]
            first = pairs[gaps.index(min(gaps))] if pairs else None
            assert level.attaining_pair == first, ax

    def test_float_law_levels_equal_brute_minimum(self):
        for wid in WitnessId:
            inst = witness(wid).inst
            dist = MECHANISMS["seq-av"](inst, 1)
            for ax, level in measure_levels(dist).items():
                index = dist.committees.index
                gaps = [
                    dist.log_probs[index(a)] - dist.log_probs[index(b)]
                    for a, b in boundary_pairs(inst, ax)
                ]
                assert level.coeff is None
                assert level.log_value == min(gaps, default=math.inf), (wid, ax)


class TestHoistedPremises:
    """Levels and premises measured once and shared by the whole table give
    the same checks as each ``check_bound`` measuring its own."""

    @pytest.mark.parametrize("wid, mechanism, eps", _GRID)
    def test_evaluate_bounds_equals_per_cell_checks(self, wid, mechanism, eps):
        inst = witness(wid).inst
        dist = MECHANISMS[mechanism](inst, eps)
        per_cell = [
            check_bound(b, measure_levels(dist), inst, bound_premises(inst))
            for b in BoundId
        ]
        assert evaluate_bounds(measure_levels(dist), inst, bound_premises(inst)) == per_cell


def chain_cases(inst):
    """(name, start_ok, end_ok) for every chain the PE 3-way bounds walk."""
    cases = []
    for partner in JR_FAMILY:
        members = set(axiom_committee_set(inst, partner))
        cases.append(
            (partner.value, lambda w, s=members: w in s, lambda w, s=members: w not in s)
        )
    winner = condorcet_committee(inst)
    if winner is not None:
        cases.append(("cc", lambda w: w != winner, lambda w: True))
    return cases


def expected_note(inst, name, chain):
    need = inst.n * inst.k
    if name == "cc":
        if chain >= need - 1:
            return None
        return (
            f"longest dominance chain starting off the Condorcet committee has "
            f"{max(chain, 0)} arrows, needs {need - 1}"
        )
    if chain >= need:
        return None
    return (
        f"longest dominance chain from a {name}-satisfying to a violating "
        f"committee has {max(chain, 0)} arrows, needs {need}"
    )


_CHAIN_BOUND = {
    "jr": BoundId.PE_JR_3WAY,
    "pjr": BoundId.PE_PJR_3WAY,
    "ejr": BoundId.PE_EJR_3WAY,
    "cc": BoundId.PE_CC_3WAY,
}


class TestDominanceChainOracle:
    """The chain walk over the successor table and the arrow counts in the
    vacuous notes against a depth-first search over ``pareto_dominates``."""

    def check(self, inst):
        premises = bound_premises(inst)
        for name, start_ok, end_ok in chain_cases(inst):
            chain = brute_longest_chain(inst, start_ok, end_ok)
            assert _longest_chain(inst, start_ok, end_ok) == chain, name
            note = premises[_CHAIN_BOUND[name]]
            assert note == expected_note(inst, name, chain), name

    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_witnesses(self, wid):
        self.check(witness(wid).inst)

    @settings(max_examples=200, deadline=None)
    @given(instances(max_m=5, max_n=4))
    def test_random_profiles(self, inst):
        self.check(inst)


class TestJrProbabilityBound:
    def test_level_one_gives_counting_bound(self):
        bound = jr_probability_bound(1.0, 3, 4, 2)
        assert bound.instance_specific == pytest.approx(0.5)
        assert bound.instance_free == pytest.approx(1 / 6)

    def test_full_set_gives_certainty(self):
        assert jr_probability_bound(2.0, 6, 4, 2).instance_specific == pytest.approx(1.0)

    def test_witness_value(self):
        bound = jr_probability_bound(math.exp(0.5), 3, 4, 2)
        assert bound.instance_specific == pytest.approx(0.6224593, abs=1e-6)

    def test_jr_count_out_of_range(self):
        with pytest.raises(InvalidParametersError):
            jr_probability_bound(1.0, 0, 4, 2)
        with pytest.raises(InvalidParametersError):
            jr_probability_bound(1.0, 7, 4, 2)

    def test_level_must_be_positive(self):
        with pytest.raises(InvalidParametersError):
            jr_probability_bound(0.0, 3, 4, 2)
