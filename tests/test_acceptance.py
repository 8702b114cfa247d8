"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; the same checks back the ``dpabc reproduce`` command.
"""

import math
import time
from fractions import Fraction

from dpabc import (
    Axiom,
    BallotModel,
    BoundId,
    MECHANISMS,
    axiom_committee_set,
    bound_premises,
    check_bound,
    dp_level,
    make_rule,
    measure_levels,
    random_instance,
    rr_axiom_distribution,
    rr_condorcet_distribution,
    sample,
    witness,
    WitnessId,
)
from dpabc.core import canonical_committees
from dpabc.mechanisms import AUDIT_MECHANISMS, exp_av_distribution, splitmix64

from brute import (
    av_score,
    brute_satisfies,
    jr_probability_bound,
    pareto_dominates,
    permute,
    permute_committee,
)
from witnesses import pe_chain

TOL = 1e-9

TWO_WAY = (
    BoundId.JR_2WAY,
    BoundId.PJR_2WAY,
    BoundId.EJR_2WAY,
    BoundId.PE_2WAY,
    BoundId.CC_2WAY,
)
THREE_WAY = (
    BoundId.JR_PJR_3WAY,
    BoundId.JR_EJR_3WAY,
    BoundId.PJR_EJR_3WAY,
    BoundId.PE_JR_3WAY,
    BoundId.PE_PJR_3WAY,
    BoundId.PE_EJR_3WAY,
    BoundId.PE_CC_3WAY,
    BoundId.CC_JR_PRODUCT,
)


def _verdict(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {description}")
    assert not failures, failures[:10]


def _grid_failures(bound_ids):
    failures = []
    for wid in WitnessId:
        built = witness(wid)
        premises = bound_premises(built.inst)
        for mechanism in AUDIT_MECHANISMS:
            for eps in (Fraction("0.1"), Fraction(1), Fraction(2)):
                dist = MECHANISMS[mechanism](built.inst, eps)
                levels = measure_levels(dist)
                for bid in bound_ids:
                    result = check_bound(bid, levels, built.inst, premises)
                    if not result.vacuous and not result.satisfied:
                        failures.append(
                            (wid.value, mechanism, str(eps), bid.value,
                             *result.logs(eps))
                        )
    return failures


def test_criterion_1_randomized_response_tightness():
    started = time.perf_counter()
    failures = []
    built = witness(WitnessId.JR_UPPER)
    for eps in (Fraction("0.1"), Fraction("0.5"), Fraction(1), Fraction(2)):
        dist = rr_axiom_distribution(built.inst, eps, Axiom.JR)
        level = measure_levels(dist)[Axiom.JR]
        if level.coeff != Fraction(1, 2):
            failures.append(("jr level coeff", str(eps), level.coeff))
        report = dp_level(make_rule("rr-jr", eps), built.inst)
        if report.instances_checked != 56:
            failures.append(("neighbor count", report.instances_checked))
        if report.max_log_ratio > float(eps) + TOL:
            failures.append(("dp", str(eps), report.max_log_ratio))
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        failures.append(("runtime", elapsed))
    _verdict(1, "randomized response attains e^(eps/2)-JR and eps-DP on "
                "JR_UPPER over all 56 neighbors", failures)


def test_criterion_2_condorcet_response_tightness():
    started = time.perf_counter()
    failures = []
    built = witness(WitnessId.CC_UPPER)
    for eps in (Fraction("0.1"), Fraction("0.5"), Fraction(1), Fraction(2)):
        dist = rr_condorcet_distribution(built.inst, eps)
        level = measure_levels(dist)[Axiom.CC]
        if level.coeff != Fraction(1):
            failures.append(("cc level coeff", str(eps), level.coeff))
        report = dp_level(make_rule("rr-condorcet", eps), built.inst)
        if abs(report.max_log_ratio - float(eps)) > TOL:
            failures.append(("dp not tight", str(eps), report.max_log_ratio))
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        failures.append(("runtime", elapsed))
    _verdict(2, "Condorcet response attains e^eps-CC with privacy exactly eps "
                "on CC_UPPER", failures)


def test_criterion_3_av_exponential_on_chain():
    failures = []
    built = witness(WitnessId.PE_CHAIN)
    for eps in (Fraction("0.5"), Fraction(1)):
        dist = exp_av_distribution(built.inst, eps)
        level = measure_levels(dist)[Axiom.PE]
        if level.log_value < float(eps) / 4 - TOL:  # e^(eps/(2k)), k = 2
            failures.append(("pe level", str(eps), level.log_value))
        report = dp_level(make_rule("exp-av", eps), built.inst)
        if report.max_log_ratio > float(eps) + TOL:
            failures.append(("dp", str(eps), report.max_log_ratio))
    chain = pe_chain(built.inst.n, built.inst.k)
    scores = [av_score(c, built.inst.ballots) for c in chain]
    if scores != [4, 3, 2, 1, 0]:
        failures.append(("chain scores", scores))
    dominated = [
        pareto_dominates(hi, lo, built.inst.ballots)
        for hi, lo in zip(chain, chain[1:])
    ]
    if dominated != [True] * 4:
        failures.append(("chain dominance", dominated))
    _verdict(3, "AV exponential mechanism attains e^(eps/(2k))-PE and eps-DP "
                "on the 4-arrow dominance chain", failures)


def test_criterion_4_two_way_bound_compliance():
    started = time.perf_counter()
    failures = _grid_failures(TWO_WAY)
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _verdict(4, "all two-way bounds hold for every audited mechanism on every "
                "witness at eps in {0.1, 1, 2}", failures)


def test_criterion_5_three_way_bound_compliance():
    failures = _grid_failures(THREE_WAY)
    built = witness(WitnessId.CC_JR_INCOMPAT)
    for eps in (Fraction("0.1"), Fraction(1), Fraction(2)):
        dist = rr_condorcet_distribution(built.inst, eps)
        result = check_bound(
            BoundId.CC_JR_PRODUCT, measure_levels(dist), built.inst,
            bound_premises(built.inst),
        )
        if result.vacuous or result.lhs_coeff != 0 or abs(result.logs(eps)[0]) > TOL:
            failures.append(("cc-jr product not attained", str(eps), result))
    _verdict(5, "all three-way bounds hold on the grid and the CC*JR product "
                "bound is attained by the Condorcet response", failures)


def test_criterion_6_checker_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    words = splitmix64(20260810)
    for index in range(200):
        m = 3 + next(words) % 3           # 3..5
        n = 1 + next(words) % 6           # 1..6
        k = 1 + next(words) % min(3, m)   # 1..min(3, m)
        p = 0.3 + (next(words) % 5) / 10  # 0.3..0.7
        inst = random_instance(m, n, k, BallotModel("impartial", p), next(words))
        sets = {}
        for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
            members = set()
            satisfying = axiom_committee_set(inst, ax)
            for committee in canonical_committees(m, k):
                fast = committee in satisfying
                if fast != brute_satisfies(committee, inst, ax):
                    failures.append(("oracle mismatch", index, ax.value, committee))
                if fast:
                    members.add(committee)
            sets[ax] = members
        if not (sets[Axiom.EJR] <= sets[Axiom.PJR] <= sets[Axiom.JR]):
            failures.append(("hierarchy", index))
    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        failures.append(("runtime", elapsed))
    _verdict(6, "fast checkers agree with raw brute-force enumeration on 200 "
                "random instances and the EJR/PJR/JR hierarchy holds", failures)


def test_criterion_7_support_neutrality_spread():
    failures = []
    words = splitmix64(777)
    eps = Fraction(1)
    for index in range(50):
        m = 3 + next(words) % 3
        n = 1 + next(words) % 5
        k = 1 + next(words) % min(3, m)
        inst = random_instance(m, n, k, BallotModel("impartial", 0.5), next(words))
        sigma = list(range(m))
        for i in range(m - 1, 0, -1):  # seeded Fisher-Yates
            j = next(words) % (i + 1)
            sigma[i], sigma[j] = sigma[j], sigma[i]
        image = permute(inst, tuple(sigma))
        for name, factory in sorted(MECHANISMS.items()):
            dist = factory(inst, eps)
            if min(dist.probs) <= 0:
                failures.append(("support", index, name))
            spread = max(dist.log_probs) - min(dist.log_probs)
            if spread > n * float(eps) + TOL:
                failures.append(("spread", index, name, spread))
            mapped = factory(image, eps)
            for committee, p in zip(dist.committees, dist.probs):
                image_index = mapped.committees.index(permute_committee(committee, tuple(sigma)))
                q = mapped.probs[image_index]
                if abs(p - q) > TOL:
                    failures.append(("neutrality", index, name, committee, p - q))
                    break
    _verdict(7, "full support, permutation neutrality, and the n*eps "
                "log-probability spread cap hold on 50 random instances",
             failures)


def test_criterion_8_sampler_fidelity():
    failures = []
    built = witness(WitnessId.CC_UPPER)
    dist = rr_condorcet_distribution(built.inst, 1)
    draws = 100_000
    counts = {}
    for seed in range(draws):
        committee = sample(dist, seed)
        counts[committee] = counts.get(committee, 0) + 1
    for committee, p in zip(dist.committees, dist.probs):
        err = math.sqrt(p * (1 - p) / draws)
        observed = counts.get(committee, 0) / draws
        if abs(observed - p) > 3 * err:
            failures.append((committee, observed, p))
    _verdict(8, "empirical frequencies of 100000 seeded draws match the exact "
                "law within 3 standard errors", failures)


def test_criterion_9_jr_mass_bound():
    failures = []
    built = witness(WitnessId.JR_UPPER)
    jr_set = set(axiom_committee_set(built.inst, Axiom.JR))
    for eps in (Fraction("0.1"), Fraction("0.5"), Fraction(1), Fraction(2)):
        dist = rr_axiom_distribution(built.inst, eps, Axiom.JR)
        mass = sum(
            p for committee, p in zip(dist.committees, dist.probs)
            if committee in jr_set
        )
        bound = jr_probability_bound(
            math.exp(float(eps) / 2), len(jr_set), built.inst.m, built.inst.k
        )
        if abs(mass - bound.instance_specific) > 1e-12:
            failures.append(("mass vs specific bound", str(eps), mass))
        if mass < bound.instance_free - 1e-12:
            failures.append(("mass vs free bound", str(eps), mass))
    _verdict(9, "randomized response's JR mass equals the instance-specific "
                "bound and dominates the instance-free bound", failures)
