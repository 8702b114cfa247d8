"""Independent brute-force oracles.

These deliberately re-derive the axiom semantics from the raw definitions by
enumerating every voter subset (and every cohesiveness parameter), with no
shortcuts shared with the package implementation. They are the ground truth
the fast checkers are validated against. After them come the reference
predicates (AV score, Pareto dominance, profile distance, alternative
permutations), the DP audit's scan of twin-orbit neighbours walked over
all 2^m ballots, the maximal cohesive groups, the JR mass bound, a law's
exact probability-ratio coefficient, the sequential AV law summed over
every pick order, the sequential AV sampler walked pick by pick and the
``dpabc reproduce`` records with every law built afresh at each budget,
which tests compare the package's outputs with.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from dpabc import (
    MECHANISMS,
    Axiom,
    Instance,
    InvalidParametersError,
    WitnessId,
    bound_premises,
    cli,
    evaluate_bounds,
    measure_levels,
    witness,
)
from dpabc.mechanisms import as_epsilon, uniform_stream, weight_exponent


def brute_satisfies(w, inst, ax):
    """Raw-definition JR/PJR/EJR membership via exhaustive group enumeration."""
    wset = frozenset(w)
    n, k = inst.n, inst.k
    for r in range(1, n + 1):
        for voters in itertools.combinations(range(n), r):
            common = frozenset.intersection(*(inst.ballots[i] for i in voters))
            union = frozenset.union(*(inst.ballots[i] for i in voters))
            for ell in range(1, k + 1):
                if k * r < ell * n or len(common) < ell:
                    continue  # not ell-cohesive
                if ax is Axiom.JR:
                    if ell == 1 and all(not (inst.ballots[i] & wset) for i in voters):
                        return False
                elif ax is Axiom.PJR:
                    if len(wset & union) < ell:
                        return False
                elif ax is Axiom.EJR:
                    if all(len(inst.ballots[i] & wset) < ell for i in voters):
                        return False
    return True


def brute_condorcet(inst):
    """Condorcet committee by direct pairwise tallies over all committees."""
    committees = list(itertools.combinations(range(inst.m), inst.k))

    def beats(w1, w2):
        s1, s2 = frozenset(w1), frozenset(w2)
        wins = sum(1 for b in inst.ballots if len(b & s1) > len(b & s2))
        return wins * 2 > inst.n

    for w in committees:
        if all(w == other or beats(w, other) for other in committees):
            return w
    return None


def brute_longest_chain(inst, start_ok, end_ok):
    """Most dominance arrows on a chain from a ``start_ok`` committee to an
    ``end_ok`` one (-1 if none), by memoised depth-first search over
    ``pareto_dominates`` on every ordered committee pair."""
    committees = list(itertools.combinations(range(inst.m), inst.k))
    memo = {}

    def longest_from(w):
        # arrows on the longest chain from w to an end_ok committee, or None
        if w not in memo:
            best = 0 if end_ok(w) else None
            for lo in committees:
                if pareto_dominates(w, lo, inst.ballots):
                    tail = longest_from(lo)
                    if tail is not None and (best is None or tail + 1 > best):
                        best = tail + 1
            memo[w] = best
        return memo[w]

    lengths = [longest_from(w) for w in committees if start_ok(w)]
    return max((x for x in lengths if x is not None), default=-1)


def av_score(w, profile):
    """Total approval overlap: sum over voters of |ballot & w|."""
    wset = frozenset(w)
    return sum(len(frozenset(b) & wset) for b in profile)


def pareto_dominates(w1, w2, profile):
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


def profile_distance(p1, p2):
    """Number of voter positions on which two equal-length profiles differ."""
    if len(p1) != len(p2):
        raise InvalidParametersError(
            f"profiles have different lengths: {len(p1)} vs {len(p2)}"
        )
    return sum(1 for b1, b2 in zip(p1, p2) if frozenset(b1) != frozenset(b2))


def _check_permutation(sigma, m):
    if len(sigma) != m or sorted(sigma) != list(range(m)):
        raise InvalidParametersError(f"sigma is not a permutation of 0..{m - 1}: {sigma}")


def permute(inst, sigma):
    """Apply an alternative permutation elementwise to every ballot.

    ``sigma`` maps alternative ``a`` to ``sigma[a]``; ``n`` and ``k`` are
    unchanged."""
    _check_permutation(sigma, inst.m)
    return Instance(
        tuple(frozenset(sigma[a] for a in ballot) for ballot in inst.ballots),
        inst.m,
        inst.k,
    )


def permute_committee(committee, sigma):
    """Image of a committee under an alternative permutation, re-sorted."""
    return tuple(sorted(sigma[a] for a in committee))


def twin_classes(inst):
    """The alternatives grouped by the set of voters approving them, each
    class ascending, the classes in order of their least member."""
    classes = {}
    for a in range(inst.m):
        approvers = frozenset(v for v, ballot in enumerate(inst.ballots) if a in ballot)
        classes.setdefault(approvers, []).append(a)
    return list(classes.values())


def swap_generators(inst):
    """Every transposition of two twins (alternatives the same voters
    approve), then every member-for-member swap, in index order, of two
    equal-size twin classes that leaves the ballot multiset as it is; each
    as a permutation tuple."""
    identity = tuple(range(inst.m))

    def swapping(pairs):
        sigma = list(identity)
        for a, b in pairs:
            sigma[a], sigma[b] = b, a
        return tuple(sigma)

    classes = twin_classes(inst)
    generators = [swapping([pair]) for c in classes for pair in itertools.combinations(c, 2)]
    for c, d in itertools.combinations(classes, 2):
        sigma = swapping(zip(c, d))
        if len(c) == len(d) and Counter(permute(inst, sigma).ballots) == Counter(inst.ballots):
            generators.append(sigma)
    return generators


def first_ballots(inst):
    """The 2^m - 1 non-empty ballots walked in bitmask order, keeping the
    first of each count vector (its number of members in each twin class)."""
    classes = [frozenset(c) for c in twin_classes(inst)]
    firsts = {}
    for mask in range(1, 1 << inst.m):
        ballot = frozenset(a for a in range(inst.m) if mask >> a & 1)
        firsts.setdefault(tuple(len(ballot & c) for c in classes), ballot)
    return list(firsts.values())


def brute_scan(inst):
    """The (voter, replacement ballot) pairs an exhaustive DP audit that
    runs its rule once per orbit evaluates, in order. Each distinct ballot t
    is taken in order of first appearance, through its first voter, and
    paired with each of ``first_ballots`` but itself. A pair is skipped when
    its (t, replacement) lies in the orbit, under ``swap_generators``, of a
    pair taken before."""
    generators = swap_generators(inst)
    replacements = first_ballots(inst)
    seen = set()
    scan = []
    for t in dict.fromkeys(inst.ballots):
        for b in replacements:
            if b == t or (t, b) in seen:
                continue
            scan.append((inst.ballots.index(t), b))
            seen.add((t, b))
            frontier = [(t, b)]
            while frontier:
                x, y = frontier.pop()
                for g in generators:
                    image = (frozenset(g[a] for a in x), frozenset(g[a] for a in y))
                    if image not in seen:
                        seen.add(image)
                        frontier.append(image)
    return scan


@dataclass(frozen=True)
class CohesiveWitness:
    """A maximal l-cohesive group: the set of all voters approving every
    member of ``core_alternatives`` (with ``|core_alternatives| = ell``)."""

    ell: int
    core_alternatives: frozenset
    voters: frozenset


def cohesive_witnesses(inst, ell):
    """For every alternative set ``T`` with ``|T| = ell``, in lexicographic
    order, the maximal voter set ``V_T = {i : T subset P_i}``, kept whenever
    ``k*|V_T| >= ell*n``. Any l-cohesive group with common core ``T`` is a
    subset of ``V_T``."""
    if not 1 <= ell <= inst.k:
        raise InvalidParametersError(f"need 1 <= ell <= k, got ell={ell}, k={inst.k}")
    found = []
    for core in itertools.combinations(range(inst.m), ell):
        voters = frozenset(i for i, b in enumerate(inst.ballots) if b.issuperset(core))
        if inst.k * len(voters) >= ell * inst.n:
            found.append(CohesiveWitness(ell, frozenset(core), voters))
    return found


@dataclass(frozen=True)
class JrMassBound:
    """Lower bounds on the probability mass a rule puts on JR committees."""

    instance_specific: float
    instance_free: float


def jr_probability_bound(jr_level, jr_count, m, k):
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


def ratio_coeff(dist, numerator, denominator):
    """The exact coefficient ``c`` with P(numerator) / P(denominator) =
    e^(c * eps), from the law's integer scores."""
    i, j = dist.committees.index(numerator), dist.committees.index(denominator)
    return Fraction(dist.scores[i] - dist.scores[j], dist.scale)


def brute_sequential_law(inst, epsilon):
    """The k-round AV sampler's probability of each committee, in
    ``itertools.combinations`` order, by summing every ordered pick sequence:
    each round picks an unchosen alternative ``a`` with probability
    w_a / (sum of the unchosen weights), w_a = e^(approvals(a) * eps / (2k)).
    A committee whose probability underflows reads 0.0."""
    x, scale = float(epsilon), 2 * inst.k
    weights = [
        math.exp(sum(a in b for b in inst.ballots) * x / scale) for a in range(inst.m)
    ]
    mass = {w: 0.0 for w in itertools.combinations(range(inst.m), inst.k)}
    chosen = []

    def descend(remaining, prob):
        if len(chosen) == inst.k:
            mass[tuple(sorted(chosen))] += prob
            return
        total = sum(weights[b] for b in remaining)
        for a in remaining:
            chosen.append(a)
            descend([b for b in remaining if b != a], prob * weights[a] / total)
            chosen.pop()

    descend(list(range(inst.m)), 1.0)
    return list(mass.values())


def brute_sequential_sample(inst, epsilon, seed):
    """The k-round AV sampler written out: one splitmix64 uniform stream per
    draw, and each round a left-to-right walk over the unchosen alternatives
    that picks the first whose running weight exceeds the uniform times
    their total (the last unchosen one when rounding leaves the total at or
    below it). The total is added left to right from 0 too, not by ``sum()``,
    which is compensated from CPython 3.12 on, so the oracle names one draw
    on every interpreter."""
    x, scale = float(as_epsilon(epsilon)), 2 * inst.k
    weights = [
        math.exp(sum(a in b for b in inst.ballots) * x / scale) for a in range(inst.m)
    ]
    uniforms = uniform_stream(seed)
    chosen = []
    remaining = list(range(inst.m))
    for _ in range(inst.k):
        total = 0.0
        for a in remaining:
            total += weights[a]
        u = next(uniforms) * total
        acc = 0.0
        pick = remaining[-1]
        for a in remaining:
            acc += weights[a]
            if u < acc:
                pick = a
                break
        chosen.append(pick)
        remaining.remove(pick)
    return tuple(sorted(chosen))


def brute_reproduce(eps_values):
    """``dpabc reproduce --eps *eps_values`` as parsed JSON records, looping
    over every witness x ``cli.AUDIT_MECHANISMS`` x budget: each law is built,
    its levels measured and its bounds checked at that budget, and both log
    sides are read from those levels, not rescaled from another budget."""
    eps_values = [as_epsilon(e) for e in eps_values]
    records = []
    for wid in WitnessId:
        inst = witness(wid).inst
        premises = bound_premises(inst)
        for mechanism in cli.AUDIT_MECHANISMS:
            for eps in eps_values:
                levels = measure_levels(MECHANISMS[mechanism](inst, eps))
                for check in evaluate_bounds(levels, inst, premises):
                    lhs_log = math.inf
                    if not check.vacuous:
                        lhs_log = sum(weight * lv.log_value for lv, weight in check.terms)
                    rhs = check.rhs_coeff
                    records.append({
                        "record": "bound",
                        "witness": wid.value,
                        "mechanism": mechanism,
                        "eps": str(eps),
                        "bound": check.bound_id.value,
                        "lhs_log": lhs_log if math.isfinite(lhs_log) else "inf",
                        "rhs_log": weight_exponent(rhs.numerator, rhs.denominator, eps),
                        "lhs_coeff": None if check.lhs_coeff is None else str(check.lhs_coeff),
                        "rhs_coeff": str(rhs),
                        "satisfied": check.satisfied,
                        "vacuous": check.vacuous,
                        "note": check.note,
                        "attaining": [
                            {"level": lv.axiom.value, "pair": [list(w) for w in lv.attaining_pair]}
                            for lv, _ in check.terms
                        ],
                    })
    records.append({
        "record": "summary",
        "witnesses": len(WitnessId),
        "mechanisms": len(cli.AUDIT_MECHANISMS),
        "eps_grid": [str(e) for e in eps_values],
        "violations": sum(not r["satisfied"] for r in records),
    })
    return records
