"""Randomized committee rules as exact distributions plus seeded samplers.

Every rule here returns a :class:`CommitteeDistribution` over the canonical
committee order. For the exponential-family rules the unnormalized weight of a
committee is ``e^(q * eps)`` with ``q = score / scale``: the rule's integer
score of the committee over one denominator per rule, so within-instance
probability ratios are exact log-weight differences; only the normalizer is
floating point, and it is an ``fsum``, correctly rounded whatever the order
of its terms. The rules only compute scores; ``_from_scores`` builds each law
and parses its budget once. A law is a function of ``(scores, scale, eps)``
alone, so its log-probabilities are built once per distinct score vector (a
small memo) and shared by every instance that yields that vector: on the DP
audit grid most neighbours of a randomized-response rule repeat a vector.

Every rule is anonymous: its law depends only on the multiset of ballots, not
on which voter cast which. Every rule is also neutral: relabelling the
alternatives relabels the committees of its law, bit for bit, since scores
are exact and every float sum is an ``fsum``. ``audit.dp_level`` relies on
both.

Rules:

* ``rr_axiom_distribution`` -- randomized response on a JR-family predicate:
  ``q = 1/2`` for committees satisfying the axiom, ``q = 0`` otherwise.
* ``exp_av_distribution`` -- committee-level exponential mechanism with the
  approval (AV) score as utility: ``q = AV(W) / (2k)``.
* ``seq-av`` -- the k-round without-replacement sampler that picks
  alternatives one at a time with per-alternative weights
  ``e^(approvals * eps / (2k))``. ``sample_sequential_av`` runs it, and
  ``dpabc sample`` draws with it; ``sequential_av_distribution`` is its exact
  law, which ``dist`` and the audits read. That law is close to, but not
  identical with, ``exp_av_distribution``; ``total_variation`` gives the gap.
* ``rr_condorcet_distribution`` -- randomized response on the Condorcet
  committee: ``q = 1`` for it, ``q = 0`` elsewhere; uniform when none exists.
* ``uniform_distribution`` -- instance-independent baseline.

Sampling uses splitmix64, a fixed 64-bit generator (Steele et al.'s constants):
state advances by 0x9E3779B97F4A7C15 and is finalized by two xor-shift
multiplies; uniforms take the top 53 bits, and the samplers advance that state
inline. Same (distribution, seed) always yields the same committee.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .axioms import Axiom, _approval_counts, _av_scores, _axiom_scores, _condorcet_index
from .core import Instance, InvalidParametersError, canonical_committees

RandomSeed = int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# limits nothing; bench/workloads.py reads it to pick the profiles of its exact-law checks
SEQUENTIAL_LAW_MAX_M = 8


def _mix(state: int) -> int:
    """splitmix64's finalizer: two xor-shift multiplies, then an xor-shift."""
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64(seed: RandomSeed) -> Iterator[int]:
    """Deterministic 64-bit stream; splittable by choice of seed."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        yield _mix(state)


def uniform_stream(seed: RandomSeed) -> Iterator[float]:
    """Uniforms in [0, 1) from the top 53 bits of splitmix64 words."""
    for word in splitmix64(seed):
        yield (word >> 11) * 2.0**-53


def as_epsilon(epsilon) -> Fraction:
    """Normalize a privacy budget to an exact positive rational.

    Strings are parsed as exact decimals (``"0.1" -> 1/10``) or ratios;
    floats go through their shortest decimal repr. Budgets that are 0, nan,
    beyond the float range either way, or too long to print are rejected.
    """
    if isinstance(epsilon, Fraction):
        eps = epsilon
    elif isinstance(epsilon, int):
        eps = Fraction(epsilon)
    elif isinstance(epsilon, (float, str)):
        text = str(epsilon)
        try:
            # float() sizes any exponent; Fraction("1e-99999999") builds 10**99999999
            in_range = "/" in text or 0 < abs(float(text)) < math.inf
            eps = Fraction(text) if in_range else None
            str(eps)  # ValueError past the interpreter's int-to-str digit limit
        except (ValueError, ZeroDivisionError):
            raise InvalidParametersError(f"cannot parse epsilon {epsilon!r}") from None
        if eps is None:
            raise InvalidParametersError(f"epsilon {epsilon!r} is 0, nan or beyond float range")
    else:
        raise InvalidParametersError(f"cannot parse epsilon {epsilon!r}")
    # a Fraction's denominator is positive; float(eps) is this int true division
    if eps.numerator <= 0:
        raise InvalidParametersError(f"epsilon must be positive, got {eps}")
    try:
        eps.numerator / eps.denominator
    except OverflowError:
        raise InvalidParametersError(f"epsilon {epsilon!r} exceeds the float range") from None
    return eps


def weight_exponent(numerator: int, denominator: int, eps: Fraction) -> float:
    """``float(numerator / denominator * eps)`` as one correctly rounded int
    true division, or a usage error when it does not fit in a finite float
    (a budget too large for the rule)."""
    try:
        return numerator * eps.numerator / (denominator * eps.denominator)
    except OverflowError:
        raise InvalidParametersError(
            f"epsilon too large: the weight exponent "
            f"{Fraction(numerator, denominator)}*eps overflows a float"
        ) from None


@dataclass(frozen=True, eq=False)
class CommitteeDistribution:
    """Exact distribution of a randomized rule on one instance.

    When the rule is exponential-family, ``scores`` holds its integer score
    of each committee and committee ``i`` has unnormalized weight
    ``e^(scores[i] * eps / scale)``; else ``scores`` is ``None`` (the
    sequential law) and ``log_probs`` carries the law directly.
    Probabilities sum to 1 within 1e-9 and are all strictly positive.
    """

    instance: Instance
    epsilon: Fraction
    committees: tuple
    scores: Optional[tuple]
    scale: int
    log_probs: tuple

    @functools.cached_property
    def probs(self) -> tuple:
        return tuple(map(math.exp, self.log_probs))

    @functools.cached_property
    def cumulative(self) -> tuple:
        """Running sums of ``probs``, added left to right: the inverse CDF
        that :func:`sample` bisects."""
        return tuple(itertools.accumulate(self.probs))


@functools.lru_cache(maxsize=64)
def _law(scores: tuple, scale: int, eps_numerator: int, eps_denominator: int) -> tuple:
    """The log-probabilities of committee ``i`` getting ``q = scores[i] /
    scale``, built once per distinct ``(scores, scale, eps)``: each distinct
    score's float exponent is built once. The budget is keyed by its
    numerator and denominator: a ``Fraction`` is hashed afresh on every
    lookup. Each exponent is the int true division ``weight_exponent``
    makes, with no ``Fraction`` built. Z is an ``fsum``, so permuted scores
    give the permuted law bit for bit. A budget that overflows raises
    ``weight_exponent``'s usage error on every call, since the cache stores
    no exception."""
    distinct, denominator = set(scores), scale * eps_denominator
    try:
        exponent = {p: p * eps_numerator / denominator for p in distinct}
    except OverflowError:
        epsilon = Fraction(eps_numerator, eps_denominator)
        exponent = {p: weight_exponent(p, scale, epsilon) for p in distinct}  # raises
    hi = max(exponent.values())
    shifted = {p: math.exp(x - hi) for p, x in exponent.items()}
    log_z = hi + math.log(math.fsum(map(shifted.__getitem__, scores)))
    log_prob = {p: x - log_z for p, x in exponent.items()}
    return tuple(map(log_prob.__getitem__, scores))


def _from_scores(inst: Instance, epsilon, scores: tuple, scale: int) -> CommitteeDistribution:
    """Committee ``i`` gets ``q = scores[i] / scale``; the budget is parsed here."""
    epsilon = as_epsilon(epsilon)
    return CommitteeDistribution(
        instance=inst,
        epsilon=epsilon,
        committees=canonical_committees(inst.m, inst.k),
        scores=scores,
        scale=scale,
        log_probs=_law(scores, scale, epsilon.numerator, epsilon.denominator),
    )


def rr_axiom_distribution(inst: Instance, epsilon, ax: Axiom) -> CommitteeDistribution:
    """Randomized response on a JR-family axiom.

    With t satisfying committees out of C(m,k), each satisfying committee wins
    with probability e^(eps/2) / (t*e^(eps/2) + C(m,k) - t).
    """
    return _from_scores(inst, epsilon, _axiom_scores(inst, ax), 2)


def exp_av_distribution(inst: Instance, epsilon) -> CommitteeDistribution:
    """Committee-level exponential mechanism with AV score utility:
    P(W) proportional to e^(AV(W) * eps / (2k))."""
    return _from_scores(inst, epsilon, _av_scores(inst), 2 * inst.k)


def _av_weights(inst: Instance, epsilon) -> tuple:
    """Weights e^(approvals * eps / (2k)); a usage error for a bad budget or an
    overflowing left-to-right sum."""
    x, scale = float(as_epsilon(epsilon)), 2 * inst.k
    try:
        weights = tuple(math.exp(c * x / scale) for c in _approval_counts(inst))
        if math.isfinite(list(itertools.accumulate(weights))[-1]):  # a draw's first total
            return weights
    except OverflowError:
        pass
    raise InvalidParametersError("epsilon too large: the sequential AV weights overflow a float")


# for repeated draws; the law reads them uncached, so an audit keeps no neighbour
_sequential_weights = functools.lru_cache(maxsize=64)(_av_weights)


def sequential_av_distribution(inst: Instance, epsilon) -> CommitteeDistribution:
    """Exact law of the k-round without-replacement AV sampler.

    Each round picks one not-yet-chosen alternative with probability
    proportional to its weight e^(approvals(a) * eps / (2k)). One pass per
    round over the chosen sets: the first j picks are the set S with
    probability the sum, over its last pick a, of P(S - a) * w_a / (the weight
    S - a leaves). Every sum is an ``fsum``, so it does not depend on the order
    of its terms, and alternatives of equal weight swap the law onto itself
    bit for bit. The weight left is summed over the unchosen alternatives,
    never taken as total minus chosen, which cancels at large eps.
    """
    eps = as_epsilon(epsilon)
    weights = _av_weights(inst, eps)
    law = {(): 1.0}
    for j in range(1, inst.k + 1):
        left = {s: math.fsum(w for a, w in enumerate(weights) if a not in s) for s in law}
        # combinations(s, j - 1) leaves out s's members from last to first
        law = {
            s: math.fsum(
                law[rest] * weights[a] / left[rest]
                for a, rest in zip(reversed(s), itertools.combinations(s, j - 1))
            )
            for s in itertools.combinations(range(inst.m), j)
        }
    if 0.0 in law.values():
        raise InvalidParametersError(
            "epsilon too large: a committee's sequential probability underflows a float"
        )
    return CommitteeDistribution(
        instance=inst,
        epsilon=eps,
        committees=canonical_committees(inst.m, inst.k),
        scores=None,
        scale=1,
        log_probs=tuple(map(math.log, law.values())),
    )


def sample_sequential_av(inst: Instance, epsilon, seed: RandomSeed) -> tuple:
    """Run the k-round sampler literally (one shot, seeded): round j walks the unchosen
    weights in index order as :func:`sample` walks a law, its total their last running sum."""
    try:
        weights = list(_sequential_weights(inst, epsilon))
    except TypeError:  # the cache hashes the budget; no budget type is unhashable
        raise InvalidParametersError(f"cannot parse epsilon {epsilon!r}") from None
    remaining, chosen, state = list(range(inst.m)), [], seed & _MASK64
    for _ in range(inst.k):
        state = (state + _GAMMA) & _MASK64
        running = list(itertools.accumulate(weights))
        u = (_mix(state) >> 11) * 2.0**-53 * running[-1]
        i = bisect.bisect_right(running, u, 0, len(running) - 1)  # else the last one
        chosen.append(remaining.pop(i))
        del weights[i]
    chosen.sort()
    return tuple(chosen)


def rr_condorcet_distribution(inst: Instance, epsilon) -> CommitteeDistribution:
    """Randomized response on the Condorcet committee.

    When it exists: P(W_c) = e^eps / (e^eps + C(m,k) - 1) and every other
    committee gets 1 / (e^eps + C(m,k) - 1); otherwise uniform.
    """
    scores = [0] * len(canonical_committees(inst.m, inst.k))
    winner = _condorcet_index(inst)
    if winner is not None:
        scores[winner] = 1
    return _from_scores(inst, epsilon, tuple(scores), 1)


def uniform_distribution(inst: Instance, epsilon=1) -> CommitteeDistribution:
    """Instance-independent uniform baseline over all committees."""
    scores = (0,) * len(canonical_committees(inst.m, inst.k))
    return _from_scores(inst, epsilon, scores, 1)


def sample(dist: CommitteeDistribution, seed: RandomSeed) -> tuple:
    """Inverse-CDF draw over the canonical committee order; deterministic in
    (dist, seed). The first committee whose running sum exceeds the uniform
    wins, and the last one when rounding leaves the total at or below it."""
    u = (_mix((seed + _GAMMA) & _MASK64) >> 11) * 2.0**-53  # next(uniform_stream(seed))
    return dist.committees[bisect.bisect_right(dist.cumulative, u, 0, len(dist.committees) - 1)]


def total_variation(d1: CommitteeDistribution, d2: CommitteeDistribution) -> float:
    """TV distance between two distributions on the same committee space."""
    if d1.committees != d2.committees:
        raise InvalidParametersError("distributions live on different committee spaces")
    return 0.5 * sum(abs(p - q) for p, q in zip(d1.probs, d2.probs))


# Rules exposed to the CLI and audits. The acceptance bound grids run against
# the committee-level Mechanism-2 law (exp-av); the sequential law is shipped
# alongside with its own divergence and fidelity checks.
MECHANISMS: dict = {
    "rr-jr": lambda inst, eps: rr_axiom_distribution(inst, eps, Axiom.JR),
    "rr-pjr": lambda inst, eps: rr_axiom_distribution(inst, eps, Axiom.PJR),
    "rr-ejr": lambda inst, eps: rr_axiom_distribution(inst, eps, Axiom.EJR),
    "exp-av": exp_av_distribution,
    "seq-av": sequential_av_distribution,
    "rr-condorcet": rr_condorcet_distribution,
    "uniform": uniform_distribution,
}

AUDIT_MECHANISMS = ("rr-jr", "rr-pjr", "rr-ejr", "exp-av", "rr-condorcet", "uniform")


def make_rule(mechanism: str, epsilon) -> Callable[[Instance], CommitteeDistribution]:
    """Bind a mechanism name and budget into an instance -> distribution rule."""
    if mechanism not in MECHANISMS:
        raise InvalidParametersError(
            f"unknown mechanism {mechanism!r}; valid: {', '.join(sorted(MECHANISMS))}"
        )
    factory, eps = MECHANISMS[mechanism], as_epsilon(epsilon)
    return lambda inst: factory(inst, eps)
