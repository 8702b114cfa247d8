"""Randomized committee rules as exact distributions plus seeded samplers.

Every rule here returns a :class:`CommitteeDistribution` over the canonical
committee order. For the exponential-family rules the unnormalized weight of a
committee is ``e^(q * eps)`` with ``q = score / scale``: the rule's integer
score of the committee over one denominator per rule, so within-instance
probability ratios are exact log-weight differences; only the normalizer is
floating point.

Every rule is anonymous: its law depends only on the multiset of ballots, not
on which voter cast which. ``audit.dp_level`` relies on this.

Rules:

* ``rr_axiom_distribution`` -- randomized response on a JR-family predicate:
  ``q = 1/2`` for committees satisfying the axiom, ``q = 0`` otherwise.
* ``exp_av_distribution`` -- committee-level exponential mechanism with the
  approval (AV) score as utility: ``q = AV(W) / (2k)``.
* ``sequential_av_distribution`` -- the exact law of the k-round
  without-replacement sampler that picks alternatives one at a time with
  per-alternative weights ``e^(approvals * eps / (2k))``. This law is close
  to, but not identical with, ``exp_av_distribution``; both are provided and
  ``total_variation`` quantifies the gap.
* ``rr_condorcet_distribution`` -- randomized response on the Condorcet
  committee: ``q = 1`` for it, ``q = 0`` elsewhere; uniform when none exists.
* ``uniform_distribution`` -- instance-independent baseline.

Sampling uses splitmix64, a fixed 64-bit generator (Steele et al.'s constants):
state advances by 0x9E3779B97F4A7C15 and is finalized by two xor-shift
multiplies; uniforms take the top 53 bits, and the stream has a closed form in
(seed, index). Same (distribution, seed) always yields the same committee.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .axioms import (
    JR_FAMILY,
    Axiom,
    _approval_counts,
    _av_scores,
    axiom_committee_set,
    condorcet_committee,
)
from .core import Instance, InvalidParametersError, canonical_committees, committee_index

RandomSeed = int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# limits nothing here; bench/workloads.py reads it to pick the profiles whose
# sequential draws it checks against the exact law
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


def _uniform(seed: RandomSeed, j: int) -> float:
    """Item ``j`` (from 0) of ``uniform_stream(seed)``, in closed form."""
    return (_mix((seed + (j + 1) * _GAMMA) & _MASK64) >> 11) * 2.0**-53


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
    if eps <= 0:
        raise InvalidParametersError(f"epsilon must be positive, got {eps}")
    try:
        float(eps)
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
    mechanism: str
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


def _from_scores(
    inst: Instance, epsilon: Fraction, mechanism: str, scores: Sequence, scale: int
) -> CommitteeDistribution:
    """Committee ``i`` gets ``q = scores[i] / scale``; each distinct score's
    float exponent is built once."""
    exponent = {p: weight_exponent(p, scale, epsilon) for p in set(scores)}
    hi = max(exponent.values())
    shifted = {p: math.exp(x - hi) for p, x in exponent.items()}
    log_z = hi + math.log(sum(map(shifted.__getitem__, scores)))
    log_prob = {p: x - log_z for p, x in exponent.items()}
    return CommitteeDistribution(
        instance=inst,
        epsilon=epsilon,
        mechanism=mechanism,
        committees=canonical_committees(inst.m, inst.k),
        scores=tuple(scores),
        scale=scale,
        log_probs=tuple(map(log_prob.__getitem__, scores)),
    )


def _indicator(inst: Instance, committees) -> list:
    """Score 1 at each of ``committees``' canonical positions, found in the
    shared index, and 0 elsewhere."""
    index = committee_index(inst.m, inst.k)
    scores = [0] * len(index)
    for w in committees:
        scores[index[w]] = 1
    return scores


def rr_axiom_distribution(inst: Instance, epsilon, ax: Axiom) -> CommitteeDistribution:
    """Randomized response on a JR-family axiom.

    With t satisfying committees out of C(m,k), each satisfying committee wins
    with probability e^(eps/2) / (t*e^(eps/2) + C(m,k) - t).
    """
    eps = as_epsilon(epsilon)
    if ax not in JR_FAMILY:
        raise InvalidParametersError(f"randomized response expects JR/PJR/EJR, got {ax}")
    scores = _indicator(inst, axiom_committee_set(inst, ax))
    return _from_scores(inst, eps, f"rr-{ax.value}", scores, 2)


def exp_av_distribution(inst: Instance, epsilon) -> CommitteeDistribution:
    """Committee-level exponential mechanism with AV score utility:
    P(W) proportional to e^(AV(W) * eps / (2k))."""
    eps = as_epsilon(epsilon)
    return _from_scores(inst, eps, "exp-av", _av_scores(inst), 2 * inst.k)


@functools.lru_cache(maxsize=64)
def _sequential_weights(inst: Instance, epsilon) -> tuple:
    """Weights e^(approvals * eps / (2k)), built once per (instance, budget); a
    usage error, raised on every call, for a bad budget or an overflowing sum."""
    x, scale = float(as_epsilon(epsilon)), 2 * inst.k
    try:
        weights = tuple(math.exp(c * x / scale) for c in _approval_counts(inst))
        if math.isfinite(sum(weights)):
            return weights
    except OverflowError:
        pass
    raise InvalidParametersError("epsilon too large: the sequential AV weights overflow a float")


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
    weights = _sequential_weights(inst, eps)
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
        mechanism="seq-av",
        committees=canonical_committees(inst.m, inst.k),
        scores=None,
        scale=1,
        log_probs=tuple(map(math.log, law.values())),
    )


def sample_sequential_av(inst: Instance, epsilon, seed: RandomSeed) -> tuple:
    """Run the k-round sampler literally (one shot, seeded): round j walks the
    unchosen weights in index order as :func:`sample` walks a law."""
    try:
        weights = list(_sequential_weights(inst, epsilon))
    except TypeError:  # the cache hashes the budget; no budget type is unhashable
        raise InvalidParametersError(f"cannot parse epsilon {epsilon!r}") from None
    remaining, chosen = list(range(inst.m)), []
    for j in range(inst.k):
        u = _uniform(seed, j) * sum(weights)  # sum() is compensated on 3.12+, unlike accumulate
        i = min(bisect.bisect_right(list(itertools.accumulate(weights)), u), len(weights) - 1)
        chosen.append(remaining.pop(i))
        del weights[i]
    return tuple(sorted(chosen))


def rr_condorcet_distribution(inst: Instance, epsilon) -> CommitteeDistribution:
    """Randomized response on the Condorcet committee.

    When it exists: P(W_c) = e^eps / (e^eps + C(m,k) - 1) and every other
    committee gets 1 / (e^eps + C(m,k) - 1); otherwise uniform.
    """
    eps = as_epsilon(epsilon)
    winner = condorcet_committee(inst)
    scores = _indicator(inst, () if winner is None else (winner,))
    return _from_scores(inst, eps, "rr-condorcet", scores, 1)


def uniform_distribution(inst: Instance, epsilon=1) -> CommitteeDistribution:
    """Instance-independent uniform baseline over all committees."""
    eps = as_epsilon(epsilon)
    scores = [0] * len(canonical_committees(inst.m, inst.k))
    return _from_scores(inst, eps, "uniform", scores, 1)


def sample(dist: CommitteeDistribution, seed: RandomSeed) -> tuple:
    """Inverse-CDF draw over the canonical committee order; deterministic in
    (dist, seed). The first committee whose running sum exceeds the uniform
    wins, and the last one when rounding leaves the total at or below it."""
    i = bisect.bisect_right(dist.cumulative, _uniform(seed, 0))
    return dist.committees[min(i, len(dist.committees) - 1)]


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
    eps = as_epsilon(epsilon)
    factory = MECHANISMS[mechanism]
    return lambda inst: factory(inst, eps)
