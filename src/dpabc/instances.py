"""Witness instance constructors and random profile generators.

Each witness is a small parameterized profile on which one of the
privacy/axiom tradeoff bounds becomes binding. Alternatives are integer
indices; the construction docstrings document how the conventional alternative
blocks map onto index ranges (primary block a_1..a_k -> 0..k-1, auxiliary
blocks take the next contiguous ranges) and name, in prose, the committees that
realize each bound. Those committees, the neighboring profiles of the paired
constructions and the Pareto dominance sequence of ``PE_CHAIN`` are claims
about the constructions, so they live with their proofs in the test suite
(``tests/witnesses.py``), where every one is re-verified against the exact
axiom checkers and the brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .core import Instance, InvalidParametersError
from .mechanisms import RandomSeed, uniform_stream


@dataclass
class WitnessInstance:
    """A constructed witness: ``inst`` is its instance."""

    inst: Instance


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParametersError(message)


def _jr_upper(n: int, k: int, m: int) -> Instance:
    """Two singleton voter blocks split around one voter.

    With s = ceil(n/k): voters 0..s-1 approve {0}, voters s..2s-2 approve {1},
    the rest approve everything else. The committee {0, 2..k} serves the
    {0}-block, which is 1-cohesive only while voter s-1 is in it; once that
    voter moves from {0} to {1}, the mirror {1, 2..k} takes its place.
    """
    s = -(-n // k)
    _require(s >= 2, "JR_UPPER requires ceil(n/k) >= 2 (n > k)")
    _require(2 * s - 1 <= n, "JR_UPPER requires 2*ceil(n/k) - 1 <= n")
    _require(m >= max(3, k + 1), "JR_UPPER requires m >= k + 1 (and m >= 3)")
    rest = frozenset(range(m)) - {0, 1}
    return Instance([{0}] * s + [{1}] * (s - 1) + [rest] * (n - 2 * s + 1), m, k)


def _pjr_upper(n: int, k: int, m: int) -> Instance:
    """k singleton voter blocks of size s = n/k; voter 0 additionally approves
    alternative k.

    Block t (voters t*s..(t+1)*s-1) approves {t}. The committee {1..k} covers
    every block except block 0, whose union {0, k} it still meets through
    alternative k -- but only until voter 0 approves k+1 instead of k, where
    {1..k-1, k+1} does. (The construction indexes voter blocks by voter count
    n, not by m.)
    """
    _require(k >= 2, "PJR_UPPER requires k >= 2")
    _require(n % k == 0 and n >= k, "PJR_UPPER requires n = s*k with s >= 1")
    _require(m >= k + 2, "PJR_UPPER requires m >= k + 2")
    s = n // k
    return Instance([{0, k}] + [{j // s} for j in range(1, n)], m, k)


def _ejr_upper(n: int, k: int, m: int) -> Instance:
    """k disjoint singleton blocks of size s = n/k: block t approves {t}.

    {0..k-1} is the unique committee serving every block. Relabelling the
    whole first block from {0} to {k} changes s = ceil(n/k) voters and makes
    {1..k} the unique one.
    """
    _require(n % k == 0 and n >= k, "EJR_UPPER requires n = s*k with s >= 1")
    _require(m >= k + 1, "EJR_UPPER requires m >= k + 1")
    s = n // k
    return Instance([{j // s} for j in range(n)], m, k)


def _pe_dominance(n: int, k: int, m: int) -> Instance:
    """Nested ballots whose committees descend through n*k dominance steps.

    Index blocks: primary 0..k-1, middle k..k+n-2, tail k+n-1..k+n+k-2
    (requires m >= n + 2k - 1). Voter j (0-based) approves the primary block
    plus the first j middle alternatives, i.e. 0..k+j-1. Committee W[p][q]
    (1-based p <= k+1, q <= n, with only q=1 at p=k+1) drops p-1 primary
    members for tail members and, for q > 1, swaps one more primary member for
    middle alternative q-1; each committee in the row-major order, from the
    primary block W[1][1] to the tail block W[k+1][1], Pareto dominates the
    next.
    """
    _require(m >= n + 2 * k - 1, "PE_CHAIN requires m >= n + 2k - 1")
    return Instance([range(k + j) for j in range(n)], m, k)


def _cc_upper(n: int, k: int, m: int) -> Instance:
    """A two-camp electorate whose median voter decides the Condorcet committee.

    All ballots share the k-1 alternatives 2..k; camp sizes t+1 and t (with
    n = 2t+1) disagree on alternative 0 vs 1. The Condorcet committee is the
    shared block plus the majority camp's alternative, {0, 2..k}; flipping
    voter t from 0 to 1 flips it to {1, 2..k}.
    """
    _require(n >= 3 and n % 2 == 1, "CC_UPPER requires odd n >= 3")
    _require(m >= k + 1, "CC_UPPER requires m >= k + 1")
    t = (n - 1) // 2
    shared = frozenset(range(2, k + 1))
    return Instance([shared | {0}] * (t + 1) + [shared | {1}] * t, m, k)


def _jr_pjr_3way(n: int, k: int, m: int) -> Instance:
    """Pair-blocks whose 2-cohesive groups shift with one voter.

    With s = ceil(2n/k): voters 0..s-1 approve {0,1}, voters s..2s-2 approve
    {0,2}, voters 2s-1..3s-2 approve {3,4}, the rest approve {3}. The
    committee W_1 = {0, 1, 3, 4, 5..k} represents the pair-blocks; moving
    voter s-1 from {0,1} to {0,2} hands that role to its {0,2} mirror
    W_1_prime = {0, 2, 3, 4, 5..k}. W_0 = {0, 3, 5..k+2} meets every ballot
    but no pair-block twice.
    """
    _require(k >= 4, "JR_PJR_3WAY requires k >= 4")
    _require(m >= k + 3, "JR_PJR_3WAY requires m >= k + 3")
    s = -(-2 * n // k)
    _require(s >= 2, "JR_PJR_3WAY requires ceil(2n/k) >= 2")
    _require(3 * s - 1 <= n, "JR_PJR_3WAY requires 3*ceil(2n/k) - 1 <= n")
    ballots = [{0, 1}] * s + [{0, 2}] * (s - 1) + [{3, 4}] * s + [{3}] * (n - 3 * s + 1)
    return Instance(ballots, m, k)


def _pjr_ejr_3way(n: int, k: int, m: int) -> Instance:
    """Universally-approved core plus per-block extras.

    Block t (size s = n/k) approves {0..k-1, k+t}. W_1 = the core {0..k-1};
    W_0 = the extras {k..2k-1}, which meets every cohesive group's union but
    gives no voter two approved members. Rewriting block 0 to the fresh
    ballot {k, 2k..3k-2} (s voters) makes W_1_prime = {0..k-2, 2k} serve
    EJR. Requires k >= 3 so that the rewritten profile still has a group
    forcing more than one seat.
    """
    _require(k >= 3, "PJR_EJR_3WAY requires k >= 3")
    _require(n % k == 0 and n >= k, "PJR_EJR_3WAY requires n = s*k with s >= 1")
    _require(m >= 3 * k - 1, "PJR_EJR_3WAY requires m >= 3k - 1")
    s = n // k
    core = frozenset(range(k))
    return Instance([core | {k + j // s} for j in range(n)], m, k)


def _fig3_divergence(n: int, k: int, m: int) -> Instance:
    """k equal voter groups sharing a common block; group t also approves its
    own alternative t. W_1 = the shared block {k..2k-1} (satisfies EJR);
    W_2 = the private alternatives {0..k-1} (satisfies PJR but not EJR)."""
    _require(k >= 2, "FIG3_DIVERGENCE requires k >= 2")
    _require(n % k == 0 and n >= k, "FIG3_DIVERGENCE requires n divisible by k")
    _require(m >= 2 * k, "FIG3_DIVERGENCE requires m >= 2k")
    s = n // k
    shared = frozenset(range(k, 2 * k))
    return Instance([shared | {j // s} for j in range(n)], m, k)


def _cc_jr_incompat(n: int, k: int, m: int) -> Instance:
    """Majority/minority electorate whose Condorcet committee shuts out the
    minority: t+1 voters approve {0..k-1}, t voters approve {k..2k-1}
    (n = 2t+1, k >= 3 so the minority is 1-cohesive). The Condorcet committee
    W_c is the majority ballot and fails JR."""
    _require(k >= 3, "CC_JR_INCOMPAT requires k >= 3")
    _require(n >= 3 and n % 2 == 1, "CC_JR_INCOMPAT requires odd n >= 3")
    _require(m >= 2 * k, "CC_JR_INCOMPAT requires m >= 2k")
    t = (n - 1) // 2
    return Instance([range(k)] * (t + 1) + [range(k, 2 * k)] * t, m, k)


class WitnessId(Enum):
    """A witness construction: its builder and its default (n, k, m) ``shape``,
    which ``--witness`` builds and the goldens pin (a default, not a minimum)."""

    def __new__(cls, value: str, build: Callable, shape: tuple):
        wid = object.__new__(cls)
        wid._value_, wid.build, wid.shape = value, build, shape
        return wid

    JR_UPPER = "JR_UPPER", _jr_upper, (4, 2, 4)
    PJR_UPPER = "PJR_UPPER", _pjr_upper, (4, 2, 4)
    EJR_UPPER = "EJR_UPPER", _ejr_upper, (4, 2, 4)
    PE_CHAIN = "PE_CHAIN", _pe_dominance, (2, 2, 5)
    CC_UPPER = "CC_UPPER", _cc_upper, (3, 2, 4)
    JR_PJR_3WAY = "JR_PJR_3WAY", _jr_pjr_3way, (5, 5, 8)
    PJR_EJR_3WAY = "PJR_EJR_3WAY", _pjr_ejr_3way, (6, 3, 8)
    FIG3_DIVERGENCE = "FIG3_DIVERGENCE", _fig3_divergence, (4, 2, 4)
    CC_JR_INCOMPAT = "CC_JR_INCOMPAT", _cc_jr_incompat, (3, 3, 6)


def witness_id(name: str) -> WitnessId:
    """The witness id a user typed: case-insensitive, ``-`` read as ``_``."""
    key = name.strip().upper().replace("-", "_")
    try:
        return WitnessId[key]
    except KeyError:
        valid = ", ".join(w.name for w in WitnessId)
        raise InvalidParametersError(f"unknown witness id {name!r}; valid ids: {valid}") from None


def witness(
    wid: WitnessId,
    n: Optional[int] = None,
    k: Optional[int] = None,
    m: Optional[int] = None,
) -> WitnessInstance:
    """Construct a witness by id; omitted parameters take ``wid.shape``'s.
    Parameter combinations violating a construction's side conditions are
    rejected with the condition named."""
    default_n, default_k, default_m = wid.shape
    k = k if k is not None else default_k
    _require(k >= 1, f"witnesses require k >= 1, got k={k}")
    return WitnessInstance(wid.build(
        n if n is not None else default_n, k, m if m is not None else default_m
    ))


@dataclass(frozen=True)
class BallotModel:
    """Impartial-culture ballot model for fuzzing: each alternative is approved
    independently with ``approval_probability`` (empty draws are resampled);
    ``kind`` must be ``"impartial"``."""

    kind: str
    approval_probability: float = 0.5

    def __post_init__(self):
        if self.kind != "impartial":
            raise InvalidParametersError(f"unknown ballot model kind {self.kind!r}")
        if not 0 < self.approval_probability <= 1:
            raise InvalidParametersError(
                f"approval probability must lie in (0, 1], got {self.approval_probability}"
            )


def random_instance(
    m: int, n: int, k: int, model: BallotModel, seed: RandomSeed
) -> Instance:
    """Deterministic random instance: same (model, seed) gives the same
    profile; every ballot is non-empty. ``Instance`` checks ``m`` and ``k``
    before it takes the first ballot from the lazy draw."""
    uniforms = uniform_stream(seed)

    def draw_ballot() -> frozenset:
        while True:
            ballot = frozenset(
                a for a in range(m) if next(uniforms) < model.approval_probability
            )
            if ballot:
                return ballot

    return Instance((draw_ballot() for _ in range(n)), m, k)
