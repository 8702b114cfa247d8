"""Witness instance constructors and random profile generators.

Each witness is a small parameterized profile (or neighboring pair) on which
one of the privacy/axiom tradeoff bounds becomes binding, together with the
named committees that realize it. Alternatives are integer indices; the
construction docstrings document how the conventional alternative blocks map
onto index ranges (primary block a_1..a_k -> 0..k-1, auxiliary blocks take the
next contiguous ranges). Every tagged membership fact is re-verified against
the exact axiom checkers in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .core import Instance, InvalidParametersError, make_instance
from .mechanisms import RandomSeed, uniform_stream


class WitnessId(Enum):
    JR_UPPER = "JR_UPPER"
    PJR_UPPER = "PJR_UPPER"
    EJR_UPPER = "EJR_UPPER"
    PE_CHAIN = "PE_CHAIN"
    CC_UPPER = "CC_UPPER"
    JR_PJR_3WAY = "JR_PJR_3WAY"
    PJR_EJR_3WAY = "PJR_EJR_3WAY"
    FIG3_DIVERGENCE = "FIG3_DIVERGENCE"
    CC_JR_INCOMPAT = "CC_JR_INCOMPAT"


def witness_id(name: str) -> WitnessId:
    """The witness id a user typed: case-insensitive, ``-`` read as ``_``."""
    key = name.strip().upper().replace("-", "_")
    try:
        return WitnessId[key]
    except KeyError:
        valid = ", ".join(w.name for w in WitnessId)
        raise InvalidParametersError(f"unknown witness id {name!r}; valid ids: {valid}") from None


@dataclass
class WitnessInstance:
    """A constructed witness: the instance, its companion profile when the
    construction uses a neighboring/modified pair, and the tagged committees
    named by the construction."""

    inst: Instance
    companion: Optional[Instance]
    tagged: dict
    chain: Optional[tuple] = field(default=None)  # PE_CHAIN dominance order


# canonical (smallest valid) parameters per witness id
DEFAULT_PARAMETERS: dict = {
    WitnessId.JR_UPPER: (4, 2, 4),
    WitnessId.PJR_UPPER: (4, 2, 4),
    WitnessId.EJR_UPPER: (4, 2, 4),
    WitnessId.PE_CHAIN: (2, 2, 5),
    WitnessId.CC_UPPER: (3, 2, 4),
    WitnessId.JR_PJR_3WAY: (5, 5, 8),
    WitnessId.PJR_EJR_3WAY: (6, 3, 8),
    WitnessId.FIG3_DIVERGENCE: (4, 2, 4),
    WitnessId.CC_JR_INCOMPAT: (3, 3, 6),
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParametersError(message)


def _jr_upper(n: int, k: int, m: int) -> WitnessInstance:
    """Neighboring pair splitting two singleton voter blocks around one voter.

    With s = ceil(n/k): voters 0..s-1 approve {0}, voters s..2s-2 approve {1},
    the rest approve everything else. In the companion, voter s-1 flips from
    {0} to {1}. The committee containing alternative 0 (plus fillers 2..k)
    serves the {0}-block, which is 1-cohesive only in the base profile; its
    mirror with alternative 1 is the companion's analogue.
    """
    s = -(-n // k)
    _require(s >= 2, "JR_UPPER requires ceil(n/k) >= 2 (n > k)")
    _require(2 * s - 1 <= n, "JR_UPPER requires 2*ceil(n/k) - 1 <= n")
    _require(m >= max(3, k + 1), "JR_UPPER requires m >= k + 1 (and m >= 3)")
    rest = frozenset(range(m)) - {0, 1}

    def block(j: int, shift: int) -> frozenset:
        if j < s - shift:
            return frozenset({0})
        if j < 2 * s - 1:
            return frozenset({1})
        return rest

    base = make_instance([block(j, 0) for j in range(n)], m, k)
    companion = make_instance([block(j, 1) for j in range(n)], m, k)
    fillers = tuple(range(2, k + 1))
    tagged = {
        "W": tuple(sorted((0,) + fillers)),
        "W_prime": tuple(sorted((1,) + fillers)),
    }
    return WitnessInstance(base, companion, tagged)


def _pjr_upper(n: int, k: int, m: int) -> WitnessInstance:
    """k singleton voter blocks of size s = n/k; voter 0 additionally approves
    alternative k (companion: k+1 instead).

    Block t (voters t*s..(t+1)*s-1) approves {t}. The committee {1..k} covers
    every block except block 0, whose union {0, k} it still meets through
    alternative k -- but only in the base profile. (The construction indexes
    voter blocks by voter count n, not by m.)
    """
    _require(k >= 2, "PJR_UPPER requires k >= 2")
    _require(n % k == 0 and n >= k, "PJR_UPPER requires n = s*k with s >= 1")
    _require(m >= k + 2, "PJR_UPPER requires m >= k + 2")
    s = n // k

    def profile(extra: int) -> list:
        ballots = []
        for j in range(n):
            t = j // s
            if j == 0:
                ballots.append(frozenset({0, extra}))
            else:
                ballots.append(frozenset({t}))
        return ballots

    base = make_instance(profile(k), m, k)
    companion = make_instance(profile(k + 1), m, k)
    tagged = {
        "W": tuple(range(1, k + 1)),
        "W_prime": tuple(range(1, k)) + (k + 1,),
    }
    return WitnessInstance(base, companion, tagged)


def _ejr_upper(n: int, k: int, m: int) -> WitnessInstance:
    """k disjoint singleton blocks of size s = n/k; the companion relabels the
    whole first block from {0} to {k}, so the two profiles differ on s =
    ceil(n/k) voters. Each profile has a unique committee serving all blocks.
    """
    _require(n % k == 0 and n >= k, "EJR_UPPER requires n = s*k with s >= 1")
    _require(m >= k + 1, "EJR_UPPER requires m >= k + 1")
    s = n // k
    base = make_instance([frozenset({j // s}) for j in range(n)], m, k)
    companion = make_instance(
        [frozenset({k if j < s else j // s}) for j in range(n)], m, k
    )
    tagged = {
        "W": tuple(range(k)),
        "W_prime": tuple(sorted(set(range(1, k)) | {k})),
    }
    return WitnessInstance(base, companion, tagged)


def _pe_chain(n: int, k: int, m: int) -> WitnessInstance:
    """Nested-ballot profile whose committees form a dominance chain.

    Index blocks: primary 0..k-1, middle k..k+n-2, tail k+n-1..k+n+k-2
    (requires m >= n + 2k - 1). Voter j (0-based) approves the primary block
    plus the first j middle alternatives. Committee W[p][q] (1-based p <= k+1,
    q <= n, with only q=1 at p=k+1) drops p-1 primary members for tail members
    and, for q > 1, swaps one more primary member for middle alternative q-1;
    consecutive committees in the row-major order form all n*k dominance pairs.
    """
    _require(m >= n + 2 * k - 1, "PE_CHAIN requires m >= n + 2k - 1")
    primary = list(range(k))
    middle = list(range(k, k + n - 1))
    tail = list(range(k + n - 1, k + n - 1 + k))

    ballots = [frozenset(primary + middle[: j]) for j in range(n)]
    base = make_instance(ballots, m, k)

    def committee(p: int, q: int) -> tuple:
        if q == 1:
            members = primary[: k - p + 1] + tail[: p - 1]
        else:
            members = primary[: k - p] + [middle[q - 2]] + tail[: p - 1]
        return tuple(sorted(members))

    chain = []
    tagged = {}
    for p in range(1, k + 1):
        for q in range(1, n + 1):
            w = committee(p, q)
            tagged[f"W_{p}_{q}"] = w
            chain.append(w)
    last = tuple(sorted(tail))
    tagged[f"W_{k + 1}_1"] = last
    chain.append(last)
    return WitnessInstance(base, None, tagged, chain=tuple(chain))


def _cc_upper(n: int, k: int, m: int) -> WitnessInstance:
    """Neighboring pair flipping the median voter of a two-camp electorate.

    All ballots share the k-1 alternatives 2..k; camp sizes t+1 and t (with
    n = 2t+1) disagree on alternative 0 vs 1. The Condorcet committee is the
    shared block plus the majority camp's alternative, and flipping one voter
    flips it.
    """
    _require(n >= 3 and n % 2 == 1, "CC_UPPER requires odd n >= 3")
    _require(m >= k + 1, "CC_UPPER requires m >= k + 1")
    t = (n - 1) // 2
    shared = frozenset(range(2, k + 1))

    def profile(majority: int) -> list:
        return [
            shared | {0 if j < majority else 1} for j in range(n)
        ]

    base = make_instance(profile(t + 1), m, k)
    companion = make_instance(profile(t), m, k)
    tagged = {
        "W": tuple(sorted(shared | {0})),
        "W_prime": tuple(sorted(shared | {1})),
    }
    return WitnessInstance(base, companion, tagged)


def _jr_pjr_3way(n: int, k: int, m: int) -> WitnessInstance:
    """Neighboring pair whose 2-cohesive groups shift with one voter.

    With s = ceil(2n/k): voters 0..s-1 approve {0,1}, voters s..2s-2 approve
    {0,2}, voters 2s-1..3s-2 approve {3,4}, the rest approve {3}; the
    companion moves voter s-1 from {0,1} to {0,2}. Tags: W_1 (committee with
    {0,1,3,4}) represents the base profile's pair-blocks, W_1_prime its {0,2}
    mirror, W_0 a committee meeting every ballot but no pair-block twice.
    """
    _require(k >= 4, "JR_PJR_3WAY requires k >= 4")
    _require(m >= k + 3, "JR_PJR_3WAY requires m >= k + 3")
    s = -(-2 * n // k)
    _require(s >= 2, "JR_PJR_3WAY requires ceil(2n/k) >= 2")
    _require(3 * s - 1 <= n, "JR_PJR_3WAY requires 3*ceil(2n/k) - 1 <= n")

    def block(j: int, shift: int) -> frozenset:
        if j < s - shift:
            return frozenset({0, 1})
        if j < 2 * s - 1:
            return frozenset({0, 2})
        if j < 3 * s - 1:
            return frozenset({3, 4})
        return frozenset({3})

    base = make_instance([block(j, 0) for j in range(n)], m, k)
    companion = make_instance([block(j, 1) for j in range(n)], m, k)
    tagged = {
        "W_0": tuple(sorted([0, 3] + list(range(5, k + 3)))),
        "W_1": tuple(sorted([0, 1, 3, 4] + list(range(5, k + 1)))),
        "W_1_prime": tuple(sorted([0, 2, 3, 4] + list(range(5, k + 1)))),
    }
    return WitnessInstance(base, companion, tagged)


def _pjr_ejr_3way(n: int, k: int, m: int) -> WitnessInstance:
    """Universally-approved core plus per-block extras; the companion rewrites
    the first block to fresh alternatives.

    Block t (size s = n/k) approves {0..k-1, k+t}; in the companion, block 0
    approves {k, 2k..3k-2} instead. W_1 = the core {0..k-1}; W_0 = the extras
    {k..2k-1}, which meets every cohesive group's union but gives no voter two
    approved members; W_1_prime = {0..k-2, 2k}. Requires k >= 3 so that the
    companion still has a group forcing more than one seat.
    """
    _require(k >= 3, "PJR_EJR_3WAY requires k >= 3")
    _require(n % k == 0 and n >= k, "PJR_EJR_3WAY requires n = s*k with s >= 1")
    _require(m >= 3 * k - 1, "PJR_EJR_3WAY requires m >= 3k - 1")
    s = n // k
    core = frozenset(range(k))

    base = make_instance(
        [core | {k + j // s} for j in range(n)], m, k
    )
    replacement = frozenset({k}) | frozenset(range(2 * k, 3 * k - 1))
    companion = make_instance(
        [replacement if j < s else core | {k + j // s} for j in range(n)], m, k
    )
    tagged = {
        "W_0": tuple(range(k, 2 * k)),
        "W_1": tuple(range(k)),
        "W_1_prime": tuple(range(k - 1)) + (2 * k,),
    }
    return WitnessInstance(base, companion, tagged)


def _fig3_divergence(n: int, k: int, m: int) -> WitnessInstance:
    """k equal voter groups sharing a common block; group t also approves its
    own alternative t. W_1 = the shared block {k..2k-1} (satisfies EJR);
    W_2 = the private alternatives {0..k-1} (satisfies PJR but not EJR)."""
    _require(k >= 2, "FIG3_DIVERGENCE requires k >= 2")
    _require(n % k == 0 and n >= k, "FIG3_DIVERGENCE requires n divisible by k")
    _require(m >= 2 * k, "FIG3_DIVERGENCE requires m >= 2k")
    s = n // k
    shared = frozenset(range(k, 2 * k))
    base = make_instance([shared | {j // s} for j in range(n)], m, k)
    tagged = {
        "W_1": tuple(range(k, 2 * k)),
        "W_2": tuple(range(k)),
    }
    return WitnessInstance(base, None, tagged)


def _cc_jr_incompat(n: int, k: int, m: int) -> WitnessInstance:
    """Majority/minority electorate whose Condorcet committee shuts out the
    minority: t+1 voters approve {0..k-1}, t voters approve {k..2k-1}
    (n = 2t+1, k >= 3 so the minority is 1-cohesive). The Condorcet committee
    is the majority ballot and fails JR."""
    _require(k >= 3, "CC_JR_INCOMPAT requires k >= 3")
    _require(n >= 3 and n % 2 == 1, "CC_JR_INCOMPAT requires odd n >= 3")
    _require(m >= 2 * k, "CC_JR_INCOMPAT requires m >= 2k")
    t = (n - 1) // 2
    majority = frozenset(range(k))
    minority = frozenset(range(k, 2 * k))
    base = make_instance(
        [majority if j < t + 1 else minority for j in range(n)], m, k
    )
    tagged = {"W_c": tuple(range(k)), "W_minority": tuple(range(k, 2 * k))}
    return WitnessInstance(base, None, tagged)


_BUILDERS = {
    WitnessId.JR_UPPER: _jr_upper,
    WitnessId.PJR_UPPER: _pjr_upper,
    WitnessId.EJR_UPPER: _ejr_upper,
    WitnessId.PE_CHAIN: _pe_chain,
    WitnessId.CC_UPPER: _cc_upper,
    WitnessId.JR_PJR_3WAY: _jr_pjr_3way,
    WitnessId.PJR_EJR_3WAY: _pjr_ejr_3way,
    WitnessId.FIG3_DIVERGENCE: _fig3_divergence,
    WitnessId.CC_JR_INCOMPAT: _cc_jr_incompat,
}


def witness(
    wid: WitnessId,
    n: Optional[int] = None,
    k: Optional[int] = None,
    m: Optional[int] = None,
) -> WitnessInstance:
    """Construct a witness by id; omitted parameters take the documented
    defaults. Parameter combinations violating a construction's side
    conditions are rejected with the condition named."""
    default_n, default_k, default_m = DEFAULT_PARAMETERS[wid]
    k = k if k is not None else default_k
    _require(k >= 1, f"witnesses require k >= 1, got k={k}")
    return _BUILDERS[wid](
        n if n is not None else default_n,
        k,
        m if m is not None else default_m,
    )


@dataclass(frozen=True)
class BallotModel:
    """Random ballot model for fuzzing.

    ``impartial``: each alternative approved independently with
    ``approval_probability`` (empty draws are resampled).
    ``disjoint-groups``: voters are split into ``groups`` near-equal blocks
    and each block shares one impartially drawn ballot.
    """

    kind: str
    approval_probability: float = 0.5
    groups: int = 2

    def __post_init__(self):
        if self.kind not in ("impartial", "disjoint-groups"):
            raise InvalidParametersError(f"unknown ballot model kind {self.kind!r}")
        if not 0 < self.approval_probability <= 1:
            raise InvalidParametersError(
                f"approval probability must lie in (0, 1], got {self.approval_probability}"
            )
        if self.groups < 1:
            raise InvalidParametersError(f"need at least one group, got {self.groups}")


def random_instance(
    m: int, n: int, k: int, model: BallotModel, seed: RandomSeed
) -> Instance:
    """Deterministic random instance: same (model, seed) gives the same
    profile; every ballot is non-empty."""
    if not 1 <= k <= m:
        raise InvalidParametersError(f"need 1 <= k <= m, got k={k}, m={m}")
    uniforms = uniform_stream(seed)

    def draw_ballot() -> frozenset:
        while True:
            ballot = frozenset(
                a for a in range(m) if next(uniforms) < model.approval_probability
            )
            if ballot:
                return ballot

    if model.kind == "impartial":
        ballots = [draw_ballot() for _ in range(n)]
    else:
        groups = min(model.groups, n)
        shared = [draw_ballot() for _ in range(groups)]
        # near-equal contiguous blocks
        ballots = [shared[min(j * groups // n, groups - 1)] for j in range(n)]
    return make_instance(ballots, m, k)
