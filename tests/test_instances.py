import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpabc import (
    Axiom,
    BallotModel,
    InvalidParametersError,
    axiom_committee_set,
    condorcet_committee,
    enumerate_neighbors,
    parse_instance,
    random_instance,
    witness,
    WitnessId,
)
from dpabc.core import canonical_committees

from brute import (
    av_score,
    brute_condorcet,
    brute_satisfies,
    pareto_dominates,
    profile_distance,
)
from strategies import format_instance, grouped_instance
from witnesses import companion, pe_chain, tagged

IN, OUT = True, False

# The cross-module oracle table: every tagged committee's JR/PJR/EJR
# membership on the base profile and (when present) the companion, stated
# explicitly and re-verified against both the fast checkers and the raw
# brute-force enumeration.
MEMBERSHIP_FACTS = {
    WitnessId.JR_UPPER: [
        ("W", "base", {Axiom.JR: IN}),
        ("W", "companion", {Axiom.JR: OUT}),
        ("W_prime", "base", {Axiom.JR: OUT}),
        ("W_prime", "companion", {Axiom.JR: IN}),
    ],
    WitnessId.PJR_UPPER: [
        ("W", "base", {Axiom.PJR: IN}),
        ("W", "companion", {Axiom.PJR: OUT}),
        ("W_prime", "base", {Axiom.PJR: OUT}),
        ("W_prime", "companion", {Axiom.PJR: IN}),
    ],
    WitnessId.EJR_UPPER: [
        ("W", "base", {Axiom.JR: IN, Axiom.PJR: IN, Axiom.EJR: IN}),
        ("W", "companion", {Axiom.JR: OUT, Axiom.EJR: OUT}),
        ("W_prime", "base", {Axiom.JR: OUT, Axiom.EJR: OUT}),
        ("W_prime", "companion", {Axiom.JR: IN, Axiom.PJR: IN, Axiom.EJR: IN}),
    ],
    WitnessId.JR_PJR_3WAY: [
        # the base profile's pair-block committee satisfies everything there
        # but loses PJR (hence EJR) on the companion; JR survives on both
        # since it keeps the universally covering alternatives
        ("W_1", "base", {Axiom.JR: IN, Axiom.PJR: IN, Axiom.EJR: IN}),
        ("W_1", "companion", {Axiom.JR: IN, Axiom.PJR: OUT, Axiom.EJR: OUT}),
        ("W_1_prime", "base", {Axiom.JR: IN, Axiom.PJR: OUT, Axiom.EJR: OUT}),
        ("W_1_prime", "companion", {Axiom.JR: IN, Axiom.PJR: IN, Axiom.EJR: IN}),
        ("W_0", "base", {Axiom.JR: IN, Axiom.PJR: OUT}),
        ("W_0", "companion", {Axiom.JR: IN, Axiom.PJR: OUT}),
    ],
    WitnessId.PJR_EJR_3WAY: [
        ("W_0", "base", {Axiom.PJR: IN, Axiom.EJR: OUT}),
        ("W_0", "companion", {Axiom.PJR: IN, Axiom.EJR: OUT}),
        ("W_1", "base", {Axiom.EJR: IN}),
        ("W_1", "companion", {Axiom.JR: OUT}),
        ("W_1_prime", "base", {Axiom.PJR: OUT}),
        ("W_1_prime", "companion", {Axiom.EJR: IN}),
    ],
    WitnessId.FIG3_DIVERGENCE: [
        ("W_1", "base", {Axiom.EJR: IN}),
        ("W_2", "base", {Axiom.PJR: IN, Axiom.EJR: OUT}),
    ],
    WitnessId.CC_JR_INCOMPAT: [
        ("W_c", "base", {Axiom.JR: OUT}),
    ],
}


def _profiles(wid, inst):
    yield "base", inst
    paired = companion(wid, inst)
    if paired is not None:
        yield "companion", paired


# Each witness's default (n, k, m), in member order: what ``witness(wid)`` and
# ``--witness`` build and the goldens pin. Not the smallest shape that builds.
_DEFAULT_SHAPES = [
    ("JR_UPPER", (4, 2, 4)),
    ("PJR_UPPER", (4, 2, 4)),
    ("EJR_UPPER", (4, 2, 4)),
    ("PE_CHAIN", (2, 2, 5)),
    ("CC_UPPER", (3, 2, 4)),
    ("JR_PJR_3WAY", (5, 5, 8)),
    ("PJR_EJR_3WAY", (6, 3, 8)),
    ("FIG3_DIVERGENCE", (4, 2, 4)),
    ("CC_JR_INCOMPAT", (3, 3, 6)),
]


class TestConstruction:
    def test_default_shapes(self):
        assert [(wid.value, wid.shape) for wid in WitnessId] == _DEFAULT_SHAPES

    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_defaults_build_and_tags_are_valid(self, wid):
        w = witness(wid)
        n, k, m = wid.shape
        assert (w.inst.n, w.inst.k, w.inst.m) == (n, k, m)
        for committee in tagged(wid, n, k, m).values():
            assert committee in canonical_committees(m, k)
        paired = companion(wid, w.inst)
        if paired is not None:
            assert (paired.n, paired.k, paired.m) == (n, k, m)

    def test_companion_present_exactly_for_paired_constructions(self):
        paired = {
            WitnessId.JR_UPPER,
            WitnessId.PJR_UPPER,
            WitnessId.EJR_UPPER,
            WitnessId.CC_UPPER,
            WitnessId.JR_PJR_3WAY,
            WitnessId.PJR_EJR_3WAY,
        }
        for wid in WitnessId:
            assert (companion(wid, witness(wid).inst) is not None) == (wid in paired)

    def test_neighboring_pairs_are_neighbors(self):
        for wid in (
            WitnessId.JR_UPPER, WitnessId.PJR_UPPER, WitnessId.CC_UPPER, WitnessId.JR_PJR_3WAY
        ):
            inst = witness(wid).inst
            paired = companion(wid, inst)
            assert profile_distance(inst.ballots, paired.ballots) == 1
            produced = {nb.ballots for _, nb in enumerate_neighbors(inst)}
            assert paired.ballots in produced

    def test_block_rewrite_distance_matches_ceil(self):
        for wid in (WitnessId.EJR_UPPER, WitnessId.PJR_EJR_3WAY):
            inst = witness(wid).inst
            assert profile_distance(inst.ballots, companion(wid, inst).ballots) == 2

    @pytest.mark.parametrize(
        "wid,kwargs,fragment",
        [
            (WitnessId.JR_UPPER, dict(n=2, k=2), "n > k"),
            (WitnessId.PJR_UPPER, dict(n=5, k=2), "s*k"),
            (WitnessId.EJR_UPPER, dict(n=5, k=2), "s*k"),
            (WitnessId.PE_CHAIN, dict(m=4), "n + 2k - 1"),
            (WitnessId.CC_UPPER, dict(n=4), "odd"),
            (WitnessId.JR_PJR_3WAY, dict(k=3), "k >= 4"),
            (WitnessId.PJR_EJR_3WAY, dict(k=2, n=4, m=5), "k >= 3"),
            (WitnessId.FIG3_DIVERGENCE, dict(m=3), "2k"),
            (WitnessId.CC_JR_INCOMPAT, dict(k=2, m=4), "k >= 3"),
            (WitnessId.JR_UPPER, dict(k=0), "k >= 1"),
            (WitnessId.EJR_UPPER, dict(k=0), "k >= 1"),
        ],
    )
    def test_side_condition_violations_name_the_condition(self, wid, kwargs, fragment):
        with pytest.raises(InvalidParametersError, match=re.escape(fragment)):
            witness(wid, **kwargs)


class TestTaggedMemberships:
    @pytest.mark.parametrize("wid", sorted(MEMBERSHIP_FACTS, key=lambda w: w.value))
    def test_fast_checkers_confirm_tags(self, wid):
        profiles = dict(_profiles(wid, witness(wid).inst))
        tags = tagged(wid, *wid.shape)
        for tag, which, expectations in MEMBERSHIP_FACTS[wid]:
            committee = tags[tag]
            inst = profiles[which]
            for ax, expected in expectations.items():
                assert (tuple(sorted(committee)) in axiom_committee_set(inst, ax)) == expected, (
                    wid,
                    tag,
                    which,
                    ax,
                )

    @pytest.mark.parametrize("wid", sorted(MEMBERSHIP_FACTS, key=lambda w: w.value))
    def test_brute_oracle_confirms_tags(self, wid):
        profiles = dict(_profiles(wid, witness(wid).inst))
        tags = tagged(wid, *wid.shape)
        for tag, which, expectations in MEMBERSHIP_FACTS[wid]:
            committee = tags[tag]
            inst = profiles[which]
            for ax, expected in expectations.items():
                assert brute_satisfies(committee, inst, ax) == expected

    def test_ejr_upper_sets_are_singletons(self):
        wid = WitnessId.EJR_UPPER
        base = witness(wid).inst
        tags = tagged(wid, *wid.shape)
        for inst, tag in ((base, "W"), (companion(wid, base), "W_prime")):
            for ax in (Axiom.JR, Axiom.PJR, Axiom.EJR):
                assert axiom_committee_set(inst, ax) == (tags[tag],)


class TestPeChain:
    def test_chain_length_and_tags(self):
        w = witness(WitnessId.PE_CHAIN)
        chain = pe_chain(w.inst.n, w.inst.k)
        tags = tagged(WitnessId.PE_CHAIN, *WitnessId.PE_CHAIN.shape)
        assert len(chain) == w.inst.n * w.inst.k + 1
        assert chain[0] == tags["W_1_1"]
        assert chain[-1] == tags["W_3_1"]

    def test_consecutive_dominance_and_av_descent(self):
        w = witness(WitnessId.PE_CHAIN)
        chain = pe_chain(w.inst.n, w.inst.k)
        scores = [av_score(c, w.inst.ballots) for c in chain]
        assert scores == [4, 3, 2, 1, 0]
        for hi, lo in zip(chain, chain[1:]):
            assert pareto_dominates(hi, lo, w.inst.ballots)

    def test_scaled_chain(self):
        w = witness(WitnessId.PE_CHAIN, n=3, k=2, m=8)
        chain = pe_chain(3, 2)
        scores = [av_score(c, w.inst.ballots) for c in chain]
        assert len(chain) == 7
        assert scores == sorted(scores, reverse=True)
        for hi, lo in zip(chain, chain[1:]):
            assert pareto_dominates(hi, lo, w.inst.ballots)

    @pytest.mark.parametrize("n,k,m", [(2, 2, 5), (3, 2, 8), (2, 3, 9)])
    def test_per_voter_overlap_table(self, n, k, m):
        # row p, column q of the grid overlaps voter j in exactly k-p members
        # for j < q-1 and k-p+1 members afterwards; the tail committee in none
        w = witness(WitnessId.PE_CHAIN, n=n, k=k, m=m)
        tags = tagged(WitnessId.PE_CHAIN, n, k, m)
        for p in range(1, k + 1):
            for q in range(1, n + 1):
                committee = frozenset(tags[f"W_{p}_{q}"])
                overlaps = [len(b & committee) for b in w.inst.ballots]
                assert overlaps == [k - p] * (q - 1) + [k - p + 1] * (n - q + 1)
        tail = frozenset(tags[f"W_{k + 1}_1"])
        assert [len(b & tail) for b in w.inst.ballots] == [0] * n


class TestCondorcetWitnesses:
    def test_cc_upper_winners_flip(self):
        wid = WitnessId.CC_UPPER
        inst = witness(wid).inst
        tags = tagged(wid, *wid.shape)
        assert condorcet_committee(inst) == tags["W"]
        assert condorcet_committee(companion(wid, inst)) == tags["W_prime"]
        assert tags["W"] != tags["W_prime"]
        assert brute_condorcet(inst) == tags["W"]

    def test_incompatibility_winner(self):
        wid = WitnessId.CC_JR_INCOMPAT
        inst = witness(wid).inst
        tags = tagged(wid, *wid.shape)
        assert condorcet_committee(inst) == tags["W_c"]
        assert brute_condorcet(inst) == tags["W_c"]


class TestExport:
    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_profile_round_trips_through_text_format(self, wid):
        w = witness(wid)
        assert parse_instance(format_instance(w.inst)) == w.inst

    def test_witness_profiles_golden_digest(self):
        # every default witness's ballots, in voter order
        digest = hashlib.sha256()
        for wid in WitnessId:
            digest.update(format_instance(witness(wid).inst).encode())
        assert digest.hexdigest() == (
            "3dbe9fd0a81c42c95f423465820173955aad75c46e0a34f30bee5944154eeec3"
        )


class TestRandomInstance:
    def test_saturated_impartial_model(self):
        inst = random_instance(4, 3, 2, BallotModel("impartial", 1.0), 5)
        assert all(b == frozenset(range(4)) for b in inst.ballots)

    def test_deterministic_in_seed(self):
        model = BallotModel("impartial", 0.4)
        assert random_instance(5, 4, 2, model, 7) == random_instance(5, 4, 2, model, 7)

    def test_approval_frequency_matches_conditional_marginal(self):
        # resampling empty ballots conditions on non-emptiness, so the
        # per-alternative marginal is p / (1 - (1-p)^m) = 16/31 for p=1/2, m=5
        total = approved = 0
        for seed in range(10000):
            inst = random_instance(5, 6, 2, BallotModel("impartial", 0.5), seed)
            total += 5 * inst.n
            approved += sum(len(b) for b in inst.ballots)
        expected = 16 / 31
        se = math.sqrt(expected * (1 - expected) / total)
        assert abs(approved / total - expected) <= 3 * se

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.floats(0.05, 1.0))
    def test_ballots_never_empty(self, seed, p):
        inst = random_instance(4, 3, 2, BallotModel("impartial", p), seed)
        assert all(b for b in inst.ballots)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BallotModel("martian"),
            lambda: BallotModel("impartial", 0.0),
            # the shape is Instance's check; it runs before the first draw,
            # so m = 0, where every draw is empty, fails rather than spins
            lambda: random_instance(2, 3, 1, BallotModel("impartial"), 0),
            lambda: random_instance(0, 3, 1, BallotModel("impartial"), 0),
            lambda: random_instance(4, 3, 0, BallotModel("impartial"), 0),
            lambda: random_instance(3, 2, 4, BallotModel("impartial"), 0),
        ],
        ids=["unknown-kind", "p=0", "m=2", "m=0", "k=0", "k>m"],
    )
    def test_model_validation(self, make):
        with pytest.raises(InvalidParametersError):
            make()

    def test_grouped_profiles_golden_digest(self):
        # the profiles of the Condorcet repeated-ballot test, then the grouped
        # seq-av law profiles, so that both oracles keep running on them
        shapes = [
            (3 + seed % 4, 4 + seed % 6, 1 + seed % (2 + seed % 4), 0.5, 1 + seed % 3, seed)
            for seed in range(40)
        ] + [
            (5 + seed % 4, 4 + seed % 5, 2 + seed % (3 + seed % 4), 0.5, 2, seed)
            for seed in (0, 2, 4, 6)
        ]
        digest = hashlib.sha256()
        for shape in shapes:
            digest.update(format_instance(grouped_instance(*shape)).encode())
        assert digest.hexdigest() == (
            "cc80ab64330eb57db6fc76474a9fb459a1e913f25f457cd5e20b3a99a4d4fa68"
        )
