import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpabc import (
    Axiom,
    BallotModel,
    CommitteeDistribution,
    InvalidParametersError,
    MECHANISMS,
    enumerate_neighbors,
    exp_av_distribution,
    Instance,
    rr_axiom_distribution,
    rr_condorcet_distribution,
    sample,
    sample_sequential_av,
    sequential_av_distribution,
    total_variation,
    uniform_distribution,
    witness,
    WitnessId,
    axiom_committee_set,
    condorcet_committee,
    random_instance,
)
from dpabc.axioms import JR_FAMILY
from dpabc.core import canonical_committees, committee_index
from dpabc.mechanisms import (
    AUDIT_MECHANISMS,
    _law,
    as_epsilon,
    splitmix64,
    uniform_stream,
    weight_exponent,
)

from brute import (
    brute_satisfies,
    brute_sequential_law,
    brute_sequential_sample,
    permute,
    permute_committee,
    ratio_coeff,
)
from strategies import EDGE_SEEDS, grouped_instance, instances, instances_with_permutation

ALL_MECHANISMS = sorted(MECHANISMS)

# the sampling benchmark's three profile shapes, (m, k, generation seed), and
# the 2000 seeds it draws with
BENCH_SHAPES = ((8, 4, 8), (10, 5, 10), (12, 6, 12))
BENCH_SEEDS = range(1_000_000, 1_002_000)


class TestEpsilonParsing:
    def test_decimal_string_is_exact(self):
        assert as_epsilon("0.1") == Fraction(1, 10)
        assert as_epsilon("2") == Fraction(2)

    def test_float_goes_through_decimal_repr(self):
        assert as_epsilon(0.5) == Fraction(1, 2)
        assert as_epsilon(0.1) == Fraction(1, 10)

    @pytest.mark.parametrize(
        "bad",
        [
            0, -1, "0", "-0.5", "abc", None, float("nan"), float("inf"),
            "1e400", "1e-400", "1e-5000", "1/" + "9" * 5000, Fraction(0), Fraction(-1, 3),
        ],
    )
    def test_rejects_nonpositive_or_garbage(self, bad):
        with pytest.raises(InvalidParametersError):
            as_epsilon(bad)

    @pytest.mark.parametrize("big", [10**400, Fraction(10**400)])
    def test_exact_budget_beyond_float_range_is_rejected(self, big):
        with pytest.raises(InvalidParametersError, match="exceeds the float range"):
            as_epsilon(big)

    def test_weight_exponent_beyond_float_range_is_usage_error(self):
        with pytest.raises(InvalidParametersError, match=r"exponent 2\*eps overflows"):
            weight_exponent(8, 4, as_epsilon("1e308"))
        assert weight_exponent(8, 4, as_epsilon("1e300")) == 2e300
        # AV(0,1) = 8 with k = 2, so q = 2 and q*eps overflows at eps = 1e308
        inst = Instance([{0, 1}] * 4, 3, 2)
        with pytest.raises(InvalidParametersError, match="overflows"):
            exp_av_distribution(inst, "1e308")
        exp_av_distribution(inst, "1e300")  # q*eps = 2e300 still fits

    def test_sequential_weights_beyond_float_range_are_usage_error(self):
        inst = witness(WitnessId.PE_CHAIN).inst
        for eps in ("1e300", "2800"):
            with pytest.raises(InvalidParametersError, match="overflow"):
                sequential_av_distribution(inst, eps)
        with pytest.raises(InvalidParametersError, match="overflow"):
            sample_sequential_av(inst, "1e300", 0)
        # the weights fit, but a committee's probability underflows to 0
        with pytest.raises(InvalidParametersError, match="underflows"):
            sequential_av_distribution(inst, "1400")

    def test_cached_weights_still_reject_a_bad_budget_on_every_call(self):
        inst = witness(WitnessId.PE_CHAIN).inst
        sample_sequential_av(inst, 1, 0)
        for bad in ("1e300", "0", "abc", [1]):
            for _ in range(2):
                with pytest.raises(InvalidParametersError):
                    sample_sequential_av(inst, bad, 0)
        with pytest.raises(InvalidParametersError, match="underflows"):
            sequential_av_distribution(inst, "1400")

    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_equal_budgets_of_any_type_give_one_law(self, mechanism):
        inst = witness(WitnessId.PE_CHAIN).inst
        laws = [MECHANISMS[mechanism](inst, eps) for eps in ("0.7", "7/10", 0.7, Fraction(7, 10))]
        assert all(type(law.epsilon) is Fraction for law in laws)
        assert {(law.epsilon, law.log_probs) for law in laws} == {
            (Fraction(7, 10), laws[0].log_probs)
        }

    def test_equal_budgets_of_any_type_draw_alike(self):
        inst = witness(WitnessId.PE_CHAIN).inst
        for seed in range(200):
            drawn = {sample_sequential_av(inst, eps, seed) for eps in (1, "1", 1.0, Fraction(1))}
            assert len(drawn) == 1, seed


# decimal strings from 1e-320 (subnormal as a float) to 1e308
DECIMAL_EPS = st.builds(
    "{}e{}".format,
    st.decimals(min_value=1, max_value=10, places=6, allow_nan=False).map(str),
    st.integers(-320, 307),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10**3), DECIMAL_EPS)
def test_weight_exponent_is_the_float_of_the_exact_product(p, d, text):
    eps = as_epsilon(text)
    try:
        expected = float(Fraction(p, d) * eps)
    except OverflowError:
        with pytest.raises(InvalidParametersError, match="overflows"):
            weight_exponent(p, d, eps)
        return
    assert weight_exponent(p, d, eps) == expected


def reference_weight_coeffs(mechanism, inst):
    """Each committee's exponent ``q`` from its own ``Fraction``, as the
    rules once built it committee by committee."""
    committees = canonical_committees(inst.m, inst.k)
    if mechanism.startswith("rr-") and mechanism != "rr-condorcet":
        satisfying = set(axiom_committee_set(inst, Axiom(mechanism[3:])))
        return tuple(Fraction(1, 2) if w in satisfying else Fraction(0) for w in committees)
    if mechanism == "exp-av":
        approvals = [sum(1 for b in inst.ballots if a in b) for a in range(inst.m)]
        return tuple(Fraction(sum(approvals[a] for a in w), 2 * inst.k) for w in committees)
    if mechanism == "rr-condorcet":
        winner = condorcet_committee(inst)
        return tuple(Fraction(1) if w == winner else Fraction(0) for w in committees)
    assert mechanism == "uniform"
    return tuple(Fraction(0) for _ in committees)


def prob(dist, committee):
    """The probability ``dist`` puts on ``committee``."""
    return dist.probs[dist.committees.index(committee)]


class TestWeightCoeffs:
    @pytest.mark.parametrize("mechanism", AUDIT_MECHANISMS)
    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_match_per_committee_fractions(self, mechanism, wid):
        inst = witness(wid).inst
        dist = MECHANISMS[mechanism](inst, "0.7")
        coeffs = tuple(Fraction(p, dist.scale) for p in dist.scores)
        assert coeffs == reference_weight_coeffs(mechanism, inst)
        assert all(type(p) is int for p in (*dist.scores, dist.scale))


class TestSplitmix:
    def test_stream_deterministic(self):
        a = [next(splitmix64(42)) for _ in range(3)]
        b = [next(splitmix64(42)) for _ in range(3)]
        assert a == b

    def test_published_seed_zero_words(self):
        stream = splitmix64(0)
        assert [next(stream) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniforms_in_unit_interval(self):
        stream = uniform_stream(7)
        values = [next(stream) for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in values)
        assert 0.4 < sum(values) / len(values) < 0.6


class TestRandomizedResponse:
    def test_jr_upper_closed_form(self):
        w = witness(WitnessId.JR_UPPER)
        dist = rr_axiom_distribution(w.inst, 1, Axiom.JR)
        high = math.exp(0.5) / (3 * math.exp(0.5) + 3)
        low = 1 / (3 * math.exp(0.5) + 3)
        assert prob(dist, (0, 1)) == pytest.approx(high, abs=1e-12)
        assert prob(dist, (0, 1)) == pytest.approx(0.2074871, abs=1e-6)
        assert prob(dist, (1, 2)) == pytest.approx(low, abs=1e-12)
        assert prob(dist, (1, 2)) == pytest.approx(0.1258469, abs=1e-6)

    def test_uniform_when_every_committee_satisfies(self):
        w = witness(WitnessId.FIG3_DIVERGENCE)  # JR holds for all committees
        dist = rr_axiom_distribution(w.inst, 1, Axiom.JR)
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in dist.probs)

    def test_boundary_ratio_is_exactly_half_eps(self):
        w = witness(WitnessId.JR_UPPER)
        dist = rr_axiom_distribution(w.inst, "0.3", Axiom.JR)
        assert ratio_coeff(dist, (0, 1), (1, 2)) == Fraction(1, 2)
        assert ratio_coeff(dist, (0, 1), (0, 2)) == Fraction(0)

    def test_rejects_efficiency_axiom(self):
        w = witness(WitnessId.JR_UPPER)
        with pytest.raises(InvalidParametersError):
            rr_axiom_distribution(w.inst, 1, Axiom.CC)

    def test_rejects_nonpositive_epsilon(self):
        w = witness(WitnessId.JR_UPPER)
        with pytest.raises(InvalidParametersError):
            rr_axiom_distribution(w.inst, 0, Axiom.JR)


def indicator_scores(inst, ax):
    """The rr scores through the committee set: a 1 at each satisfying
    committee's position in the shared committee index, 0 elsewhere."""
    index = committee_index(inst.m, inst.k)
    scores = [0] * len(index)
    for w in axiom_committee_set(inst, ax):
        scores[index[w]] = 1
    return tuple(scores)


# seeded random profiles small enough for the brute oracle, each with a
# committee violating EJR; on m7-n8-k4-s29 the JR, PJR and EJR sets differ
RANDOM_RR_PROFILES = [
    (f"m{m}-n{n}-k{k}-s{seed}", random_instance(m, n, k, BallotModel("impartial", p), seed))
    for m, n, k, p, seed in [
        (5, 7, 2, 0.4, 2), (6, 8, 3, 0.3, 1), (6, 7, 3, 0.5, 1), (7, 8, 3, 0.3, 0),
        (7, 8, 4, 0.5, 29), (5, 8, 3, 0.6, 12),
    ]
]
RR_PROFILES = [(wid.value, witness(wid).inst) for wid in WitnessId] + RANDOM_RR_PROFILES


class TestRrScores:
    """The rr rules read the violator bitset as their 0/1 score tuple."""

    @pytest.mark.parametrize("name, inst", RR_PROFILES, ids=[name for name, _ in RR_PROFILES])
    def test_bitset_scores_match_the_committee_set_and_brute(self, name, inst):
        committees = canonical_committees(inst.m, inst.k)
        for ax in JR_FAMILY:
            scores = rr_axiom_distribution(inst, 1, ax).scores
            assert type(scores) is tuple and {type(q) for q in scores} == {int}
            assert scores == indicator_scores(inst, ax)
            assert scores == tuple(int(brute_satisfies(w, inst, ax)) for w in committees)

    def test_every_random_profile_has_an_ejr_violator(self):
        for name, inst in RANDOM_RR_PROFILES:
            assert 0 in rr_axiom_distribution(inst, 1, Axiom.EJR).scores, name


class TestLawMemo:
    """A law is a function of (scores, scale, eps), built once per distinct
    triple."""

    def test_equal_scores_at_another_scale_or_budget_give_another_law(self):
        scores = (1, 0, 0, 1, 0, 2)
        keys = [(2, Fraction(1)), (1, Fraction(1)), (2, Fraction(3)), (4, Fraction(3))]
        keys = [(scale, eps.numerator, eps.denominator) for scale, eps in keys]
        laws = [_law(scores, *key) for key in keys]
        assert len(set(laws)) == len(keys)
        for key, law in zip(keys, laws):
            assert _law(scores, *key) == law == _law.__wrapped__(scores, *key)
        inst = witness(WitnessId.JR_UPPER).inst
        one, two = (rr_axiom_distribution(inst, eps, Axiom.JR) for eps in (1, 2))
        assert one.scores == two.scores and one.log_probs != two.log_probs
        assert ratio_coeff(two, (0, 1), (1, 2)) == Fraction(1, 2)

    def test_instances_with_equal_scores_share_one_law(self):
        inst = witness(WitnessId.JR_UPPER).inst
        reordered = Instance(inst.ballots[::-1], inst.m, inst.k)
        a, b = (rr_axiom_distribution(x, 1, Axiom.JR) for x in (inst, reordered))
        assert a.log_probs is b.log_probs

    def test_an_overflowing_budget_raises_on_every_call(self):
        # AV(0,1) = 8 with k = 2, so q = 2 and q*eps overflows at eps = 1e308
        inst = Instance([{0, 1}] * 4, 3, 2)
        exp_av_distribution(inst, 1)
        for _ in range(2):
            with pytest.raises(InvalidParametersError, match="overflows"):
                exp_av_distribution(inst, "1e308")
        exp_av_distribution(inst, "1e300")


class TestExpAv:
    def test_single_voter_closed_form(self):
        inst = Instance([{0}], 3, 1)
        dist = exp_av_distribution(inst, 2)
        assert prob(dist, (0,)) == pytest.approx(math.e / (math.e + 2), abs=1e-12)

    def test_equal_scores_give_uniform(self):
        inst = Instance([{0, 1, 2}] * 2, 3, 2)  # every committee scores 2n
        dist = exp_av_distribution(inst, 1)
        assert all(p == pytest.approx(1 / 3, abs=1e-12) for p in dist.probs)

    def test_chain_ratio_coefficient(self):
        w = witness(WitnessId.PE_CHAIN)
        dist = exp_av_distribution(w.inst, 1)
        # AV gap between (0,1) and (0,2) is 1; k = 2
        assert ratio_coeff(dist, (0, 1), (0, 2)) == Fraction(1, 4)

    def test_large_budget_keeps_finite_logs_while_probs_underflow(self):
        # the law's logs stay finite: the levels read them, not the probabilities
        dist = exp_av_distribution(witness(WitnessId.EJR_UPPER).inst, 2000)
        assert all(map(math.isfinite, dist.log_probs))
        assert min(dist.log_probs) == -2000.0
        assert dist.probs.count(0.0) == 5 and max(dist.probs) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(instances(max_m=4, max_n=4), st.data())
    def test_neighbor_weight_shift_at_most_half(self, inst, data):
        dist = exp_av_distribution(inst, 1)
        neighbors = [nb for _, nb in enumerate_neighbors(inst)]
        neighbor = data.draw(st.sampled_from(neighbors))
        other = exp_av_distribution(neighbor, 1)
        assert dist.scale == other.scale
        for p1, p2 in zip(dist.scores, other.scores):
            assert abs(Fraction(p1 - p2, dist.scale)) <= Fraction(1, 2)


class TestSequentialAv:
    def test_single_seat_matches_committee_level(self):
        inst = Instance([{0}, {0, 1}], 3, 1)
        seq = sequential_av_distribution(inst, 2)
        com = exp_av_distribution(inst, 2)
        for p, q in zip(seq.probs, com.probs):
            assert p == pytest.approx(q, abs=1e-12)

    def test_full_committee_is_point_mass(self):
        inst = Instance([{0}], 3, 3)
        seq = sequential_av_distribution(inst, 1)
        assert seq.probs == pytest.approx((1.0,), abs=1e-12)

    def test_divergence_from_committee_level_on_chain(self):
        w = witness(WitnessId.PE_CHAIN)
        tv = total_variation(
            sequential_av_distribution(w.inst, 1), exp_av_distribution(w.inst, 1)
        )
        assert tv == pytest.approx(0.0131145404, abs=1e-9)
        wider = exp_av_distribution(Instance(w.inst.ballots, w.inst.m, 3), 1)
        with pytest.raises(InvalidParametersError, match="different committee spaces"):
            total_variation(exp_av_distribution(w.inst, 1), wider)

    # every witness, and seeded profiles with m = 5..8 and k = 2..m-1
    LAW_PROFILES = [(wid.value, witness(wid).inst) for wid in WitnessId] + [
        (
            f"random-{seed}",
            random_instance(*shape, BallotModel("impartial", 0.4), seed)
            if seed % 2
            else grouped_instance(*shape, 0.5, 2, seed),
        )
        for seed in range(8)
        for shape in [(5 + seed % 4, 4 + seed % 5, 2 + seed % (3 + seed % 4))]
    ]

    @pytest.mark.parametrize("eps", ["0.1", "1", "3", "30", "100", "300"])
    @pytest.mark.parametrize("name, inst", LAW_PROFILES, ids=[n for n, _ in LAW_PROFILES])
    def test_law_matches_pick_order_oracle(self, name, inst, eps):
        expected = brute_sequential_law(inst, eps)
        if 0.0 in expected:
            with pytest.raises(InvalidParametersError, match="underflows"):
                sequential_av_distribution(inst, eps)
            return
        law = sequential_av_distribution(inst, eps)
        assert law.committees == canonical_committees(inst.m, inst.k)
        for log_p, p in zip(law.log_probs, expected, strict=True):
            assert abs(log_p - math.log(p)) <= 1e-12

    def test_law_past_the_old_m_cap_matches_oracle(self):
        inst = witness(WitnessId.JR_UPPER, m=12).inst
        law = sequential_av_distribution(inst, 1)
        expected = brute_sequential_law(inst, 1)
        assert len(law.log_probs) == len(expected) == math.comb(12, inst.k)
        for log_p, p in zip(law.log_probs, expected):
            assert abs(log_p - math.log(p)) <= 1e-12

    def test_law_at_m14_k7_sums_to_one(self):
        inst = random_instance(14, 10, 7, BallotModel("impartial", 0.3), 5)
        law = sequential_av_distribution(inst, 1)
        assert len(law.probs) == 3432
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-9)

    SWAP_PROFILES = [("JR_PJR_3WAY", witness(WitnessId.JR_PJR_3WAY).inst)] + [
        (f"random-{seed}", random_instance(8, 6, 3 + seed % 3, BallotModel("impartial", 0.4), seed))
        for seed in range(6)
    ]

    @pytest.mark.parametrize("name, inst", SWAP_PROFILES, ids=[n for n, _ in SWAP_PROFILES])
    def test_swapping_equally_approved_alternatives_maps_the_law_onto_itself(self, name, inst):
        # on JR_PJR_3WAY alternatives 1 and 4 are each approved by two voters;
        # sums taken left to right broke six of the committee pairs they swap
        approvals = [sum(a in b for b in inst.ballots) for a in range(inst.m)]
        law = sequential_av_distribution(inst, 1)
        for x, y in itertools.combinations(range(inst.m), 2):
            if approvals[x] != approvals[y]:
                continue
            sigma = list(range(inst.m))
            sigma[x], sigma[y] = y, x
            image = sequential_av_distribution(permute(inst, sigma), 1)
            moved = dict(zip(image.committees, image.log_probs))
            for w, log_p in zip(law.committees, law.log_probs):
                assert moved[permute_committee(w, sigma)] == log_p, (x, y, w)

    def test_dp_audit_keeps_the_first_of_mirrored_voters(self):
        # voters 0 and 2 have mirror-image neighbours whose gaps tie exactly,
        # so the strict ">" keeps voter 0
        from dpabc import dp_level, make_rule

        report = dp_level(make_rule("seq-av", 1), witness(WitnessId.PJR_EJR_3WAY).inst)
        assert report.attaining == (0, frozenset({4, 6, 7}), (4, 6, 7))
        assert report.max_log_ratio == pytest.approx(0.7550449542698265, abs=1e-12)

    def test_literal_sampler_matches_law(self):
        inst = Instance([{0}, {0, 1}, {2}], 4, 2)
        law = sequential_av_distribution(inst, 1)
        n = 20000
        counts = {}
        for seed in range(n):
            c = sample_sequential_av(inst, 1, seed)
            counts[c] = counts.get(c, 0) + 1
        for committee, p in zip(law.committees, law.probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(committee, 0) / n - p) <= 3 * se

    @pytest.mark.parametrize("eps", ["0.1", "1", "1/3", "30"])
    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_sampler_matches_the_pick_by_pick_oracle(self, wid, eps):
        inst = witness(wid).inst
        for seed in (*range(200), *EDGE_SEEDS):
            assert sample_sequential_av(inst, eps, seed) == brute_sequential_sample(
                inst, eps, seed
            ), seed

    @pytest.mark.parametrize("m, k, gen_seed", BENCH_SHAPES)
    def test_sampler_matches_the_oracle_on_the_benchmark_shapes(self, m, k, gen_seed):
        inst = random_instance(m, 10, k, BallotModel("impartial", 0.3), gen_seed)
        for seed in (*BENCH_SEEDS, *EDGE_SEEDS):
            assert sample_sequential_av(inst, 1, seed) == brute_sequential_sample(
                inst, 1, seed
            ), seed

    @settings(max_examples=300, deadline=None)
    @given(
        instances(max_m=7, max_k=7).flatmap(
            lambda inst: st.sampled_from((1, inst.k, inst.m)).map(
                lambda k: Instance(inst.ballots, inst.m, k)
            )
        ),
        st.sampled_from(("1e-9", "1/3", "1", "7/2", "30")),
        st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(-(2**70), 2**70)),
    )
    def test_sampler_matches_the_oracle_on_random_profiles(self, inst, eps, seed):
        assert sample_sequential_av(inst, eps, seed) == brute_sequential_sample(inst, eps, seed)

    def test_literal_sampler_deterministic(self):
        inst = Instance([{0}, {0, 1}, {2}], 4, 2)
        assert sample_sequential_av(inst, 1, 99) == sample_sequential_av(inst, 1, 99)

    def test_measured_privacy_on_chain_instance(self):
        # whether the sequential law meets the eps budget in general is open;
        # this records the exhaustively measured value on one instance
        from dpabc import dp_level, make_rule

        w = witness(WitnessId.PE_CHAIN)
        report = dp_level(make_rule("seq-av", 1), w.inst)
        assert report.instances_checked == 60
        assert report.max_log_ratio == pytest.approx(0.7101132921, abs=1e-6)
        assert report.max_log_ratio <= 1 + 1e-9


class TestRrCondorcet:
    def test_branch_formula_on_witness(self):
        w = witness(WitnessId.CC_UPPER)
        dist = rr_condorcet_distribution(w.inst, 1)
        assert prob(dist, (0, 2)) == pytest.approx(math.e / (math.e + 5), abs=1e-12)
        assert prob(dist, (0, 1)) == pytest.approx(1 / (math.e + 5), abs=1e-12)
        assert ratio_coeff(dist, (0, 2), (1, 3)) == Fraction(1)

    def test_uniform_without_condorcet_committee(self):
        w = witness(WitnessId.JR_UPPER)  # no Condorcet committee
        dist = rr_condorcet_distribution(w.inst, 1)
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in dist.probs)


class TestSampling:
    def test_point_mass(self):
        inst = Instance([{0}], 3, 3)
        dist = sequential_av_distribution(inst, 1)
        assert all(sample(dist, s) == (0, 1, 2) for s in range(50))

    def test_deterministic_per_seed(self):
        dist = uniform_distribution(Instance([{0}], 4, 2))
        assert sample(dist, 123) == sample(dist, 123)
        drawn = {sample(dist, s) for s in range(200)}
        assert len(drawn) == 6  # all committees reachable

    def test_frequencies_match_exact_distribution(self):
        dist = uniform_distribution(Instance([{0}], 4, 2))
        n = 30000
        counts = {}
        for seed in range(n):
            c = sample(dist, seed)
            counts[c] = counts.get(c, 0) + 1
        for committee, p in zip(dist.committees, dist.probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(committee, 0) / n - p) <= 3 * se

    @pytest.mark.parametrize("eps", ["0.1", "1"])
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_draw_is_the_linear_inverse_cdf_walk(self, wid, mechanism, eps):
        dist = MECHANISMS[mechanism](witness(wid).inst, eps)
        for seed in (*range(500), *EDGE_SEEDS):
            assert sample(dist, seed) == linear_walk(dist, seed)

    def test_draw_is_the_linear_walk_on_a_wide_law(self):
        inst = random_instance(12, 10, 6, BallotModel("impartial", 0.3), 12)
        dist = exp_av_distribution(inst, 1)
        assert len(dist.committees) == 924
        for seed in range(500):
            assert sample(dist, seed) == linear_walk(dist, seed)

    def test_draw_past_a_short_total_is_the_last_committee(self):
        # probabilities summing to 0.6: a uniform at or above the total
        # falls through every committee
        committees = canonical_committees(4, 2)
        dist = hand_built_law(committees, (0.1,) * len(committees))
        total = sum(dist.probs)
        assert total < 1
        seeds = range(200)
        past = [s for s in seeds if next(uniform_stream(s)) >= total]
        assert len(past) >= 50
        assert all(sample(dist, s) == committees[-1] for s in past)
        assert all(sample(dist, s) == linear_walk(dist, s) for s in seeds)

    def test_draw_on_a_running_sum_moves_past_it(self):
        # the walk needs u < running sum, so a uniform equal to the first
        # committee's probability draws the second committee
        seed = 0
        u = next(uniform_stream(seed))
        assert math.exp(math.log(u)) == u
        committees = canonical_committees(4, 2)
        dist = hand_built_law(committees, (u,) + (0.1,) * (len(committees) - 1))
        assert dist.cumulative[0] == u
        assert sample(dist, seed) == linear_walk(dist, seed) == committees[1]

    def test_sequential_draws_golden_digest(self):
        # every witness at eps 1 and 1/3, seeds 0..199
        digest = hashlib.sha256()
        for eps in ("1", "1/3"):
            for wid in WitnessId:
                inst = witness(wid).inst
                for seed in range(200):
                    drawn = list(sample_sequential_av(inst, eps, seed))
                    digest.update(f"{wid.value} {eps} {seed} {drawn}\n".encode())
        assert digest.hexdigest() == (
            "768c53cc00e6a75ed28167ef4710add662355d511b8231dabad7d0fa6a538f36"
        )


def hand_built_law(committees, probs):
    """A law on the committees of C(4, 2) with the given probabilities,
    which need not sum to 1."""
    return CommitteeDistribution(
        instance=Instance([{0}], 4, 2),
        epsilon=Fraction(1),
        committees=committees,
        scores=None,
        scale=1,
        log_probs=tuple(map(math.log, probs)),
    )


def linear_walk(dist, seed):
    """The inverse-CDF draw written out: add probabilities left to right
    and return the first committee whose running sum exceeds the uniform."""
    u = next(uniform_stream(seed))
    acc = 0.0
    for committee, p in zip(dist.committees, dist.probs):
        acc += p
        if u < acc:
            return committee
    return dist.committees[-1]


class TestDistributionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(instances(max_m=5, max_n=5), st.sampled_from(ALL_MECHANISMS))
    def test_full_support_and_normalization(self, inst, mechanism):
        dist = MECHANISMS[mechanism](inst, 1)
        assert min(dist.probs) > 0
        assert abs(sum(dist.probs) - 1) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(instances_with_permutation(max_m=5, max_n=5), st.sampled_from(ALL_MECHANISMS))
    def test_neutrality(self, inst_sigma, mechanism):
        inst, sigma = inst_sigma
        dist = MECHANISMS[mechanism](inst, 1)
        image = MECHANISMS[mechanism](permute(inst, sigma), 1)
        for committee, p in zip(dist.committees, dist.probs):
            assert prob(image, permute_committee(committee, sigma)) == pytest.approx(
                p, abs=1e-9
            )

    @settings(max_examples=25, deadline=None)
    @given(instances(max_m=5, max_n=3), st.sampled_from(ALL_MECHANISMS))
    def test_index_finds_every_committee_in_any_member_order(self, inst, mechanism):
        dist = MECHANISMS[mechanism](inst, 1)
        for i, committee in enumerate(dist.committees):
            assert dist.committees.index(tuple(sorted(committee[::-1]))) == i

    @pytest.mark.parametrize("committee", [(0,), (0, 1, 2), (0, 4), (1, 1)])
    def test_index_rejects_a_foreign_committee(self, committee):
        dist = uniform_distribution(Instance([{0}], 4, 2))
        with pytest.raises(ValueError):
            dist.committees.index(committee)
        with pytest.raises(ValueError):
            ratio_coeff(dist, (0, 1), committee)
