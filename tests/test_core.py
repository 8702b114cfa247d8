import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpabc import (
    Instance,
    InvalidParametersError,
    ProfileParseError,
    enumerate_neighbors,
    parse_instance,
    witness,
    WitnessId,
)
from dpabc.core import ResourceLimitError, canonical_committees, read_instance

from brute import permute, permute_committee, profile_distance
from witnesses import companion
from strategies import format_instance, instances, instances_with_permutation


class TestEnumerateCommittees:
    def test_full_committee_is_single(self):
        assert list(canonical_committees(3, 3)) == [(0, 1, 2)]

    def test_four_choose_two(self):
        committees = list(canonical_committees(4, 2))
        assert len(committees) == 6
        assert committees[0] == (0, 1)
        assert committees[-1] == (2, 3)

    def test_five_choose_two_count(self):
        assert len(canonical_committees(5, 2)) == 10

    def test_all_desk_scale_sizes(self):
        for m in range(1, 9):
            for k in range(1, m + 1):
                committees = list(canonical_committees(m, k))
                assert len(committees) == math.comb(m, k)
                assert len(set(committees)) == len(committees)
                assert committees == sorted(committees)
                assert all(tuple(sorted(w)) == w and len(w) == k for w in committees)

    @pytest.mark.parametrize("m,k", [(4, 0), (4, 5), (3, -1)])
    def test_invalid_parameters(self, m, k):
        with pytest.raises(InvalidParametersError):
            canonical_committees(m, k)


class TestNeighbors:
    def test_single_voter_three_alternatives(self):
        inst = Instance([{0}], 3, 1)
        assert sum(1 for _ in enumerate_neighbors(inst)) == 6  # 2^3 - 2

    def test_two_voters_three_alternatives(self):
        inst = Instance([{0}, {1, 2}], 3, 1)
        neighbors = list(enumerate_neighbors(inst))
        assert len(neighbors) == 12  # n * (2^m - 2)

    def test_contains_designed_companion(self):
        inst = witness(WitnessId.JR_UPPER).inst
        produced = {nb.ballots for _, nb in enumerate_neighbors(inst)}
        assert companion(WitnessId.JR_UPPER, inst).ballots in produced

    @settings(max_examples=40)
    @given(instances(max_m=4, max_n=4))
    def test_neighbor_stream_properties(self, inst):
        seen = set()
        count = 0
        for voter, nb in enumerate_neighbors(inst):
            count += 1
            assert nb.k == inst.k and nb.m == inst.m
            assert profile_distance(inst.ballots, nb.ballots) == 1
            assert nb.ballots[voter] != inst.ballots[voter]
            assert nb.ballots != inst.ballots
            assert nb.ballots not in seen
            seen.add(nb.ballots)
        assert count == inst.n * (2**inst.m - 2)


class TestProfileDistance:
    def test_identical(self):
        inst = Instance([{0}, {1}], 3, 1)
        assert profile_distance(inst.ballots, inst.ballots) == 0

    def test_neighboring_witness_pair(self):
        inst = witness(WitnessId.JR_UPPER).inst
        paired = companion(WitnessId.JR_UPPER, inst)
        assert profile_distance(inst.ballots, paired.ballots) == 1

    def test_block_rewrite_distance(self):
        inst = witness(WitnessId.EJR_UPPER).inst  # n=4, k=2: profiles differ on 2 voters
        paired = companion(WitnessId.EJR_UPPER, inst)
        assert profile_distance(inst.ballots, paired.ballots) == 2

    def test_length_mismatch(self):
        with pytest.raises(InvalidParametersError):
            profile_distance(({0},), ({0}, {1}))


class TestPermute:
    def test_identity(self):
        inst = Instance([{0, 1}, {2}], 3, 2)
        assert permute(inst, (0, 1, 2)) == inst

    def test_swap_is_involution(self):
        inst = Instance([{0, 1}, {2}], 3, 2)
        swap = (1, 0, 2)
        assert permute(permute(inst, swap), swap) == inst

    def test_pointwise_mapping(self):
        inst = Instance([{0}], 3, 1)
        assert permute(inst, (1, 0, 2)).ballots[0] == frozenset({1})

    def test_committee_image_sorted(self):
        assert permute_committee((0, 2), (2, 1, 0)) == (0, 2)
        assert permute_committee((0, 1), (2, 0, 1)) == (0, 2)

    def test_not_a_bijection(self):
        inst = Instance([{0}], 3, 1)
        with pytest.raises(InvalidParametersError):
            permute(inst, (0, 0, 2))
        with pytest.raises(InvalidParametersError):
            permute(inst, (0, 1))

    @settings(max_examples=40)
    @given(instances_with_permutation(max_m=5, max_n=5), st.integers(0, 10**6))
    def test_distance_preserved(self, inst_sigma, seed):
        inst, sigma = inst_sigma
        # mutate one ballot deterministically to get a second profile
        voter = seed % inst.n
        flipped = set(inst.ballots[voter]) ^ {seed % inst.m}
        other = inst.replace_ballot(voter, flipped or {seed % inst.m})
        d = profile_distance(inst.ballots, other.ballots)
        assert d == profile_distance(
            permute(inst, sigma).ballots, permute(other, sigma).ballots
        )


class TestInstanceInvariants:
    def test_empty_ballot_rejected(self):
        with pytest.raises(InvalidParametersError):
            Instance([set()], 3, 1)

    def test_committee_size_bounds(self):
        with pytest.raises(InvalidParametersError):
            Instance([{0}], 3, 4)
        with pytest.raises(InvalidParametersError):
            Instance([{0}], 3, 0)

    def test_minimum_alternatives(self):
        with pytest.raises(InvalidParametersError):
            Instance([{0}], 2, 1)

    def test_out_of_range_alternative(self):
        with pytest.raises(InvalidParametersError):
            Instance([{3}], 3, 1)

    def test_no_voters(self):
        with pytest.raises(InvalidParametersError):
            Instance((), 3, 1)

    def test_bool_alternative_rejected(self):
        # True == 1 as an int, but format_instance would write "True 2",
        # which parse_instance rejects
        with pytest.raises(InvalidParametersError, match=r"outside 0\.\.2: \[True, 2\]"):
            Instance([{True, 2}], 3, 1)

    def test_no_voters_from_a_generator(self):
        # a generator is truthy even when empty: emptiness is decided on the
        # materialized profile
        with pytest.raises(InvalidParametersError, match="at least one voter"):
            Instance((b for b in []), 3, 1)
        inst = Instance((b for b in [{0}, [1, 2]]), 3, 1)
        assert inst.ballots == (frozenset({0}), frozenset({1, 2}))


class TestReplaceBallot:
    """``replace_ballot`` validates only the new ballot; it must reject what
    the constructor rejects, with the same message, and build an equal
    instance."""

    INST = Instance([{0, 1}, {2}, {1, 3}], 4, 2)

    @pytest.mark.parametrize(
        "voter, ballot, message",
        [
            (1, set(), "voter 1 has an empty ballot"),
            (0, {1, 4}, "voter 0 approves alternatives outside 0..3: [1, 4]"),
            (2, {-1}, "voter 2 approves alternatives outside 0..3: [-1]"),
            (2, {"0"}, "voter 2 approves alternatives outside 0..3: ['0']"),
            (0, {False, 2}, "voter 0 approves alternatives outside 0..3: [False, 2]"),
        ],
    )
    def test_invalid_ballot_raises_the_constructor_message(self, voter, ballot, message):
        with pytest.raises(InvalidParametersError) as replaced:
            self.INST.replace_ballot(voter, ballot)
        ballots = list(self.INST.ballots)
        ballots[voter] = ballot
        with pytest.raises(InvalidParametersError) as built:
            Instance(tuple(ballots), 4, 2)
        assert str(replaced.value) == str(built.value) == message

    def test_voter_out_of_range(self):
        with pytest.raises(IndexError):
            self.INST.replace_ballot(3, {0})

    @settings(max_examples=60)
    @given(instances(max_m=6, max_n=5), st.data())
    def test_equals_a_fully_validated_instance(self, inst, data):
        voter = data.draw(st.integers(-inst.n, inst.n - 1))
        ballot = data.draw(st.frozensets(st.integers(0, inst.m - 1), min_size=1))
        ballots = list(inst.ballots)
        ballots[voter] = ballot
        built = Instance(tuple(ballots), inst.m, inst.k)
        # the unchecked build, given what the check passes, builds the same
        checked = inst.replace_ballot(voter, list(ballot))
        for replaced in (checked, inst._replaced(voter % inst.n, ballot)):
            assert replaced == built
            assert hash(replaced) == hash(built)
            assert replaced.ballots[voter] == ballot
            assert all(type(b) is frozenset for b in replaced.ballots)


class TestTextFormat:
    def test_round_trip(self):
        inst = Instance([{0, 2, 3}, {1}], 4, 2)
        assert parse_instance(format_instance(inst)) == inst

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\nm=3 k=1\n0 2  # voter 0\n\n1\n"
        inst = parse_instance(text)
        assert inst.ballots == (frozenset({0, 2}), frozenset({1}))

    def test_bad_header_reports_line(self):
        for header in (
            "m=3",
            "m=4 k=2 m=5",
            "m=4 k=2 k=2",
            "m=4 k=2 foo=bar",
            "foo=bar m=4 k=2",
            "m=4 m=4",
            "m=4 k",
        ):
            with pytest.raises(ProfileParseError) as err:
                parse_instance(f"{header}\n0\n")
            assert err.value.line == 1, header

    def test_header_fields_in_either_order(self):
        assert parse_instance("k=2 m=4\n0\n") == parse_instance("m=4 k=2\n0\n")

    def test_empty_ballot_reports_line(self):
        with pytest.raises(ProfileParseError) as err:
            parse_instance("m=3 k=1\n0\nx\n")
        assert err.value.line == 3

    def test_out_of_range_index_reports_line(self):
        with pytest.raises(ProfileParseError) as err:
            parse_instance("m=3 k=1\n0\n7\n")
        assert err.value.line == 3

    def test_missing_voters(self):
        with pytest.raises(ProfileParseError):
            parse_instance("m=3 k=1\n")
        # nor a header: nothing but blank lines and comments
        for text in ("", "\n# m=3 k=1\n\n"):
            with pytest.raises(ProfileParseError, match="missing 'm=<int> k=<int>' header") as err:
                parse_instance(text)
            assert err.value.line == 1

    @settings(max_examples=30)
    @given(instances(max_m=5, max_n=5))
    def test_round_trip_property(self, inst):
        assert parse_instance(format_instance(inst)) == inst

    def test_lines_split_as_splitlines_splits(self):
        # form feed and NEL end lines, as they do for str.splitlines
        with pytest.raises(ProfileParseError) as err:
            parse_instance("m=3 k=1\x0c0 1\x85x\n")
        assert err.value.line == 3

    def test_open_file_reads_as_its_text(self, tmp_path):
        # the file's CRLF ends lines as in the text; form feed ends one too
        text = "# profile\r\nm=5 k=2\n0 3  # a voter\r\n\n1 2\x0c4\n" + "2\n" * 100
        path = tmp_path / "profile.txt"
        path.write_text(text, newline="")
        with open(path) as fh:
            inst = read_instance(fh)
        assert inst == parse_instance(text)
        assert inst.ballots[:4] == tuple(map(frozenset, ([0, 3], [1, 2], [4], [2])))

    @pytest.mark.parametrize(
        "voters, got",
        [
            ("0\n0\n0\nx\n", "n=4"),
            ("0\n0\n0\n0\n# comment\n\n", "n=4"),
            ("0\n0\n0\n0\nx\n", "n >= 5"),
            ("0\n" * 9, "n >= 5"),
        ],
    )
    def test_voter_cap_stops_at_the_first_voter_past_it(self, voters, got):
        # a voter line past the cap of 3 is not parsed, so "x" is no error
        with pytest.raises(ResourceLimitError) as err:
            read_instance(["m=3 k=1\n" + voters], lambda m, k: 3)
        assert str(err.value) == f"voter count limited to n <= 3, got {got}"

    def test_admit_sees_the_header_before_any_voter_line(self):
        seen = []

        def admit(m, k):
            seen.append((m, k))
            raise ResourceLimitError("shape")

        with pytest.raises(ResourceLimitError, match="shape"):
            read_instance(["k=2 m=4\n", "x\n"], admit)
        assert seen == [(4, 2)]
