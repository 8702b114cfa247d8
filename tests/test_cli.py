import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpabc
from dpabc import (
    AUDIT_MECHANISMS,
    MECHANISMS,
    BallotModel,
    Instance,
    random_instance,
    sample,
    sample_sequential_av,
    witness,
    WitnessId,
)
from dpabc import cli
from dpabc.axioms import _av_scores
from dpabc.cli import main
from dpabc.mechanisms import _from_scores

from brute import brute_reproduce
from strategies import EDGE_SEEDS, format_instance


INSTANCE_COMMANDS = ["dist", "sample", "axioms", "audit-dp", "audit-axioms"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def json_lines(records):
    """Records as ``json.dumps`` lines with sorted keys."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def table_lines(records):
    """Records as ``--format table`` lines: the record name and a space
    padded to 14 columns, then the other fields as sorted ``key=value``."""
    return "".join(
        (r["record"] + " ").ljust(14)
        + " ".join(f"{key}={r[key]}" for key in sorted(r) if key != "record")
        + "\n"
        for r in records
    )


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` to count its calls; returns a one-item list
    holding the count."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestDist:
    def test_condorcet_response_branch_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dist", "--mechanism", "rr-condorcet", "--eps", "1",
            "--witness", "CC_UPPER",
        )
        assert code == 0
        records = parse_jsonl(out)
        assert len(records) == 6
        by_committee = {tuple(r["committee"]): r for r in records}
        assert by_committee[(0, 2)]["probability"] == pytest.approx(
            math.e / (math.e + 5), abs=1e-12
        )
        assert by_committee[(0, 1)]["probability"] == pytest.approx(
            1 / (math.e + 5), abs=1e-12
        )
        assert by_committee[(0, 2)]["log_weight"] == "1"
        assert by_committee[(0, 1)]["log_weight"] == "0"

    def test_structured_output_is_byte_identical(self, capsys):
        argv = (
            "dist", "--mechanism", "exp-av", "--eps", "0.5",
            "--witness", "PE_CHAIN",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_reads_profile_file(self, capsys, tmp_path):
        inst = Instance([{0, 1}, {2}], 3, 1)
        path = tmp_path / "profile.txt"
        path.write_text(format_instance(inst))
        code, out, _ = run_cli(
            capsys, "dist", "--mechanism", "uniform", "--eps", "1", "--input", str(path)
        )
        assert code == 0
        assert len(parse_jsonl(out)) == 3


# one run of every command, with its exit code; seq-av on EJR_UPPER at eps 0.7
# violates a bound, so that audit-axioms run exits 1
EVERY_COMMAND = [
    (0, ("dist", "--mechanism", "uniform", "--eps", "1", "--witness", "JR_UPPER")),
    (0, ("sample", "--mechanism", "exp-av", "--eps", "1", "--witness", "JR_UPPER", "--seed", "3")),
    (0, ("axioms", "--witness", "CC_JR_INCOMPAT")),
    (0, ("audit-dp", "--mechanism", "exp-av", "--eps", "1", "--witness", "JR_UPPER")),
    (0, ("audit-axioms", "--mechanism", "exp-av", "--eps", "1", "--witness", "PE_CHAIN")),
    (1, ("audit-axioms", "--mechanism", "seq-av", "--witness", "EJR_UPPER", "--eps", "0.7")),
    (0, ("reproduce", "--eps", "0.5")),
]


@pytest.mark.parametrize(
    "expected, argv", EVERY_COMMAND, ids=[f"{a[0]}-exit{c}" for c, a in EVERY_COMMAND]
)
class TestOutputPath:
    def test_out_flag_writes_stdout_to_file(self, capsys, tmp_path, expected, argv):
        for fmt in ("structured", "table"):
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            target = tmp_path / f"{argv[0]}.{fmt}"
            code_out, out_out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
            assert code == code_out == expected
            assert out_out == ""
            assert target.read_text() == out

    def test_table_format_has_one_line_per_record(self, capsys, expected, argv):
        code, structured, _ = run_cli(capsys, *argv)
        code_table, table, _ = run_cli(capsys, *argv, "--format", "table")
        assert code == code_table == expected
        records = parse_jsonl(structured)
        lines = table.splitlines()
        assert len(lines) == len(records) > 0
        for line, record in zip(lines, records):
            assert line.split()[0] == record["record"]
            assert all(f" {key}=" in line for key in record if key != "record")


def draws(*argv, seeds):
    """The committee ``sample`` draws at each seed, from one parse of
    ``argv``: building the parser per seed would cost more than the draw."""
    args = cli.build_parser().parse_args(["sample", *argv])
    for seed in seeds:
        args.seed = seed
        records, code = cli._cmd_sample(args)
        assert code == 0
        yield seed, tuple(records[0]["committee"])


class TestSample:
    def test_same_seed_same_committee(self, capsys):
        argv = (
            "sample", "--mechanism", "rr-condorcet", "--eps", "1",
            "--witness", "CC_UPPER", "--seed", "17",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        record = parse_jsonl(first)[0]
        assert record["record"] == "sample"
        assert len(record["committee"]) == 2

    @pytest.mark.parametrize("eps", ["0.1", "1"])
    @pytest.mark.parametrize("wid", list(WitnessId))
    def test_seq_av_runs_the_k_round_sampler(self, wid, eps):
        inst = witness(wid).inst
        argv = ("--mechanism", "seq-av", "--eps", eps, "--witness", wid.value)
        for seed, committee in draws(*argv, seeds=(*range(200), *EDGE_SEEDS)):
            assert committee == sample_sequential_av(inst, eps, seed), seed

    def test_seq_av_builds_no_law(self, capsys, monkeypatch):
        # at eps 1400 the law underflows (dist exits 2); the weights do not
        def unbuilt(*args):
            raise AssertionError("seq-av law built for a draw")

        monkeypatch.setitem(MECHANISMS, "seq-av", unbuilt)
        for eps in ("1", "1400"):
            code, out, err = run_cli(
                capsys, "sample", "--mechanism", "seq-av", "--eps", eps,
                "--witness", "PE_CHAIN", "--seed", "5",
            )
            assert (code, err) == (0, "")
            committee = sample_sequential_av(witness(WitnessId.PE_CHAIN).inst, eps, 5)
            assert parse_jsonl(out) == [
                {"committee": list(committee), "eps": eps, "mechanism": "seq-av",
                 "record": "sample", "seed": 5}
            ]

    def test_other_rules_draw_by_inverse_cdf_golden_digest(self):
        # every witness x every rule but seq-av at eps 1 and 1/3, seeds 0..49
        # and the edge seeds: each draw bisects the rule's exact law
        digest = hashlib.sha256()
        for eps in ("1", "1/3"):
            for wid in WitnessId:
                inst = witness(wid).inst
                for mechanism in sorted(set(MECHANISMS) - {"seq-av"}):
                    law = MECHANISMS[mechanism](inst, eps)
                    argv = ("--mechanism", mechanism, "--eps", eps, "--witness", wid.value)
                    for seed, committee in draws(*argv, seeds=(*range(50), *EDGE_SEEDS)):
                        assert committee == sample(law, seed)
                        line = f"{wid.value} {mechanism} {eps} {seed} {list(committee)}\n"
                        digest.update(line.encode())
        assert digest.hexdigest() == (
            "6860656fa0ee79ea978be6d9e29aa824beae1361d6370351690232c29ec46348"
        )


class TestAxiomsCommand:
    def test_lists_sets_frontier_and_condorcet(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "--witness", "CC_JR_INCOMPAT")
        assert code == 0
        records = parse_jsonl(out)
        kinds = [r["record"] for r in records]
        assert kinds.count("axiom_set") == 3
        assert "pareto_frontier" in kinds
        condorcet = next(r for r in records if r["record"] == "condorcet")
        assert condorcet["committee"] == [0, 1, 2]

    def test_emits_every_record_unfiltered(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "--witness", "JR_UPPER")
        assert code == 0
        records = parse_jsonl(out)
        assert [r["record"] for r in records] == [
            "axiom_set", "axiom_set", "axiom_set", "pareto_frontier", "condorcet",
        ]
        assert [r["axiom"] for r in records[:3]] == ["jr", "pjr", "ejr"]
        assert records[0]["committees"] == [[0, 1], [0, 2], [0, 3]]
        assert records[3]["count"] == 6
        assert records[4]["committee"] is None


class TestAuditCommands:
    def test_audit_dp_uniform_has_no_leakage(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit-dp", "--mechanism", "uniform", "--eps", "1",
            "--witness", "JR_UPPER",
        )
        assert code == 0
        record = parse_jsonl(out)[0]
        assert record["max_log_ratio"] == 0.0
        assert record["neighbors_checked"] == 56
        assert record["within_budget"] is True

    def test_audit_dp_policy_cap_exit_code(self, capsys, tmp_path, monkeypatch):
        # every ballot over 9 alternatives at k = 4: 32,836,860 predicted
        # committee evaluations, refused before the rule first runs
        ballots = [[a for a in range(9) if mask >> a & 1] for mask in range(1, 1 << 9)]
        path = tmp_path / "all-9.txt"
        path.write_text(format_instance(Instance(ballots, 9, 4)))

        def never(inst, epsilon):
            raise AssertionError("the rule ran past the work cap")

        monkeypatch.setitem(MECHANISMS, "uniform", never)
        code, out, err = run_cli(
            capsys,
            "audit-dp", "--mechanism", "uniform", "--eps", "1", "--input", str(path),
        )
        assert (code, out) == (3, "")
        assert "limited to 4533900 committee evaluations, got 32836860" in err

    def test_audit_dp_policy_cap_at_k_equal_m(self, capsys, tmp_path, monkeypatch):
        # 255 twin-free ballot types at m = k = 14 pass the committee-space
        # cap, C(14, 7) <= 5000; each rule call is charged C(14, 7), its EJR
        # cores of size 7, not its C(14, 14) = 1 committee, so it exits 3 unrun
        masks = random.Random(0).sample(range(1, 1 << 14), 255)
        ballots = [[a for a in range(14) if mask >> a & 1] for mask in masks]
        path = tmp_path / "twin-free-14.txt"
        path.write_text(format_instance(Instance(ballots, 14, 14)))

        def never(inst, epsilon):
            raise AssertionError("the rule ran past the work cap")

        monkeypatch.setitem(MECHANISMS, "rr-ejr", never)
        code, out, err = run_cli(
            capsys,
            "audit-dp", "--mechanism", "rr-ejr", "--eps", "1", "--input", str(path),
        )
        assert (code, out) == (3, "")
        assert "limited to 4533900 committee evaluations, got 14336871120" in err

    def test_audit_dp_past_m_8_golden_digest(self, capsys):
        # JR_UPPER at m = 20: 222 of its 4,194,296 neighbours are evaluated;
        # rr-ejr's gap, 0.935 * eps, is 0.891 * eps at m = 12
        digest = hashlib.sha256()
        records = {}
        for mechanism in AUDIT_MECHANISMS:
            code, out, _ = run_cli(
                capsys,
                "audit-dp", "--mechanism", mechanism, "--eps", "1",
                "--witness", "JR_UPPER", "--m", "20",
            )
            digest.update(f"JR_UPPER m=20 {mechanism} {code}\n".encode())
            digest.update(out.encode())
            (records[mechanism],) = parse_jsonl(out)
        rr, av = records["rr-ejr"], records["exp-av"]
        assert (rr["neighbors_evaluated"], rr["neighbors_checked"]) == (222, 4194296)
        assert rr["max_log_ratio"] == 0.9350722380012773
        assert rr["attaining"] == {"committee": [0, 1], "replacement_ballot": [2], "voter": 0}
        assert (av["neighbors_evaluated"], av["neighbors_checked"]) == (222, 4194296)
        assert av["max_log_ratio"] == 0.8621652261035431
        assert digest.hexdigest() == (
            "7b8583fdc0c356dbeec40434912607441b37da97926dc3a8e0fa01a11bd61503"
        )

    def test_audit_axioms_emits_levels_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit-axioms", "--mechanism", "rr-jr", "--eps", "1",
            "--witness", "JR_UPPER",
        )
        assert code == 0
        records = parse_jsonl(out)
        levels = [r for r in records if r["record"] == "axiom_level"]
        bounds = [r for r in records if r["record"] == "bound"]
        assert {r["axiom"] for r in levels} == {"jr", "pjr", "ejr", "pe", "cc"}
        assert len(bounds) == 13
        jr = next(r for r in levels if r["axiom"] == "jr")
        assert jr["coeff"] == "1/2"

    def test_audit_axioms_golden_digest(self, capsys):
        # every witness x every mechanism at eps 0.7; three seq-av runs
        # (EJR_UPPER, PJR_EJR_3WAY, FIG3_DIVERGENCE) exit 1 on a violation
        digest = hashlib.sha256()
        for wid in WitnessId:
            for mechanism in sorted(MECHANISMS):
                code, out, _ = run_cli(
                    capsys,
                    "audit-axioms", "--mechanism", mechanism, "--eps", "0.7",
                    "--witness", wid.value,
                )
                digest.update(f"{wid.value} {mechanism} {code}\n".encode())
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "002aeb88bd6cda9553b5bc38d4750c475ebf9b9342e6c532e8d6deb6c1ca3540"
        )

    def test_audit_axioms_table_golden_digest(self, capsys):
        # the runs of test_audit_axioms_golden_digest in the table format
        digest = hashlib.sha256()
        for wid in WitnessId:
            for mechanism in sorted(MECHANISMS):
                code, out, _ = run_cli(
                    capsys,
                    "audit-axioms", "--mechanism", mechanism, "--eps", "0.7",
                    "--witness", wid.value, "--format", "table",
                )
                digest.update(f"{wid.value} {mechanism} {code}\n".encode())
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "30358e11db8b4eb17cd55ab19fe7b681d4163b04d32fb6302f0f27aa02dda431"
        )


    def test_audit_dp_golden_digest(self, capsys):
        # every witness x every audited mechanism at eps 1; the attaining
        # voter pins the witnesses' voter order, neighbors_evaluated the
        # one rule call per orbit of (ballot type, replacement) pairs under
        # twin and twin-class swaps
        digest = hashlib.sha256()
        for wid in WitnessId:
            for mechanism in AUDIT_MECHANISMS:
                code, out, _ = run_cli(
                    capsys,
                    "audit-dp", "--mechanism", mechanism, "--eps", "1",
                    "--witness", wid.value,
                )
                digest.update(f"{wid.value} {mechanism} {code}\n".encode())
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "3c271b9a568bf2254e8d4307bbb89871e0fb4aeef53357e8e71f44a50d43e40c"
        )

    def test_dist_golden_digest(self, capsys):
        # every witness x every mechanism at eps 0.7 and 1/3, all exit 0;
        # the exponential-family normalizers are fsums
        digest = hashlib.sha256()
        for eps in ("0.7", "1/3"):
            for wid in WitnessId:
                for mechanism in sorted(MECHANISMS):
                    code, out, _ = run_cli(
                        capsys,
                        "dist", "--mechanism", mechanism, "--eps", eps,
                        "--witness", wid.value,
                    )
                    digest.update(f"{wid.value} {mechanism} {eps} {code}\n".encode())
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "c63eb5c2d26e188e917ca3bd443e25fc4135d2d6d1b1f2b1465e102f794e904a"
        )


class TestHelp:
    @pytest.mark.parametrize("command", INSTANCE_COMMANDS)
    def test_help_names_every_witness(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert all(wid.value in out for wid in WitnessId)


class TestErrors:
    def test_parse_error_reports_line_and_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        for text, line in (("m=3 k=1\n0\nbogus\n", 3), ("# no header\n\n", 1)):
            path.write_text(text)
            code, out, err = run_cli(
                capsys, "dist", "--mechanism", "uniform", "--eps", "1", "--input", str(path)
            )
            assert (code, out) == (2, "")
            assert f"line {line}" in err

    @pytest.mark.parametrize(
        "argv", [["axioms"], ["audit-dp", "--mechanism", "exp-av", "--eps", "1"]]
    )
    def test_non_utf8_input_is_a_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"m=3 k=2\n0 1\n\xff\xfe 2\n")
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: ") and err.count("\n") == 1

    def test_unknown_witness_lists_valid_ids(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--mechanism", "uniform", "--eps", "1", "--witness", "NOPE"
        )
        assert code == 2
        assert "JR_UPPER" in err and "CC_JR_INCOMPAT" in err

    def test_bad_epsilon_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--mechanism", "uniform", "--eps", "-1",
            "--witness", "JR_UPPER",
        )
        assert code == 2
        assert "epsilon" in err

    def test_usage_error_exits_2(self, capsys):
        assert main(["dist", "--mechanism", "nope"]) == 2
        capsys.readouterr()
        # neither axioms nor audit-axioms has an --axiom filter
        for argv in (
            ["axioms", "--witness", "JR_UPPER", "--axiom", "jr"],
            ["audit-axioms", "--mechanism", "rr-jr", "--eps", "1", "--witness", "JR_UPPER",
             "--axiom", "jr"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                [command, *(arg for pair in kept for arg in pair)]
                for command in ("dist", "sample", "audit-dp", "audit-axioms")
                for kept in itertools.combinations(
                    (("--mechanism", "exp-av"), ("--eps", "1"), ("--witness", "JR_UPPER")), 2
                )
            ),
            ["axioms"],
        ],
    )
    def test_missing_required_input_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "required" in err

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ("dist", "--mechanism", mechanism, "--eps", "1e400", "--witness", "JR_UPPER")
                for mechanism in sorted(MECHANISMS)
            ),
            ("dist", "--mechanism", "seq-av", "--eps", "1e300", "--witness", "JR_UPPER"),
            ("sample", "--mechanism", "seq-av", "--eps", "1e300", "--witness", "JR_UPPER"),
            ("dist", "--mechanism", "seq-av", "--eps", "1400", "--witness", "PE_CHAIN"),
            ("audit-axioms", "--mechanism", "uniform", "--eps", "1e308", "--witness", "JR_UPPER"),
            # str(eps) of 1/10**5000 exceeded the int-to-str digit limit (exit 4),
            # and Fraction("1e-999999999") would first build 10**999999999
            ("dist", "--mechanism", "uniform", "--eps", "1e-5000", "--witness", "JR_UPPER"),
            ("dist", "--mechanism", "uniform", "--eps", "1e-999999999", "--witness", "JR_UPPER"),
            ("sample", "--mechanism", "uniform", "--eps", "1e999999999", "--witness", "JR_UPPER"),
        ],
    )
    def test_epsilon_beyond_float_range_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: epsilon") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("dist", "--mechanism", "uniform", "--eps", "1"),
            ("sample", "--mechanism", "exp-av", "--eps", "1"),
            ("axioms",),
            ("audit-axioms", "--mechanism", "rr-jr", "--eps", "1"),
        ],
    )
    def test_committee_space_cap_exits_3_before_any_work(self, capsys, tmp_path, argv):
        path = tmp_path / "wide.txt"
        path.write_text("m=40 k=20\n0 1\n2\n")
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 3
        assert out == ""
        assert "C(m, ell) <= 5000" in err

    @pytest.mark.parametrize("flag", ["--n", "--k", "--m"])
    def test_witness_override_with_input_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "p.txt"
        path.write_text("m=4 k=2\n0 1\n2\n")
        code, out, err = run_cli(capsys, "axioms", "--input", str(path), flag, "3")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} applies to --witness only, not --input\n"

    @pytest.mark.parametrize("n, k, m", [(41, 20, 40), (59, 29, 30), (13, 6, 15)])
    def test_committee_space_cap_covers_witness_overrides(self, capsys, n, k, m):
        code, out, _ = run_cli(
            capsys, "axioms", "--witness", "JR_UPPER",
            "--n", str(n), "--k", str(k), "--m", str(m),
        )
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("command", INSTANCE_COMMANDS)
    def test_committee_space_cap_precedes_the_witness_build(
        self, capsys, monkeypatch, command
    ):
        # JR_UPPER builds a ballot of all m alternatives
        def unbuilt(*args, **kwargs):
            raise AssertionError("witness built before the committee-space cap")

        monkeypatch.setattr(cli, "witness", unbuilt)
        argv = [command, "--witness", "JR_UPPER", "--m", "100000000"]
        if command != "axioms":
            argv += ["--mechanism", "exp-av", "--eps", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "got m=100000000 k=2" in err

    @pytest.mark.parametrize("command", INSTANCE_COMMANDS)
    def test_voter_cap_precedes_the_witness_build(self, capsys, monkeypatch, command):
        def unbuilt(*args, **kwargs):
            raise AssertionError("witness built before the voter cap")

        monkeypatch.setattr(cli, "witness", unbuilt)
        argv = [command, "--witness", "JR_UPPER", "--n", str(cli.VOTER_COUNT_MAX + 1)]
        if command != "axioms":
            argv += ["--mechanism", "exp-av", "--eps", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"voter count limited to n <= {cli.VOTER_COUNT_MAX}" in err

    def test_voter_cap_admits_its_own_value(self, monkeypatch):
        # the builder is not run: at the cap it takes about a second
        built = []

        def recorded(*args):
            built.append(args)
            return SimpleNamespace(inst="built")

        monkeypatch.setattr(cli, "witness", recorded)
        args = cli.build_parser().parse_args(
            ["axioms", "--witness", "JR_UPPER", "--n", str(cli.VOTER_COUNT_MAX)]
        )
        assert cli._load_instance(args) == "built"
        assert built == [(WitnessId.JR_UPPER, cli.VOTER_COUNT_MAX, 2, 4)]

    @pytest.mark.parametrize("n, code", [(3, 0), (4, 3)])
    def test_voter_cap_covers_parsed_profiles(self, capsys, tmp_path, monkeypatch, n, code):
        monkeypatch.setattr(cli, "VOTER_COUNT_MAX", 3)
        path = tmp_path / "voters.txt"
        path.write_text("m=3 k=1\n" + "0 1\n" * n)
        result = run_cli(capsys, "axioms", "--input", str(path))
        assert result[0] == code
        if code == 3:
            assert result[1:] == ("", "error: voter count limited to n <= 3, got n=4\n")

    @pytest.mark.parametrize(
        "header, message",
        [
            ("m=3 k=1", "voter count limited to n <= 3, got n >= 5"),
            ("m=15 k=6", "committee space limited to C(m, ell) <= 5000"),
        ],
    )
    def test_input_caps_precede_the_ballot_build(
        self, capsys, tmp_path, monkeypatch, header, message
    ):
        # the line past the cap is malformed: an over-cap file exits 3
        def unbuilt(*args):
            raise AssertionError("ballot built for an over-cap profile")

        monkeypatch.setattr(cli, "VOTER_COUNT_MAX", 3)
        monkeypatch.setattr(dpabc.core, "_ballot", unbuilt)
        path = tmp_path / "voters.txt"
        path.write_text(f"{header}\n" + "0 1\n" * 4 + "not a ballot\n" + "0 1\n" * 100)
        code, out, err = run_cli(capsys, "axioms", "--input", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message}")

    def test_parse_error_within_the_voter_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "VOTER_COUNT_MAX", 3)
        path = tmp_path / "voters.txt"
        path.write_text("m=3 k=1\n0 1\nnot a ballot\n" + "0 1\n" * 100)
        code, out, err = run_cli(capsys, "axioms", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: non-integer alternative index")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (("--k", "0"), "witnesses require k >= 1, got k=0"),
            (("--k", "-3"), "witnesses require k >= 1, got k=-3"),
            (("--k", "0", "--m", "100000000"), "witnesses require k >= 1, got k=0"),
            (("--k", "5", "--n", "12"), "JR_UPPER requires m >= k + 1 (and m >= 3)"),
            (("--m", "2"), "JR_UPPER requires m >= k + 1 (and m >= 3)"),
            (("--m", "-7"), "JR_UPPER requires m >= k + 1 (and m >= 3)"),
        ],
    )
    def test_witness_shapes_the_builder_rejects_exit_2(self, capsys, overrides, message):
        code, out, err = run_cli(capsys, "axioms", "--witness", "JR_UPPER", *overrides)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "m, k, code",
        [(13, 6, 0), (14, 7, 0), (14, 13, 0), (15, 5, 0), (15, 6, 3), (15, 14, 3)],
    )
    def test_committee_space_cap_boundary(self, capsys, tmp_path, m, k, code):
        # C(14, 7) = 3432 is the widest space under the cap; C(15, 6) = 5005
        path = tmp_path / "wide.txt"
        path.write_text(f"m={m} k={k}\n0 1\n2\n")
        result = run_cli(
            capsys, "dist", "--mechanism", "uniform", "--eps", "1", "--input", str(path)
        )
        assert result[0] == code

    def test_internal_error_exits_4_without_traceback(self, capsys, monkeypatch):
        def broken(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._COMMANDS, "axioms", broken)
        code, out, err = run_cli(capsys, "axioms", "--witness", "JR_UPPER")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("internal error: RecursionError")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


ORACLE_GRIDS = [
    ("0.1", "1", "2"),
    ("1/3", "7/5"),
    ("1e-9", "1e300"),
    ("0.001", "50", "0.3"),
    ("1", "1"),
    ("2/7", "1e-300"),
]


class TestReproduce:
    def test_single_eps_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--eps", "0.5")
        assert code == 0
        records = parse_jsonl(out)
        summary = records[-1]
        assert summary["record"] == "summary"
        assert summary["violations"] == 0
        bound_ids = {r["bound"] for r in records if r["record"] == "bound"}
        assert len(bound_ids) == 13  # every bound in the table is covered
        assert all(r["satisfied"] for r in records if r["record"] == "bound")

    def test_levels_once_per_distribution_premises_once_per_instance(
        self, capsys, monkeypatch
    ):
        levels = count_calls(monkeypatch, cli, "measure_levels")
        premises = count_calls(monkeypatch, cli, "bound_premises")
        code, _, _ = run_cli(capsys, "reproduce")
        assert code == 0
        # one scan per witness and distinct (scores, scale): the rules of a
        # witness whose laws agree share it, and each law serves the eps grid
        laws = {
            (wid, law.scores, law.scale)
            for wid in WitnessId
            for mechanism in cli.AUDIT_MECHANISMS
            for law in [MECHANISMS[mechanism](witness(wid).inst, 1)]
        }
        assert levels == [len(laws)] == [36]
        assert premises == [9]

    @pytest.mark.parametrize("fmt", ["structured", "table"])
    def test_equal_scores_at_another_scale_share_no_rows(self, capsys, monkeypatch, fmt):
        # exp-av's scores at scale k: the same score vector, another law
        def exp_av_at_k(inst, eps):
            return _from_scores(inst, eps, _av_scores(inst), inst.k)

        monkeypatch.setitem(MECHANISMS, "exp-av-k", exp_av_at_k)
        monkeypatch.setattr(cli, "AUDIT_MECHANISMS", cli.AUDIT_MECHANISMS + ("exp-av-k",))
        grid = ("0.1", "1")
        expected = brute_reproduce(grid)
        coeffs = {
            mechanism: [r["lhs_coeff"] for r in expected[:-1] if r["mechanism"] == mechanism]
            for mechanism in ("exp-av", "exp-av-k")
        }
        assert coeffs["exp-av"] != coeffs["exp-av-k"]
        code, out, _ = run_cli(capsys, "reproduce", "--format", fmt, "--eps", *grid)
        assert code == (1 if expected[-1]["violations"] else 0)
        assert out == (json_lines if fmt == "structured" else table_lines)(expected)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS)
    def test_records_match_per_eps_oracle(self, capsys, grid):
        code, out, _ = run_cli(capsys, "reproduce", "--eps", *grid)
        assert code == 0
        expected = brute_reproduce(grid)
        assert parse_jsonl(out) == expected
        # byte for byte: spacing, key order and float text
        assert out == json_lines(expected)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS)
    def test_table_matches_per_eps_oracle(self, capsys, grid):
        code, out, _ = run_cli(capsys, "reproduce", "--format", "table", "--eps", *grid)
        assert code == 0
        assert out == table_lines(brute_reproduce(grid))

    def test_every_audited_law_has_scores(self):
        # what lets one law, built at the grid's first eps, serve every eps
        for wid in WitnessId:
            inst = witness(wid).inst
            for mechanism in cli.AUDIT_MECHANISMS:
                assert MECHANISMS[mechanism](inst, 1).scores is not None, (wid, mechanism)

    def test_law_without_scores_on_a_grid_is_an_internal_error(self, capsys, monkeypatch):
        # one law serves the grid, and a level without scores has no value
        # at another budget: the run ends in exit 4, never in wrong rows
        monkeypatch.setattr(cli, "AUDIT_MECHANISMS", cli.AUDIT_MECHANISMS + ("seq-av",))
        code, out, err = run_cli(capsys, "reproduce")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("internal error:") and "has no value at" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["structured", "table"])
    @pytest.mark.parametrize("argv", [
        ["reproduce"],
        ["audit-axioms", "--mechanism", "rr-jr", "--eps", "1", "--witness", "JR_UPPER"],
    ])
    def test_slot_marker_in_a_fixed_field_is_an_internal_error(
        self, capsys, monkeypatch, fmt, argv
    ):
        evaluate, marker = cli.evaluate_bounds, cli._SLOT

        def marked(*args):
            checks = evaluate(*args)
            return [dataclasses.replace(checks[0], note=marker), *checks[1:]]

        monkeypatch.setattr(cli, "evaluate_bounds", marked)
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("internal error:") and "slot marker" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_overflow_at_a_later_eps_exits_2_with_empty_stdout(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "--eps", "1", "1e308")
        assert code == 2
        assert out == ""
        assert "epsilon too large" in err

    def test_eps_flag_without_a_value_exits_2_with_empty_stdout(self, capsys):
        for argv in (["--eps"], ["--eps", "0.1", "--eps"]):
            code, out, err = run_cli(capsys, "reproduce", *argv)
            assert code == 2
            assert out == ""
            assert "expected at least one argument" in err

    def test_repeated_eps_flags_add_up(self, capsys):
        repeated = run_cli(capsys, "reproduce", "--eps", "0.1", "--eps", "2")
        assert repeated == run_cli(capsys, "reproduce", "--eps", "0.1", "2")
        assert parse_jsonl(repeated[1])[-1]["eps_grid"] == ["1/10", "2"]

    def test_golden_digest_on_a_rational_grid(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--eps", "1/3", "7/5")
        assert code == 0
        assert out.count("\n") == 1405
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e4b948a3929e9419b5f8a705acc4558f0d9f3e171b553b35489a160b0b76b672"
        )

    def test_golden_digest_on_the_default_grid(self, capsys):
        # the digest the benchmark checks its reproduce runs against
        reference = Path(__file__).parents[1] / "bench" / "reference.json"
        expected = json.loads(reference.read_text())["reproduce"]["full"]["stdout_sha256"]
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert out.count("\n") == 2107
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_golden_table_digest_on_the_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--format", "table")
        assert code == 0
        assert out.count("\n") == 2107
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "439ce7ede6cdd98c6a6e78279528fdf7810d209a5fc436bd1803d65599766851"
        )

    def test_witness_override_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dist", "--mechanism", "uniform", "--eps", "1",
            "--witness", "EJR_UPPER", "--n", "6", "--k", "3", "--m", "4",
        )
        assert code == 0
        assert len(parse_jsonl(out)) == 4  # C(4,3)


@st.composite
def profile_texts(draw):
    """Profile text with m <= 6 and n <= 6: a header and ballot lines drawn
    mostly in range (repeats allowed), and sometimes one corrupt line (any
    text, or alternatives out of range) inserted anywhere."""
    m = draw(st.integers(1, 6))
    lines = [f"m={m} k={draw(st.integers(0, m + 1))}"]
    for _ in range(draw(st.integers(0, 6))):
        ballot = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
        lines.append(" ".join(map(str, ballot)))
    if draw(st.integers(0, 3)) == 0:
        corrupt = st.one_of(
            st.text(max_size=12),
            st.lists(st.integers(-2, 8), max_size=4).map(lambda xs: " ".join(map(str, xs))),
        )
        lines.insert(draw(st.integers(0, len(lines))), draw(corrupt))
    return "\n".join(lines) + "\n"


EPS_STRINGS = st.one_of(
    st.sampled_from(
        ["0.1", "1", "2", "0", "-1", "1/3", "nan", "inf", "1e400", "1e-400", "1e-5000"]
    ),
    st.floats(min_value=1e-3, max_value=10).map(repr),
    st.floats().map(repr),
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.text(alphabet="0123456789.eE+-/_ nafi", max_size=8),
)

def _check_exit_contract(code, out, err):
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code == 1:
        records = parse_jsonl(out)
        assert any(
            (r["record"] == "bound" and not r["satisfied"] and not r["vacuous"])
            or (r["record"] == "dp_audit" and not r["within_budget"])
            for r in records
        )


class TestFuzz:
    """Any profile text and eps string is answered or rejected with its
    documented exit code, never with a traceback or exit 4."""

    @pytest.mark.parametrize("command", INSTANCE_COMMANDS)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        text=profile_texts(),
        mechanism=st.sampled_from(sorted(MECHANISMS)),
        eps=EPS_STRINGS,
    )
    def test_instance_commands(self, capsys, tmp_path, command, text, mechanism, eps):
        path = tmp_path / "profile.txt"
        path.write_text(text)
        argv = [command, "--input", str(path)]
        if command != "axioms":
            argv += ["--mechanism", mechanism, "--eps", eps]
        _check_exit_contract(*run_cli(capsys, *argv))

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=profile_texts(), raw=st.binary(min_size=1, max_size=6), at=st.integers(0, 80))
    def test_raw_bytes(self, capsys, tmp_path, text, raw, at):
        # bytes that are not UTF-8 are a parse error naming a line
        data = text.encode()
        data = data[:at] + raw + data[at:]
        path = tmp_path / "profile.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "axioms", "--input", str(path))
        _check_exit_contract(code, out, err)
        try:
            data.decode()
        except UnicodeDecodeError:
            assert (code, out) == (2, "") and err.startswith("error: line "), err

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(EPS_STRINGS, min_size=1, max_size=2))
    def test_reproduce(self, capsys, eps_grid):
        _check_exit_contract(*run_cli(capsys, "reproduce", "--eps", *eps_grid))


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "dpabc", "sample", "--mechanism", "uniform",
             "--eps", "1", "--witness", "JR_UPPER", "--seed", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["record"] == "sample"

    def test_axioms_on_sixty_ballot_types_exits_0(self, tmp_path):
        # 200 voters cast 61 distinct ballots over 6 alternatives; PJR takes
        # one pass over the types, not a walk over every subset of them
        inst = random_instance(6, 200, 3, BallotModel("impartial", 0.5), 3)
        path = tmp_path / "profile.txt"
        path.write_text(format_instance(inst))
        env = {**os.environ, "PYTHONPATH": str(Path(dpabc.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "dpabc", "axioms", "--input", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "pjr" in [r.get("axiom") for r in parse_jsonl(result.stdout)]

    def test_axioms_past_the_pjr_state_cap_exits_3(self, tmp_path):
        # ballots {0, p} for p = 1..17: every set of them is a PJR state of
        # its own, 2^17 - 1 > PJR_STATE_MAX, so the pass stops at the cap
        # within 1 GB of address space
        inst = Instance([{0, p} for p in range(1, 18)], 18, 2)
        path = tmp_path / "profile.txt"
        path.write_text(format_instance(inst))
        env = {**os.environ, "PYTHONPATH": str(Path(dpabc.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "dpabc", "axioms", "--input", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9)),
        )
        assert result.returncode == cli.EXIT_POLICY_CAP, result.stderr
        assert result.stdout == ""
        assert "PJR" in result.stderr


def run_script(name, *argv, cwd=None):
    script = Path(__file__).parents[1] / "scripts" / name
    env = {**os.environ, "PYTHONPATH": str(Path(dpabc.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, env=env, cwd=cwd
    )


def assert_usage_error(result, message):
    assert result.returncode == 2
    assert result.stdout == ""
    assert message in result.stderr
    assert "Traceback" not in result.stderr


class TestTradeoffGridScript:
    def run_script(self, *argv):
        return run_script("tradeoff_grid.py", *argv)

    def test_default_grid_golden_digest(self):
        result = self.run_script()
        assert result.returncode == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "604b85041362f7a4f78fd1b8a29d50e7c7f857a726073c9bdb1ddd659689dea8"
        )

    def test_witness_ids_resolve_as_in_the_cli(self):
        spelled = self.run_script("--witness", "pe-chain", "--eps", "1")
        canonical = self.run_script("--witness", "PE_CHAIN", "--eps", "1")
        assert spelled.returncode == canonical.returncode == 0
        assert spelled.stdout == canonical.stdout
        assert "== PE_CHAIN" in spelled.stdout

    def test_repeated_eps_flags_add_up(self):
        repeated = self.run_script("--witness", "PE_CHAIN", "--eps", "0.1", "--eps", "2")
        together = self.run_script("--witness", "PE_CHAIN", "--eps", "0.1", "2")
        assert repeated.returncode == together.returncode == 0
        assert repeated.stdout == together.stdout
        assert " 0.1 " in repeated.stdout and "    2 " in repeated.stdout

    @pytest.mark.parametrize("argv", [["--eps"], ["--eps", "0.1", "--eps"]])
    def test_eps_flag_without_a_value_exits_2(self, argv):
        assert_usage_error(self.run_script(*argv), "expected at least one argument")

    def test_unknown_witness_is_a_usage_error(self):
        result = self.run_script("--witness", "no-such-witness")
        assert_usage_error(result, "unknown witness id 'no-such-witness'")

    @pytest.mark.parametrize(
        "eps, message",
        [
            ("abc", "cannot parse epsilon 'abc'"),
            ("0", "epsilon '0' is 0"),
            ("-1", "epsilon must be positive"),
            # parses, but the exp-av weight exponent overflows a float
            ("1e308", "epsilon too large"),
        ],
    )
    def test_bad_budget_is_a_usage_error(self, eps, message):
        assert_usage_error(self.run_script("--eps", "1", eps), message)


class TestSequentialDivergenceScript:
    def run_script(self, *argv):
        return run_script("sequential_divergence.py", *argv)

    @pytest.mark.parametrize(
        "eps, message",
        [
            ("abc", "cannot parse epsilon 'abc'"),
            ("0", "epsilon '0' is 0"),
            # parses, but the sequential weights overflow a float
            ("1e300", "epsilon too large"),
        ],
    )
    def test_bad_budget_is_a_usage_error(self, eps, message):
        assert_usage_error(self.run_script("--eps", eps), message)

    def test_budget_reader_imports_from_another_directory(self, tmp_path):
        # the script reads --eps through tradeoff_grid's eps_arg, found on
        # sys.path by the script's own directory, not the working directory
        result = run_script("sequential_divergence.py", "--eps", "abc", cwd=tmp_path)
        assert_usage_error(result, "cannot parse epsilon 'abc'")

    def test_every_witness_is_audited(self):
        result = self.run_script("--eps", "1")
        assert result.returncode == 0
        rows = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()[2:]}
        assert sorted(rows) == sorted(wid.value for wid in WitnessId)
        assert rows["JR_PJR_3WAY"][3:] == ["0.4596", "0.3200"]
        assert rows["PJR_EJR_3WAY"][3:] == ["0.7550", "0.6480"]
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "fbb9b8fa011c2a33f1ac11bfd1488b1256eae18e5826ef5532878cb846ed2cc7"
        )
