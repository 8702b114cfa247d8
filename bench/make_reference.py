"""Regenerate ``bench/reference.json``, the outputs every benchmark run is
checked against.

Run from the repository root:

    python3 bench/make_reference.py

It computes each workload's outputs with the current ``src/dpabc`` on the
unshuffled inputs, and cross-checks the axiom facts against the independent
brute-force oracles in ``tests/brute.py`` (and the Pareto frontier against a
direct overlap-vector comparison written here). Regenerate only when a change
is meant to alter outputs, and say so in its description.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import dpabc  # noqa: E402
import dpabc.cli  # noqa: E402
from brute import brute_condorcet, brute_satisfies  # noqa: E402
from workloads import AXIOM_FACTS, axiom_fact, committee_list, digest  # noqa: E402

MODEL = ["impartial", 0.3]
# (m, k, distinct ballot types = voters): m grows while the ballot types
# shrink, so each profile costs about the same (0.8 to 1.1 s on a shared
# 2-vCPU Intel Xeon virtual machine) and the PJR type-subset scan, the EJR
# core scan and the O(C(m,k)^2 n) dominance scan all take a share of the cycle
LADDER = [(7, 3, 13), (8, 4, 12), (9, 4, 11), (10, 4, 10), (11, 4, 9), (12, 4, 8)]
SMOKE_LADDER = [(6, 3, 6)]
SAMPLING_M = (8, 10, 12)
SAMPLING_VOTERS = 10
DRAWS = 2000
DRAW_SEED_BASE = 1_000_000
EPS = "1"


def find_profile(m: int, k: int, types: int) -> dict:
    """First generation seed whose ``types`` voters cast distinct ballots."""
    model = dpabc.BallotModel(*MODEL)
    for gen_seed in itertools.count(1):
        inst = dpabc.random_instance(m, types, k, model, gen_seed)
        if len(set(inst.ballots)) == types:
            return {
                "label": f"m{m}-k{k}-t{types}",
                "model": MODEL,
                "m": m,
                "k": k,
                "n": types,
                "ballot_types": types,
                "gen_seed": gen_seed,
            }


def profile_instance(spec: dict):
    model = dpabc.BallotModel(*spec["model"])
    return dpabc.random_instance(spec["m"], spec["n"], spec["k"], model, spec["gen_seed"])


def oracle_frontier(inst) -> list:
    committees = list(itertools.combinations(range(inst.m), inst.k))
    overlap = {w: [len(b & set(w)) for b in inst.ballots] for w in committees}

    def dominated(w):
        return any(
            all(a >= b for a, b in zip(overlap[v], overlap[w])) and overlap[v] != overlap[w]
            for v in committees
        )

    return [list(w) for w in committees if not dominated(w)]


def axiom_reference(spec: dict) -> dict:
    inst = profile_instance(spec)
    facts = {fact: axiom_fact(dpabc.axioms, inst, fact) for fact in AXIOM_FACTS}
    committees = list(itertools.combinations(range(inst.m), inst.k))
    for fact in ("jr", "pjr", "ejr"):
        ax = dpabc.Axiom(fact)
        oracle = [list(w) for w in committees if brute_satisfies(w, inst, ax)]
        if oracle != facts[fact]:
            raise SystemExit(f"{spec['label']}: {fact} set disagrees with the brute-force oracle")
    if oracle_frontier(inst) != facts["frontier"]:
        raise SystemExit(f"{spec['label']}: Pareto frontier disagrees with the oracle")
    winner = brute_condorcet(inst)
    if (None if winner is None else list(winner)) != facts["condorcet"]:
        raise SystemExit(f"{spec['label']}: Condorcet committee disagrees with the oracle")
    spec = dict(spec)
    spec["facts"] = {fact: digest(value) for fact, value in facts.items()}
    spec["counts"] = {
        fact: (len(value) if fact != "condorcet" else int(value is not None))
        for fact, value in facts.items()
    }
    return spec


def reproduce_reference(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dpabc.cli.main(argv)
    if code != 0:
        raise SystemExit(f"dpabc {' '.join(argv)} exited {code}")
    text = out.getvalue()
    return {
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout_lines": text.count("\n"),
    }


def dp_reference() -> dict:
    eps = dpabc.mechanisms.as_epsilon(EPS)
    cells = {}
    for wid in dpabc.WitnessId:
        inst = dpabc.witness(wid).inst
        for name in dpabc.AUDIT_MECHANISMS:
            factory = dpabc.MECHANISMS[name]
            report = dpabc.dp_level(lambda i, f=factory: f(i, eps), inst)
            cells[f"{wid.value}/{name}"] = report.max_log_ratio
    return cells


def sampling_reference() -> list:
    eps = dpabc.mechanisms.as_epsilon(EPS)
    profiles = []
    for m in SAMPLING_M:
        spec = {
            "label": f"m{m}-k{m // 2}-n{SAMPLING_VOTERS}",
            "model": MODEL,
            "m": m,
            "k": m // 2,
            "n": SAMPLING_VOTERS,
            "gen_seed": m,
        }
        inst = profile_instance(spec)
        spec["ballot_types"] = len(set(inst.ballots))
        law = dpabc.exp_av_distribution(inst, eps)
        seeds = range(DRAW_SEED_BASE, DRAW_SEED_BASE + DRAWS)
        spec["sample"] = digest(committee_list(dpabc.sample(law, s) for s in seeds))
        spec["seq_sample"] = digest(
            committee_list(dpabc.sample_sequential_av(inst, eps, s) for s in seeds)
        )
        profiles.append(spec)
    return profiles


def main() -> None:
    reference = {
        "python": sys.version.split()[0],
        "reproduce": {
            "argv": ["reproduce"],
            "smoke_argv": ["reproduce", "--eps", "1"],
            "full": reproduce_reference(["reproduce"]),
            "smoke": reproduce_reference(["reproduce", "--eps", "1"]),
        },
        "dp_audit": {"eps": EPS, "smoke_max_m": 5, "max_log_ratio": dp_reference()},
        "axioms_scaling": {
            "profiles": [axiom_reference(find_profile(*rung)) for rung in LADDER],
            "smoke_profiles": [axiom_reference(find_profile(*rung)) for rung in SMOKE_LADDER],
        },
        "sampling": {
            "eps": EPS,
            "draws": DRAWS,
            "draw_seed_base": DRAW_SEED_BASE,
            "smoke_max_m": min(SAMPLING_M),
            "profiles": sampling_reference(),
        },
    }
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
