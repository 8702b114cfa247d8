"""The four benchmark workloads.

A workload is built once per set-up from the loaded dpabc modules, the
reference file and the run seed. It exposes a *cycle*: a fixed list of
repetitions, each made of timed calls into dpabc plus an untimed check of
the outputs against the reference. The runner repeats whole cycles, so
every run times the same mix of repetitions whatever its length.

The run seed shuffles the voter order of every instance a workload builds.
Every shipped rule and checker is anonymous (it depends only on the ballot
multiset), so the cost and the correct outputs do not depend on the seed and
one stored reference serves every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from typing import Callable, NamedTuple

# tail probability used for the sampling-error bound on draw frequencies
TV_FAILURE_PROBABILITY = 1e-9


class Rep(NamedTuple):
    """One repetition: each of ``steps`` is one timed call into dpabc, made
    with cold caches as a fresh ``dpabc`` process would; ``check(results)``
    is not timed and returns (operations done, mismatches against the
    reference)."""

    label: str
    steps: tuple
    check: Callable


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def committee_list(committees) -> list:
    return [list(w) for w in committees]


def shuffle_voters(core, inst, rng: random.Random):
    order = list(range(inst.n))
    rng.shuffle(order)
    return core.Instance(tuple(inst.ballots[i] for i in order), inst.m, inst.k)


def input_properties(label: str, inst) -> dict:
    """Size properties a later change can tie a gain to. A neighbour replaces
    one voter's ballot; two neighbours have the same ballot multiset exactly
    when they replace the same ballot type by the same new ballot, so the
    distinct neighbour classes number types * (2^m - 2)."""
    types = len(set(inst.ballots))
    return {
        "instance": label,
        "m": inst.m,
        "n": inst.n,
        "k": inst.k,
        "committees": math.comb(inst.m, inst.k),
        "ballot_types": types,
        "neighbors": inst.n * (2**inst.m - 2),
        "neighbor_classes": types * (2**inst.m - 2),
    }


class Reproduce:
    """``dpabc reproduce`` on the default eps grid, through ``cli.main``."""

    name = "reproduce"
    rate = ("cells_per_s", "bound checks")

    def __init__(self, mods, ref: dict, seed: int, smoke: bool):
        ref = ref["reproduce"]
        # the grid is fixed by the command itself, so the seed changes nothing
        self.argv = ref["smoke_argv"] if smoke else ref["argv"]
        self.expected = ref["smoke" if smoke else "full"]
        self.cli = mods.cli
        self.inputs = [
            input_properties(wid.value, mods.instances.witness(wid).inst)
            for wid in mods.instances.WitnessId
        ]

    def cycle(self, probe) -> list:
        return [Rep("reproduce", (self._run,), lambda results: self._check(results[0]))]

    def _run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        return code, out.getvalue()

    def _check(self, result) -> tuple:
        code, text = result
        cells = sum(1 for line in text.splitlines() if '"record": "bound"' in line)
        ok = (
            code == 0
            and hashlib.sha256(text.encode()).hexdigest() == self.expected["stdout_sha256"]
            and text.count("\n") == self.expected["stdout_lines"]
        )
        return cells, 0 if ok else 1


class _Rule:
    """The rule ``dp_level`` audits. It looks the mechanism up at call time,
    so a traced run sees the traced factory, and lets the speed probe run
    between neighbours: one ``dp_level`` call can take seconds, and the
    runner subtracts the probe's time from the step."""

    def __init__(self, mechanisms, name: str, eps, probe):
        self.mechanisms = mechanisms
        self.name = name
        self.eps = eps
        self.probe = probe

    def __call__(self, inst):
        self.probe.maybe_measure()
        return self.mechanisms.MECHANISMS[self.name](inst, self.eps)


class DpAudit:
    """``audit.dp_level`` for every witness x every audited rule at one eps."""

    name = "dp_audit"
    rate = ("neighbors_per_s", "neighbour evaluations")

    def __init__(self, mods, ref: dict, seed: int, smoke: bool):
        ref = ref["dp_audit"]
        rng = random.Random(f"dp_audit:{seed}")
        self.audit = mods.audit
        self.eps = mods.mechanisms.as_epsilon(ref["eps"])
        max_m = ref["smoke_max_m"] if smoke else math.inf
        self.expected = ref["max_log_ratio"]
        self.instances = []
        for wid in mods.instances.WitnessId:
            inst = shuffle_voters(mods.core, mods.instances.witness(wid).inst, rng)
            if inst.m <= max_m:
                self.instances.append((wid.value, inst))
        self.mechanisms = mods.mechanisms
        self.inputs = [input_properties(label, inst) for label, inst in self.instances]

    def cycle(self, probe) -> list:
        # one repetition is the whole grid, one step per (rule, witness):
        # steps differ in cost by 1000x, so no smaller repetition times
        # steadily, and the grid is what a full audit costs
        rules = [
            _Rule(self.mechanisms, name, self.eps, probe)
            for name in self.mechanisms.AUDIT_MECHANISMS
        ]
        return [
            Rep(
                "grid",
                tuple(
                    lambda rule=rule, inst=inst: self.audit.dp_level(rule, inst)
                    for rule in rules
                    for _, inst in self.instances
                ),
                lambda reports: self._check([r.name for r in rules], reports),
            )
        ]

    def _check(self, rules: list, reports: list) -> tuple:
        bad = 0
        cells = [(rule, label, inst) for rule in rules for label, inst in self.instances]
        for (rule, label, inst), report in zip(cells, reports, strict=True):
            ok = (
                report.max_log_ratio <= float(self.eps) + 1e-9
                and abs(report.max_log_ratio - self.expected[f"{label}/{rule}"]) <= 1e-12
                and report.instances_checked == inst.n * (2**inst.m - 2)
            )
            bad += not ok
        return sum(r.instances_checked for r in reports), bad


def build_profile(mods, spec: dict, rng: random.Random):
    """A reference profile regenerated from its stored generation seed, with
    the voter order shuffled by the run seed."""
    model = mods.instances.BallotModel(*spec["model"])
    inst = mods.instances.random_instance(spec["m"], spec["n"], spec["k"], model, spec["gen_seed"])
    if len(set(inst.ballots)) != spec["ballot_types"]:
        raise RuntimeError(f"profile {spec['label']} no longer has {spec['ballot_types']} ballot types")
    return shuffle_voters(mods.core, inst, rng)


AXIOM_FACTS = ("jr", "pjr", "ejr", "frontier", "condorcet")


def axiom_fact(axioms, inst, fact: str):
    """One fact ``dpabc axioms`` reports, as a JSON-ready value. The checker
    is looked up at call time, so a traced run sees the traced function."""
    if fact == "frontier":
        return committee_list(axioms.pareto_frontier(inst))
    if fact == "condorcet":
        winner = axioms.condorcet_committee(inst)
        return None if winner is None else list(winner)
    return committee_list(axioms.axiom_committee_set(inst, axioms.Axiom(fact)))


class AxiomsScaling:
    """The JR/PJR/EJR sets, Pareto frontier and Condorcet committee on a
    ladder of impartial random profiles (m from 7 to 12)."""

    name = "axioms_scaling"
    rate = ("checks_per_s", "committee x axiom decisions")

    def __init__(self, mods, ref: dict, seed: int, smoke: bool):
        ref = ref["axioms_scaling"]
        rng = random.Random(f"axioms_scaling:{seed}")
        self.axioms = mods.axioms
        self.profiles = [
            (spec, build_profile(mods, spec, rng))
            for spec in ref["smoke_profiles" if smoke else "profiles"]
        ]
        self.inputs = [input_properties(spec["label"], inst) for spec, inst in self.profiles]

    def cycle(self, probe) -> list:
        # one repetition per profile, as one `dpabc axioms` call, with one
        # step per fact; the facts share no cached results
        return [
            Rep(
                spec["label"],
                tuple(lambda inst=inst, f=f: axiom_fact(self.axioms, inst, f) for f in AXIOM_FACTS),
                lambda results, spec=spec: (
                    len(AXIOM_FACTS) * math.comb(spec["m"], spec["k"]),
                    sum(digest(v) != spec["facts"][f] for f, v in zip(AXIOM_FACTS, results, strict=True)),
                ),
            )
            for spec, inst in self.profiles
        ]


def tv_bound(support: int, draws: int) -> float:
    """High-probability bound on the total variation between the empirical
    frequencies of ``draws`` independent draws and their law:
    E||p_hat - p||_1 <= sqrt(C/D), and by McDiarmid the excess over the mean
    exceeds sqrt(2 ln(1/delta) / D) with probability at most delta."""
    return 0.5 * (
        math.sqrt(support / draws)
        + math.sqrt(2 * math.log(1 / TV_FAILURE_PROBABILITY) / draws)
    )


def empirical_tv(dist, drawn: list) -> float:
    counts = Counter(drawn)
    total = len(drawn)
    return 0.5 * sum(abs(counts.get(w, 0) / total - p) for w, p in zip(dist.committees, dist.probs))


class Sampling:
    """Seeded draws from an already built exp-av law (inverse CDF) and from
    the literal k-round sequential sampler."""

    name = "sampling"
    rate = ("draws_per_s", "draws")

    def __init__(self, mods, ref: dict, seed: int, smoke: bool):
        ref = ref["sampling"]
        rng = random.Random(f"sampling:{seed}")
        mech = mods.mechanisms
        self.mechanisms = mech
        self.eps = mech.as_epsilon(ref["eps"])
        self.seeds = range(ref["draw_seed_base"], ref["draw_seed_base"] + ref["draws"])
        self.profiles = []
        for spec in ref["profiles"]:
            if smoke and spec["m"] > ref["smoke_max_m"]:
                continue
            inst = build_profile(mods, spec, rng)
            law = mech.MECHANISMS["exp-av"](inst, self.eps)
            seq_law = (
                mech.MECHANISMS["seq-av"](inst, self.eps)
                if inst.m <= mech.SEQUENTIAL_LAW_MAX_M
                else None
            )
            self.profiles.append((spec, inst, law, seq_law))
        self.inputs = [input_properties(spec["label"], inst) for spec, inst, _, _ in self.profiles]

    def cycle(self, probe) -> list:
        reps = []
        for spec, inst, law, seq_law in self.profiles:
            reps.append(
                Rep(
                    f"{spec['label']}/sample",
                    (lambda law=law: [self.mechanisms.sample(law, s) for s in self.seeds],),
                    lambda results, spec=spec, law=law: self._check(spec["sample"], law, results[0]),
                )
            )
            reps.append(
                Rep(
                    f"{spec['label']}/seq_sample",
                    (
                        lambda inst=inst: [
                            self.mechanisms.sample_sequential_av(inst, self.eps, s)
                            for s in self.seeds
                        ],
                    ),
                    lambda results, spec=spec, law=seq_law: self._check(
                        spec["seq_sample"], law, results[0]
                    ),
                )
            )
        return reps

    def _check(self, expected: str, law, drawn: list) -> tuple:
        ok = digest(committee_list(drawn)) == expected
        # the sequential law is only enumerable for small m; there the digest alone checks
        if law is not None:
            ok = ok and empirical_tv(law, drawn) <= tv_bound(len(law.committees), len(drawn))
        return len(drawn), 0 if ok else 1


WORKLOADS = {w.name: w for w in (Reproduce, DpAudit, AxiomsScaling, Sampling)}
