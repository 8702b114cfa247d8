"""A standing mutation gate: the suite must kill every mutant listed here.

Each mutant replaces one exact text, which must occur exactly once in its
file, and names the test files that should kill it. Run from anywhere:

    python3 tests/mutants.py

For each mutant the runner copies the checkout (without ``.git`` and the
caches) to a temporary directory, applies the mutant there and runs
``python -m pytest -x -q -p no:cacheprovider <test files>`` with
``PYTHONPATH=src``. A mutant is killed only when pytest exits 1 (some test
failed); any other exit code counts as a survivor. The runner writes nothing
into the checkout, prints one line per mutant and exits 1 naming every
survivor. It assumes the unmutated suite passes, which the tier-1 run checks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple
    breaks: str


CORE = "src/dpabc/core.py"
AXIOMS = "src/dpabc/axioms.py"
AUDIT = "src/dpabc/audit.py"
MECHANISMS = "src/dpabc/mechanisms.py"
CLI = "src/dpabc/cli.py"

MUTANTS = (
    Mutant(
        CORE,
        "return self._replaced(voter, _ballot(voter, ballot, self.m))",
        "return self._replaced(voter, ballot)",
        ("tests/test_core.py",),
        "replace_ballot takes a ballot unchecked",
    ),
    Mutant(
        CORE,
        "self.ballots[:voter] + (ballot,) + self.ballots[voter + 1 :]",
        "self.ballots",
        ("tests/test_audit.py",),
        "the unchecked ballot swap keeps the voter's old ballot",
    ),
    Mutant(
        AXIOMS,
        "for t, below, count in types if core & t == core]",
        "for t, below, count in types if core & t]",
        ("tests/test_axioms.py",),
        "JR/EJR count the ballot types meeting a core instead of containing it",
    ),
    Mutant(
        AXIOMS,
        "counts[ballot] = counts.get(ballot, 0) + 1",
        "counts[ballot] = 1",
        ("tests/test_axioms.py",),
        "every ballot type counts one voter",
    ),
    Mutant(
        AXIOMS,
        "            ballot ^= bit\n        low += count\n",
        "            ballot ^= bit\n",
        ("tests/test_axioms.py",),
        "the cohesive walk gives every ballot type the same voter bits, the first type's",
    ),
    Mutant(
        AXIOMS,
        "if k * shared.bit_count() >= ell * n:",
        "if k * shared.bit_count() > ell * n:",
        ("tests/test_axioms.py",),
        "a group of exactly ell*n/k voters is not cohesive",
    ),
    Mutant(
        AXIOMS,
        "(sj < si and all(map(operator.ge, oi, oj))",
        "(sj <= si and all(map(operator.ge, oi, oj))",
        ("tests/test_axioms.py",),
        "a committee with an equal AV score and row counts as dominated",
    ),
    Mutant(
        AXIOMS,
        "(sj < si and all(map(operator.ge, oi, oj))",
        "(sj < si - 1 and all(map(operator.ge, oi, oj))",
        ("tests/test_axioms.py",),
        "dominance pairs one AV point apart are dropped",
    ),
    Mutant(
        AXIOMS,
        "    if ax not in (Axiom.JR, Axiom.EJR):\n        raise InvalidParametersError("
        'f"committee sets are for JR/PJR/EJR only, got {ax}")\n',
        "",
        ("tests/test_axioms.py", "tests/test_mechanisms.py"),
        "the JR/PJR/EJR checker reads any other axiom as EJR",
    ),
    Mutant(
        AXIOMS,
        "@lru_cache(maxsize=32)\ndef axiom_committee_set",
        "@lru_cache(maxsize=4096)\ndef axiom_committee_set",
        ("tests/test_audit.py",),
        "the axiom-set memo keeps every neighbour that levels or premises read alive",
    ),
    Mutant(
        MECHANISMS,
        "    epsilon = as_epsilon(epsilon)\n    return CommitteeDistribution(",
        "    return CommitteeDistribution(",
        ("tests/test_mechanisms.py",),
        "a scored law keeps its budget unparsed",
    ),
    Mutant(
        MECHANISMS,
        "if eps.numerator <= 0:",
        "if eps.numerator < 0:",
        ("tests/test_mechanisms.py",),
        "as_epsilon accepts a zero budget",
    ),
    Mutant(
        MECHANISMS,
        "bisect.bisect_right(dist.cumulative, u, 0, len(dist.committees) - 1)",
        "bisect.bisect_right(dist.cumulative, u, 0, len(dist.committees) - 2)",
        ("tests/test_mechanisms.py",),
        "sample never draws the last committee",
    ),
    Mutant(
        MECHANISMS,
        "_from_scores(inst, epsilon, _av_scores(inst), 2 * inst.k)",
        "_from_scores(inst, epsilon, _av_scores(inst), inst.k)",
        ("tests/test_audit.py", "tests/test_mechanisms.py", "tests/test_acceptance.py"),
        "exp-av at scale k, only 2*eps-DP",
    ),
    Mutant(
        AUDIT,
        "for current, voter in types.items():",
        "for current, voter in sorted(types.items(), key=lambda item: sorted(item[0])):",
        ("tests/test_audit.py",),
        "the DP-audit scan visits the distinct ballots in sorted order, not voter order",
    ),
    Mutant(
        AUDIT,
        "types.setdefault(ballot, voter)",
        "types.setdefault(ballot, 0)",
        ("tests/test_audit.py",),
        "the DP-audit scan always replaces voter 0's ballot",
    ),
    Mutant(
        AUDIT,
        "if Counter({tuple(v[x] for x in order): c for v, c in profile.items()}) == profile:",
        "if True:",
        ("tests/test_audit.py",),
        "the DP-audit scan joins every two twin classes of equal size, fixing the ballots or not",
    ),
    Mutant(
        AUDIT,
        "key = tuple(sorted(zip(component, counts, vectors[current])))",
        "key = tuple(sorted(zip(component, counts)))",
        ("tests/test_audit.py",),
        "the DP-audit scan's orbit key drops which twin classes the replaced ballot holds",
    ),
    Mutant(
        AUDIT,
        "for i, ballot in enumerate(types):",
        "for i, ballot in enumerate(list(types)[:1]):",
        ("tests/test_audit.py",),
        "the DP-audit scan's twin-class key reads only the first ballot type",
    ),
    Mutant(
        AUDIT,
        "[c[:j] for j in range(len(c) + 1)]",
        "[c[len(c) - j :] for j in range(len(c) + 1)]",
        ("tests/test_audit.py",),
        "the DP-audit scan's replacements take each twin class's highest members, not its lowest",
    ),
    Mutant(
        AUDIT,
        "            if ballot == current:\n                continue\n",
        "",
        ("tests/test_audit.py",),
        "the DP-audit scan lists a voter's own ballot as one of its neighbours",
    ),
    Mutant(
        AUDIT,
        "if work > NEIGHBOR_AUDIT_MAX_WORK:",
        "if work >= NEIGHBOR_AUDIT_MAX_WORK:",
        ("tests/test_audit.py",),
        "the DP-audit scan refuses an audit whose predicted work is exactly the cap",
    ),
    Mutant(
        AUDIT,
        "    scan = neighbor_orbits(inst)\n    base = rule(inst)\n",
        "    base = rule(inst)\n    scan = neighbor_orbits(inst)\n",
        ("tests/test_audit.py",),
        "dp_level runs the rule on the audited profile before checking the work cap",
    ),
    Mutant(
        AUDIT,
        "math.comb(inst.m, min(inst.k, inst.m // 2))",
        "math.comb(inst.m, inst.k)",
        ("tests/test_audit.py",),
        "the DP-audit scan charges a rule call its C(m, k) committees, one at k = m",
    ),
    Mutant(
        AUDIT,
        "max(math.comb(inst.m, min(inst.k, inst.m // 2)), math.comb(8, 4))",
        "math.comb(inst.m, min(inst.k, inst.m // 2))",
        ("tests/test_audit.py",),
        "the DP-audit scan charges a rule call less than C(8, 4), so small k admits more calls",
    ),
    Mutant(
        AUDIT,
        'EJR_2WAY = "ejr-2way", (Axiom.EJR,), lambda n, k: -(-n // k)',
        'EJR_2WAY = "ejr-2way", (Axiom.EJR,), lambda n, k: n // k',
        ("tests/test_audit.py",),
        "the two-way EJR bound's right-hand side rounds n / k down, not up",
    ),
    Mutant(
        AUDIT,
        "key=lambda i: len(succ[i]), reverse=True)",
        "key=lambda i: len(succ[i]))",
        ("tests/test_audit.py",),
        "the dominance chain walk visits committees by successor-row length ascending",
    ),
    Mutant(
        AUDIT,
        "if chain < need - 1:",
        "if chain < need:",
        ("tests/test_audit.py",),
        "the PE-CC premise asks nk arrows off the Condorcet committee, not nk - 1",
    ),
    Mutant(
        AUDIT,
        "j = next(j for j in row if weights[i] - weights[j] == diff)",
        "j = max(row, key=weights.__getitem__)",
        ("tests/test_audit.py",),
        "the PE level takes its row's largest-weight index, not the first with an equal difference",
    ),
    Mutant(
        AUDIT,
        "sum(weight * level.log_at(epsilon) for level, weight in self.terms)",
        "sum(weight * level.log_value for level, weight in self.terms)",
        ("tests/test_cli.py",),
        "every budget's bound row reads each level's log at the law's own budget",
    ),
    Mutant(
        CLI,
        "key = (tuple((q - low) // g for q in dist.scores), dist.scale // g)",
        "key = tuple((q - low) // g for q in dist.scores)",
        ("tests/test_cli.py",),
        "reproduce shares rows between laws with equal reduced scores at different scales",
    ),
    Mutant(
        CLI,
        "            ]\n        name = value(mechanism)\n",
        "            ]\n            name = value(mechanism)\n",
        ("tests/test_cli.py",),
        "a shared row family's rows name the rule that built it, not each rule sharing it",
    ),
    Mutant(
        CLI,
        "source = instance.add_mutually_exclusive_group(required=True)",
        "source = instance.add_mutually_exclusive_group(required=False)",
        ("tests/test_cli.py",),
        "an instance command runs without --input or --witness",
    ),
    Mutant(
        CLI,
        'rule.add_argument("--eps", required=True,',
        'rule.add_argument("--eps", required=False,',
        ("tests/test_cli.py",),
        "a rule command runs without --eps",
    ),
)


def misplaced() -> list:
    """A line for every mutant whose old text does not occur exactly once."""
    bad = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.file).read_text().count(mutant.old)
        if count != 1:
            bad.append(f"{mutant.file}: {mutant.old!r} occurs {count} times")
    return bad


def run(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's test files, in a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="dpabc-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    bad = misplaced()
    if bad:
        print("mutant texts must occur exactly once:", *bad, sep="\n  ")
        return 1
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(mutant)
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{verdict}: {mutant.breaks} [{mutant.file}] in {time.perf_counter() - start:.1f} s")
        if code != 1:
            survivors.append(mutant)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for mutant in survivors:
        print(f"survivor: {mutant.breaks} ({mutant.file}: {mutant.old!r} -> {mutant.new!r})")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
