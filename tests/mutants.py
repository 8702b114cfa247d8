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


AXIOMS = "src/dpabc/axioms.py"
AUDIT = "src/dpabc/audit.py"
MECHANISMS = "src/dpabc/mechanisms.py"

MUTANTS = (
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
        MECHANISMS,
        "bisect.bisect_right(dist.cumulative, u, 0, len(dist.committees) - 1)",
        "bisect.bisect_right(dist.cumulative, u, 0, len(dist.committees) - 2)",
        ("tests/test_mechanisms.py",),
        "sample never draws the last committee",
    ),
    Mutant(
        MECHANISMS,
        '"exp-av", _av_scores(inst), 2 * inst.k)',
        '"exp-av", _av_scores(inst), inst.k)',
        ("tests/test_audit.py", "tests/test_mechanisms.py", "tests/test_acceptance.py"),
        "exp-av at scale k, only 2*eps-DP",
    ),
    Mutant(
        AUDIT,
        "for current in dict.fromkeys(inst.ballots):",
        "for current in sorted(dict.fromkeys(inst.ballots), key=sorted):",
        ("tests/test_audit.py",),
        "dp_level visits the distinct ballots in sorted order, not voter order",
    ),
    Mutant(
        AUDIT,
        "voter = inst.ballots.index(current)",
        "voter = 0",
        ("tests/test_audit.py",),
        "dp_level always replaces voter 0's ballot",
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
