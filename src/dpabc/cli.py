"""Exact laws, draws, privacy audits and axiom-bound checks of DP committee rules.

Subcommands::

    dist          write a mechanism's exact distribution on an instance
    sample        draw one committee with a seeded deterministic sampler
    axioms        list JR/PJR/EJR sets, the Pareto frontier, and Condorcet facts
    audit-dp      exhaustive neighborhood privacy audit of a mechanism
    audit-axioms  measured axiom levels plus all tradeoff bound checks
    reproduce     run every bound check over all witness ids and an eps grid

Instances come either from ``--input <path>`` (profile text format: header
``m=<int> k=<int>``, then one line of approved indices per voter) or from
``--witness <id>`` with optional ``--n/--k/--m`` overrides.

Structured output is line-delimited JSON with stable field names and sorted
keys; identical configuration yields byte-identical output. Exit codes:
0 success, 1 bound violation, 2 usage or parse error, 3 policy cap exceeded,
4 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .audit import (
    TOLERANCE,
    bound_premises,
    dp_level,
    evaluate_bounds,
    measure_levels,
)
from .axioms import JR_FAMILY, axiom_committee_set, condorcet_committee, pareto_frontier
from .core import (
    Instance,
    InvalidParametersError,
    ProfileParseError,
    ResourceLimitError,
    read_instance,
)
from .instances import WitnessId, witness, witness_id
from .mechanisms import (
    AUDIT_MECHANISMS, MECHANISMS, as_epsilon, make_rule, sample, sample_sequential_av,
)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_USAGE = 2
EXIT_POLICY_CAP = 3
EXIT_INTERNAL = 4

# Largest committee space an instance may have: every checker enumerates the
# C(m, k) committees (the dominance scan compares each with the committees of
# strictly lower AV score; the Condorcet scan is one linear elimination pass
# and one verifying pass), the EJR checker scans the C(m, ell) cores for every
# ell <= k, and the seq-av law's round j visits the C(m, j) chosen sets for
# every j <= k.
COMMITTEE_SPACE_MAX = 5000

# Most voters an instance may have; every checker and rule counts the
# ballot types once per call. On JR_UPPER at n = 10^5, `axioms` takes 0.3 s
# and `audit-dp --mechanism exp-av` 0.5-0.6 s, at 39-41 MB peak RSS; `axioms`
# at n = 10^6 takes 2.6 s and 249 MB.
VOTER_COUNT_MAX = 100_000

DEFAULT_EPS_GRID = ("0.1", "1", "2")

# one encoder for every record; json.dumps with options builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)

# holds a bound row's per-eps fields and its rule (in sorted order, as they
# render) while the row's other fields render once
_SLOT = "\0"
_SLOTS = dict.fromkeys(("eps", "lhs_log", "mechanism", "rhs_log"), _SLOT)


def _finite(x: float):
    return x if math.isfinite(x) else "inf"


def _frac(q: Optional[Fraction]):
    return None if q is None else str(q)


def _table_line(r: dict) -> str:
    parts = [f"{key}={r[key]}" for key in sorted(r) if key != "record"]
    # the space keeps a record name of 14 or more characters apart
    return (r.get("record", "") + " ").ljust(14) + " ".join(parts)


def _json_value(v) -> str:
    # a finite float's repr is its JSON text
    return repr(v) if type(v) is float else _ENCODER.encode(v)


# format -> (one record's line, one field value's text in that line)
_FORMATS = {"structured": (_ENCODER.encode, _json_value), "table": (_table_line, str)}


def _render(records: list, fmt: str) -> str:
    """Records as JSON lines with sorted keys, or as a plain table. A row
    family of :func:`_bound_records` comes as ``(mechanism, family)``; each
    distinct family's checks render once with ``_SLOT`` in their slots, each
    budget fills the per-eps ones, and each rule sharing it fills its name."""
    line, value = _FORMATS[fmt]
    slot = value(_SLOT)
    lines = []
    built: dict = {}  # id of a row family -> its lines, split at the mechanism slot
    for r in records:
        if isinstance(r, dict):
            lines.append(line(r) + "\n")
            continue
        mechanism, (fixed, budgets) = r
        if id(fixed) not in built:
            pieces = [line({**f, **_SLOTS}).split(slot) for f in fixed]
            if any(len(p) != 5 for p in pieces):
                raise ValueError(f"a bound field holds the slot marker {_SLOT!r}")
            built[id(fixed)] = [
                (f"{a}{eps}{b}{value(lhs_log)}{c}", f"{d}{value(rhs_log)}{e}\n")
                for label, logs in budgets
                for eps in [value(label)]
                for (a, b, c, d, e), (lhs_log, rhs_log) in zip(pieces, logs)
            ]
        name = value(mechanism)
        lines += [head + name + tail for head, tail in built[id(fixed)]]
    return "".join(lines)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _admit(m: int, k: int) -> int:
    """The most voters an instance of shape ``m, k`` may have, once its
    committee space is within the cap. C(m, ell) >= m for 0 < ell < m, so a
    huge m is rejected uncomputed; shapes outside 1 <= k <= m are the
    witness builders' and the profile parser's to reject."""
    if 1 <= k <= m and (
        m > COMMITTEE_SPACE_MAX or math.comb(m, min(k, m // 2)) > COMMITTEE_SPACE_MAX
    ):
        raise ResourceLimitError(
            f"committee space limited to C(m, ell) <= {COMMITTEE_SPACE_MAX} "
            f"for every ell <= k, got m={m} k={k}"
        )
    return VOTER_COUNT_MAX


def _load_instance(args) -> Instance:
    """The instance named on the command line, its committee space and voter
    count capped before a witness of size m or n, or a ballot of a profile
    past the voter cap, is built. The ``--n/--k/--m`` overrides are a usage
    error with ``--input``."""
    if args.input:
        for name in "nkm":
            if getattr(args, name) is not None:
                raise InvalidParametersError(f"--{name} applies to --witness only, not --input")
        # a byte that is not UTF-8 reaches read_instance, which names its line
        with open(args.input, encoding="utf-8", errors="surrogateescape") as fh:
            return read_instance(fh, _admit)
    wid = witness_id(args.witness)
    overrides = (args.n, args.k, args.m)
    n, k, m = (d if o is None else o for o, d in zip(overrides, wid.shape))
    if n > _admit(m, k):
        raise ResourceLimitError(f"voter count limited to n <= {VOTER_COUNT_MAX}, got n={n}")
    return witness(wid, n, k, m).inst


def build_parser() -> argparse.ArgumentParser:
    # the three shared option sets, declared once and named by each subcommand
    rule = argparse.ArgumentParser(add_help=False)
    rule.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS), help="rule to run")
    rule.add_argument("--eps", required=True, help="privacy budget, a decimal or a ratio (7/10)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("table", "structured"), default="structured",
        help="JSON lines (default) or key=value lines",
    )
    output.add_argument("--out", help="output path (default stdout)")
    instance = argparse.ArgumentParser(add_help=False)
    source = instance.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="profile text file")
    source.add_argument("--witness", help="witness id: " + ", ".join(w.value for w in WitnessId))
    instance.add_argument("--n", type=int, help="witness voter count override")
    instance.add_argument("--k", type=int, help="witness committee size override")
    instance.add_argument("--m", type=int, help="witness alternative count override")

    parser = argparse.ArgumentParser(prog="dpabc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ruled = [rule, output, instance]
    sub.add_parser("dist", parents=ruled, help="exact distribution of a mechanism")
    p_sample = sub.add_parser("sample", parents=ruled, help="draw one committee")
    p_sample.add_argument("--seed", type=int, default=0, help="64-bit sampler seed")
    sub.add_parser("axioms", parents=[output, instance], help="axiom facts for an instance")
    sub.add_parser("audit-dp", parents=ruled, help="exhaustive neighborhood DP audit")
    sub.add_parser("audit-axioms", parents=ruled, help="axiom levels and bound checks")
    p_rep = sub.add_parser(
        "reproduce", parents=[output], help="full bound-check grid over all witnesses"
    )
    # repeated flags add up; None (no flag) selects DEFAULT_EPS_GRID
    p_rep.add_argument("--eps", nargs="+", action="extend")
    return parser


def _distribution(args):
    """The chosen mechanism's exact law on the chosen instance."""
    return MECHANISMS[args.mechanism](_load_instance(args), as_epsilon(args.eps))


def _cmd_dist(args) -> tuple:
    dist = _distribution(args)
    records = [
        {
            "record": "dist",
            "mechanism": args.mechanism,
            "eps": str(dist.epsilon),
            "committee": list(committee),
            "log_weight": None
            if dist.scores is None
            else str(Fraction(dist.scores[i], dist.scale)),
            "probability": dist.probs[i],
        }
        for i, committee in enumerate(dist.committees)
    ]
    return records, EXIT_OK


def _cmd_sample(args) -> tuple:
    inst, eps = _load_instance(args), as_epsilon(args.eps)
    if args.mechanism == "seq-av":  # the rule's own k-round draw; it builds no law
        committee = sample_sequential_av(inst, eps, args.seed)
    else:
        committee = sample(MECHANISMS[args.mechanism](inst, eps), args.seed)
    record = {
        "record": "sample",
        "mechanism": args.mechanism,
        "eps": str(eps),
        "seed": args.seed,
        "committee": list(committee),
    }
    return [record], EXIT_OK


def _cmd_axioms(args) -> tuple:
    inst = _load_instance(args)
    records = []
    for ax in JR_FAMILY:
        committees = axiom_committee_set(inst, ax)
        records.append(
            {
                "record": "axiom_set",
                "axiom": ax.value,
                "count": len(committees),
                "committees": [list(w) for w in committees],
            }
        )
    frontier = pareto_frontier(inst)
    records.append(
        {
            "record": "pareto_frontier",
            "count": len(frontier),
            "committees": [list(w) for w in frontier],
        }
    )
    winner = condorcet_committee(inst)
    records.append(
        {
            "record": "condorcet",
            "committee": list(winner) if winner is not None else None,
        }
    )
    return records, EXIT_OK


def _attaining(report) -> Optional[dict]:
    if report.attaining is None:
        return None
    voter, ballot, committee = report.attaining
    return {"voter": voter, "replacement_ballot": sorted(ballot), "committee": list(committee)}


def _cmd_audit_dp(args) -> tuple:
    inst = _load_instance(args)
    eps = as_epsilon(args.eps)
    report = dp_level(make_rule(args.mechanism, eps), inst)
    violated = report.max_log_ratio > float(eps) + TOLERANCE
    record = {
        "record": "dp_audit",
        "mechanism": args.mechanism,
        "eps": str(eps),
        "max_log_ratio": report.max_log_ratio,
        "neighbors_checked": report.instances_checked,
        "neighbors_evaluated": report.neighbors_evaluated,
        "within_budget": not violated,
        "attaining": _attaining(report),
    }
    return [record], EXIT_BOUND_VIOLATION if violated else EXIT_OK


def _level_record(level, extra: dict) -> dict:
    return {
        "record": "axiom_level",
        "axiom": level.axiom.value,
        "log_value": _finite(level.log_value),
        "coeff": _frac(level.coeff),
        "vacuous": level.vacuous,
        "pair": None
        if level.attaining_pair is None
        else [list(level.attaining_pair[0]), list(level.attaining_pair[1])],
        **extra,
    }


def _bound_records(checks: list, eps_values: Sequence, extra: dict) -> tuple:
    """The records of ``checks`` at each budget in turn as one row family:
    each check's fields that do not depend on eps, built once, and per
    budget its label and each check's ``(lhs_log, rhs_log)``."""
    fixed = [
        {
            "record": "bound",
            "bound": check.bound_id.value,
            "lhs_coeff": _frac(check.lhs_coeff),
            "rhs_coeff": _frac(check.rhs_coeff),
            "satisfied": check.satisfied,
            "vacuous": check.vacuous,
            "note": check.note,
            "attaining": [
                {"level": level.axiom.value, "pair": [list(w) for w in level.attaining_pair]}
                for level, _ in check.terms
            ],
            **extra,
        }
        for check in checks
    ]
    budgets = []
    for eps in eps_values:
        logs = [check.logs(eps) for check in checks]
        budgets.append((str(eps), [(_finite(lhs), rhs) for lhs, rhs in logs]))
    return fixed, budgets


def _cmd_audit_axioms(args) -> tuple:
    dist = _distribution(args)
    inst, eps = dist.instance, dist.epsilon
    levels = measure_levels(dist)
    extra = {"mechanism": args.mechanism, "eps": str(eps)}
    records = [_level_record(level, extra) for level in levels.values()]
    checks = evaluate_bounds(levels, inst, bound_premises(inst))
    records.append((args.mechanism, _bound_records(checks, [eps], {})))
    violated = any(not check.satisfied for check in checks)
    return records, EXIT_BOUND_VIOLATION if violated else EXIT_OK


def _cmd_reproduce(args) -> tuple:
    eps_values = [as_epsilon(e) for e in (DEFAULT_EPS_GRID if args.eps is None else args.eps)]
    records = []
    for wid in WitnessId:
        inst = witness(wid).inst
        premises, extra = bound_premises(inst), {"witness": wid.value}
        families: dict = {}
        for mechanism in AUDIT_MECHANISMS:
            # every audited law has scores, so its checks hold at every eps
            dist = MECHANISMS[mechanism](inst, eps_values[0])
            key = (dist.scores, dist.scale)
            if key not in families:
                checks = evaluate_bounds(measure_levels(dist), inst, premises)
                families[key] = _bound_records(checks, eps_values, extra)
            records.append((mechanism, families[key]))
    violations = sum(
        len(budgets) * sum(not f["satisfied"] for f in fixed) for _, (fixed, budgets) in records
    )
    records.append(
        {
            "record": "summary",
            "witnesses": len(WitnessId),
            "mechanisms": len(AUDIT_MECHANISMS),
            "eps_grid": [str(e) for e in eps_values],
            "violations": violations,
        }
    )
    return records, EXIT_BOUND_VIOLATION if violations else EXIT_OK


_COMMANDS = {
    "dist": _cmd_dist,
    "sample": _cmd_sample,
    "axioms": _cmd_axioms,
    "audit-dp": _cmd_audit_dp,
    "audit-axioms": _cmd_audit_axioms,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[Sequence] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        records, code = _COMMANDS[args.command](args)
        _write(_render(records, args.format), args.out)
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLICY_CAP
    except (ProfileParseError, InvalidParametersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never a traceback, and never exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
