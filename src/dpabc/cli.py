"""Command-line front end.

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
from .axioms import JR_FAMILY, Axiom, axiom_committee_set, condorcet_committee, pareto_frontier
from .core import (
    Instance,
    InvalidParametersError,
    ProfileParseError,
    ResourceLimitError,
    parse_instance,
)
from .instances import WitnessId, witness
from .mechanisms import AUDIT_MECHANISMS, MECHANISMS, as_epsilon, sample

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_USAGE = 2
EXIT_POLICY_CAP = 3
EXIT_INTERNAL = 4

# Largest committee space an instance may have: every checker enumerates the
# C(m, k) committees (the dominance and Condorcet scans visit all pairs of
# them), and the EJR checker scans the C(m, ell) cores for every ell <= k.
COMMITTEE_SPACE_MAX = 5000

DEFAULT_EPS_GRID = ("0.1", "1", "2")


def _finite(x: float):
    return x if math.isfinite(x) else "inf"


def _frac(q: Optional[Fraction]):
    return None if q is None else str(q)


class _Emitter:
    """Collects records and renders them as JSON lines or a plain table."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.records: list = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def render(self) -> str:
        if self.fmt == "structured":
            return "".join(
                json.dumps(r, sort_keys=True, default=str) + "\n" for r in self.records
            )
        lines = []
        for r in self.records:
            parts = [f"{key}={r[key]}" for key in sorted(r) if key != "record"]
            lines.append(r.get("record", "").ljust(14) + " ".join(parts))
        return "\n".join(lines) + "\n"


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_witness_id(name: str) -> WitnessId:
    key = name.strip().upper().replace("-", "_")
    try:
        return WitnessId[key]
    except KeyError:
        valid = ", ".join(w.name for w in WitnessId)
        raise InvalidParametersError(f"unknown witness id {name!r}; valid ids: {valid}") from None


def _load_instance(args) -> Instance:
    if args.input:
        with open(args.input) as fh:
            inst = parse_instance(fh.read())
    else:
        wid = _resolve_witness_id(args.witness)
        inst = witness(wid, n=args.n, k=args.k, m=args.m).inst
    m, k = inst.m, inst.k
    # C(m, ell) >= m for 0 < ell < m, so a huge header m is rejected uncomputed
    if m > COMMITTEE_SPACE_MAX or math.comb(m, min(k, m // 2)) > COMMITTEE_SPACE_MAX:
        raise ResourceLimitError(
            f"committee space limited to C(m, ell) <= {COMMITTEE_SPACE_MAX} "
            f"for every ell <= k, got m={m} k={k}"
        )
    return inst


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="profile text file")
    source.add_argument("--witness", help="witness id (see `reproduce` for the list)")
    parser.add_argument("--n", type=int, help="witness voter count override")
    parser.add_argument("--k", type=int, help="witness committee size override")
    parser.add_argument("--m", type=int, help="witness alternative count override")


def _add_common_args(parser: argparse.ArgumentParser, mechanism: bool = True) -> None:
    if mechanism:
        parser.add_argument(
            "--mechanism", required=True, choices=sorted(MECHANISMS), help="rule to run"
        )
        parser.add_argument("--eps", required=True, help="privacy budget (decimal string)")
    parser.add_argument("--format", choices=("table", "structured"), default="structured")
    parser.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpabc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="exact distribution of a mechanism")
    _add_common_args(p_dist)
    _add_instance_args(p_dist)

    p_sample = sub.add_parser("sample", help="draw one committee")
    _add_common_args(p_sample)
    _add_instance_args(p_sample)
    p_sample.add_argument("--seed", type=int, default=0, help="64-bit sampler seed")

    p_axioms = sub.add_parser("axioms", help="axiom facts for an instance")
    _add_common_args(p_axioms, mechanism=False)
    _add_instance_args(p_axioms)
    p_axioms.add_argument("--axiom", choices=("jr", "pjr", "ejr"), help="restrict to one axiom")

    p_dp = sub.add_parser("audit-dp", help="exhaustive neighborhood DP audit")
    _add_common_args(p_dp)
    _add_instance_args(p_dp)

    p_ax = sub.add_parser("audit-axioms", help="axiom levels and bound checks")
    _add_common_args(p_ax)
    _add_instance_args(p_ax)
    p_ax.add_argument("--axiom", choices=("jr", "pjr", "ejr"), help="restrict level records")

    p_rep = sub.add_parser("reproduce", help="full bound-check grid over all witnesses")
    p_rep.add_argument("--eps", nargs="*", default=list(DEFAULT_EPS_GRID))
    p_rep.add_argument("--format", choices=("table", "structured"), default="structured")
    p_rep.add_argument("--out", help="output path (default stdout)")
    return parser


def _cmd_dist(args) -> int:
    inst = _load_instance(args)
    eps = as_epsilon(args.eps)
    dist = MECHANISMS[args.mechanism](inst, eps)
    emitter = _Emitter(args.format)
    for i, committee in enumerate(dist.committees):
        emitter.emit(
            {
                "record": "dist",
                "mechanism": dist.mechanism,
                "eps": str(eps),
                "committee": list(committee),
                "log_weight": _frac(dist.weight_coeffs[i]) if dist.weight_coeffs else None,
                "probability": dist.probs[i],
            }
        )
    _write(emitter.render(), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    inst = _load_instance(args)
    eps = as_epsilon(args.eps)
    dist = MECHANISMS[args.mechanism](inst, eps)
    committee = sample(dist, args.seed)
    emitter = _Emitter(args.format)
    emitter.emit(
        {
            "record": "sample",
            "mechanism": dist.mechanism,
            "eps": str(eps),
            "seed": args.seed,
            "committee": list(committee),
        }
    )
    _write(emitter.render(), args.out)
    return EXIT_OK


def _cmd_axioms(args) -> int:
    inst = _load_instance(args)
    emitter = _Emitter(args.format)
    wanted = JR_FAMILY if not args.axiom else (Axiom(args.axiom),)
    for ax in wanted:
        committees = axiom_committee_set(inst, ax)
        emitter.emit(
            {
                "record": "axiom_set",
                "axiom": ax.value,
                "count": len(committees),
                "committees": [list(w) for w in committees],
            }
        )
    if not args.axiom:
        frontier = pareto_frontier(inst)
        emitter.emit(
            {
                "record": "pareto_frontier",
                "count": len(frontier),
                "committees": [list(w) for w in frontier],
            }
        )
        winner = condorcet_committee(inst)
        emitter.emit(
            {
                "record": "condorcet",
                "committee": list(winner) if winner is not None else None,
            }
        )
    _write(emitter.render(), args.out)
    return EXIT_OK


def _attaining_fields(report) -> dict:
    if report.attaining is None:
        return {"attaining": None}
    inst, neighbor, committee = report.attaining
    voter = next(
        i for i, (b1, b2) in enumerate(zip(inst.ballots, neighbor.ballots)) if b1 != b2
    )
    return {
        "attaining": {
            "voter": voter,
            "replacement_ballot": sorted(neighbor.ballots[voter]),
            "committee": list(committee),
        }
    }


def _cmd_audit_dp(args) -> int:
    inst = _load_instance(args)
    eps = as_epsilon(args.eps)
    factory = MECHANISMS[args.mechanism]
    report = dp_level(lambda i: factory(i, eps), inst)
    violated = report.max_log_ratio > float(eps) + TOLERANCE
    emitter = _Emitter(args.format)
    record = {
        "record": "dp_audit",
        "mechanism": args.mechanism,
        "eps": str(eps),
        "max_log_ratio": report.max_log_ratio,
        "neighbors_checked": report.instances_checked,
        "neighbors_evaluated": report.neighbors_evaluated,
        "within_budget": not violated,
    }
    record.update(_attaining_fields(report))
    emitter.emit(record)
    _write(emitter.render(), args.out)
    return EXIT_BOUND_VIOLATION if violated else EXIT_OK


def _level_record(level, extra: dict) -> dict:
    record = {
        "record": "axiom_level",
        "axiom": level.axiom.value,
        "log_value": _finite(level.log_value),
        "coeff": _frac(level.coeff),
        "vacuous": level.vacuous,
        "pair": None
        if level.attaining_pair is None
        else [list(level.attaining_pair[0]), list(level.attaining_pair[1])],
    }
    record.update(extra)
    return record


def _bound_record(check, extra: dict) -> dict:
    record = {
        "record": "bound",
        "bound": check.bound_id.value,
        "lhs_log": _finite(check.lhs_log),
        "rhs_log": check.rhs_log,
        "lhs_coeff": _frac(check.lhs_coeff),
        "rhs_coeff": _frac(check.rhs_coeff),
        "satisfied": check.satisfied,
        "vacuous": check.vacuous,
        "note": check.note,
        "attaining": [
            {"level": axiom.value, "pair": [list(pair[0]), list(pair[1])]}
            for axiom, pair in check.attaining
            if pair is not None
        ],
    }
    record.update(extra)
    return record


def _cmd_audit_axioms(args) -> int:
    inst = _load_instance(args)
    eps = as_epsilon(args.eps)
    dist = MECHANISMS[args.mechanism](inst, eps)
    levels = measure_levels(dist)
    emitter = _Emitter(args.format)
    extra = {"mechanism": args.mechanism, "eps": str(eps)}
    wanted = (Axiom(args.axiom),) if args.axiom else tuple(levels)
    for ax in wanted:
        emitter.emit(_level_record(levels[ax], extra))
    violations = 0
    for check in evaluate_bounds(levels, inst, eps, bound_premises(inst)):
        emitter.emit(_bound_record(check, extra))
        if not check.satisfied and not check.vacuous:
            violations += 1
    _write(emitter.render(), args.out)
    return EXIT_BOUND_VIOLATION if violations else EXIT_OK


def _cmd_reproduce(args) -> int:
    if not args.eps:
        raise InvalidParametersError("reproduce needs at least one --eps value")
    eps_values = [as_epsilon(e) for e in args.eps]
    emitter = _Emitter(args.format)
    violations = 0
    for wid in WitnessId:
        built = witness(wid)
        premises = bound_premises(built.inst)
        for mechanism in AUDIT_MECHANISMS:
            for eps in eps_values:
                dist = MECHANISMS[mechanism](built.inst, eps)
                extra = {
                    "witness": wid.value,
                    "mechanism": mechanism,
                    "eps": str(eps),
                }
                for check in evaluate_bounds(measure_levels(dist), built.inst, eps, premises):
                    emitter.emit(_bound_record(check, extra))
                    if not check.satisfied and not check.vacuous:
                        violations += 1
    emitter.emit(
        {
            "record": "summary",
            "witnesses": len(WitnessId),
            "mechanisms": len(AUDIT_MECHANISMS),
            "eps_grid": [str(e) for e in eps_values],
            "violations": violations,
        }
    )
    _write(emitter.render(), args.out)
    return EXIT_BOUND_VIOLATION if violations else EXIT_OK


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
        return _COMMANDS[args.command](args)
    except ProfileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLICY_CAP
    except InvalidParametersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never a traceback, and never exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
