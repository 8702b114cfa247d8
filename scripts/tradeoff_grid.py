#!/usr/bin/env python3
"""Sweep the privacy budget and tabulate measured axiom levels per mechanism.

For each witness and eps, prints the five measured levels (log domain) next
to the binding two-way bound, making the tradeoff curves visible at a glance.

Usage:
    python scripts/tradeoff_grid.py
    python scripts/tradeoff_grid.py --witness PE_CHAIN --eps 0.25 0.5 1 2 4
"""

import argparse
import math

from dpabc import (
    Axiom,
    InvalidParametersError,
    MECHANISMS,
    measure_levels,
    witness,
    witness_id,
    WitnessId,
)
from dpabc.mechanisms import AUDIT_MECHANISMS, as_epsilon


def fmt(level):
    if math.isinf(level.log_value):
        return "   -  "
    return f"{level.log_value:6.3f}"


def witness_arg(name):
    """A witness id as the CLI reads it; an unknown one is a usage error."""
    try:
        return witness_id(name)
    except InvalidParametersError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def eps_arg(text):
    """A budget as the CLI reads it, kept as typed; a bad one is a usage error."""
    try:
        as_epsilon(text)
    except InvalidParametersError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--witness", action="append", type=witness_arg, help="witness id (repeatable)"
    )
    # repeated flags add up; None (no flag) selects the default grid
    parser.add_argument("--eps", nargs="+", type=eps_arg, action="extend")
    args = parser.parse_args()
    eps_grid = ["0.1", "0.5", "1", "2"] if args.eps is None else args.eps

    wids = args.witness or list(WitnessId)
    order = (Axiom.JR, Axiom.PJR, Axiom.EJR, Axiom.PE, Axiom.CC)

    lines = []
    try:
        # a budget too large for a rule is a usage error, not a traceback
        for wid in wids:
            inst = witness(wid).inst
            lines.append(f"\n== {wid.value} (n={inst.n}, k={inst.k}, m={inst.m})")
            lines.append("   two-way caps (log): jr/pjr/cc <= eps, "
                         f"ejr <= {-(-inst.n // inst.k)}*eps, pe <= eps/{inst.k}")
            lines.append("mechanism      eps    " + "  ".join(f"{ax.value:>6}" for ax in order))
            for eps in eps_grid:
                for name in AUDIT_MECHANISMS:
                    levels = measure_levels(MECHANISMS[name](inst, eps))
                    row = "  ".join(fmt(levels[ax]) for ax in order)
                    lines.append(f"{name:<14} {eps:>4}  {row}")
    except InvalidParametersError as exc:
        parser.error(str(exc))
    print(*lines, sep="\n")


if __name__ == "__main__":
    main()
