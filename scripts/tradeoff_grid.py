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
from dpabc.mechanisms import AUDIT_MECHANISMS


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--witness", action="append", type=witness_arg, help="witness id (repeatable)"
    )
    parser.add_argument("--eps", nargs="*", default=["0.1", "0.5", "1", "2"])
    args = parser.parse_args()

    wids = args.witness or list(WitnessId)
    order = (Axiom.JR, Axiom.PJR, Axiom.EJR, Axiom.PE, Axiom.CC)

    for wid in wids:
        built = witness(wid)
        inst = built.inst
        print(f"\n== {wid.value} (n={inst.n}, k={inst.k}, m={inst.m})")
        print("   two-way caps (log): jr/pjr/cc <= eps, "
              f"ejr <= {-(-inst.n // inst.k)}*eps, pe <= eps/{inst.k}")
        header = "mechanism      eps    " + "  ".join(f"{ax.value:>6}" for ax in order)
        print(header)
        for eps in args.eps:
            for name in AUDIT_MECHANISMS:
                dist = MECHANISMS[name](inst, eps)
                levels = measure_levels(dist)
                row = "  ".join(fmt(levels[ax]) for ax in order)
                print(f"{name:<14} {eps:>4}  {row}")


if __name__ == "__main__":
    main()
