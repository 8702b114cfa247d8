#!/usr/bin/env python3
"""Quantify the gap between the two readings of the AV sampler.

The k-round without-replacement sampler and the committee-level exponential
law coincide for k=1 and k=m but differ in between. For each witness this
prints their total-variation distance, both measured PE levels, and both
exhaustively measured privacy levels.

Usage:
    python scripts/sequential_divergence.py --eps 1
"""

import argparse

from dpabc import (
    Axiom,
    InvalidParametersError,
    dp_level,
    exp_av_distribution,
    make_rule,
    measure_levels,
    sequential_av_distribution,
    total_variation,
    witness,
    WitnessId,
)

# Python puts a script's own directory first on sys.path, so the sibling
# script's budget reader imports from any working directory
from tradeoff_grid import eps_arg


def row(wid, eps):
    inst = witness(wid).inst
    seq = sequential_av_distribution(inst, eps)
    com = exp_av_distribution(inst, eps)
    tv = total_variation(seq, com)
    pe_seq = measure_levels(seq)[Axiom.PE].log_value
    pe_com = measure_levels(com)[Axiom.PE].log_value
    dp_seq = dp_level(make_rule("seq-av", eps), inst).max_log_ratio
    dp_com = dp_level(make_rule("exp-av", eps), inst).max_log_ratio
    return f"{wid.value:<16} {tv:9.6f} {pe_seq:9.4f} {pe_com:9.4f} {dp_seq:9.4f} {dp_com:9.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", default="1", type=eps_arg)
    args = parser.parse_args()
    eps = args.eps
    try:
        # a budget too large for a rule is a usage error, not a traceback
        rows = [row(wid, eps) for wid in WitnessId]
    except InvalidParametersError as exc:
        parser.error(str(exc))

    print(f"eps = {eps}")
    print(f"{'witness':<16} {'tv-dist':>9} {'pe(seq)':>9} {'pe(exp)':>9} "
          f"{'dp(seq)':>9} {'dp(exp)':>9}")
    print(*rows, sep="\n")


if __name__ == "__main__":
    main()
