#!/usr/bin/env python3
"""Quantify the gap between the two readings of the AV sampler.

The k-round without-replacement sampler and the committee-level exponential
law coincide for k=1 and k=m but differ in between. For each witness this
prints their total-variation distance, both measured PE levels, and (on
small instances) both exhaustively measured privacy levels.

Usage:
    python scripts/sequential_divergence.py --eps 1
"""

import argparse

from dpabc import (
    Axiom,
    dp_level,
    exp_av_distribution,
    make_rule,
    measure_levels,
    sequential_av_distribution,
    total_variation,
    witness,
    WitnessId,
)

DP_AUDIT_MAX_M = 6  # the sequential law makes larger neighborhoods slow


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", default="1")
    args = parser.parse_args()
    eps = args.eps

    print(f"eps = {eps}")
    print(f"{'witness':<16} {'tv-dist':>9} {'pe(seq)':>9} {'pe(exp)':>9} "
          f"{'dp(seq)':>9} {'dp(exp)':>9}")
    for wid in WitnessId:
        inst = witness(wid).inst
        seq = sequential_av_distribution(inst, eps)
        com = exp_av_distribution(inst, eps)
        tv = total_variation(seq, com)
        pe_seq = measure_levels(seq)[Axiom.PE].log_value
        pe_com = measure_levels(com)[Axiom.PE].log_value
        if inst.m <= DP_AUDIT_MAX_M:
            dp_seq = f"{dp_level(make_rule('seq-av', eps), inst).max_log_ratio:9.4f}"
            dp_com = f"{dp_level(make_rule('exp-av', eps), inst).max_log_ratio:9.4f}"
        else:
            dp_seq = dp_com = "  skipped"
        print(f"{wid.value:<16} {tv:9.6f} {pe_seq:9.4f} {pe_com:9.4f} {dp_seq} {dp_com}")


if __name__ == "__main__":
    main()
