"""The committees, neighboring profiles and Pareto dominance sequence that each
witness construction claims, for the tests to check against the exact checkers
and the brute-force oracles. ``dpabc.instances`` builds only the instances;
its builder docstrings describe the same data in prose."""

from dpabc import WitnessId


def tagged(wid, n, k, m):
    """The named committees of witness ``wid`` built at ``(n, k, m)``, each a
    sorted tuple."""
    if wid is WitnessId.JR_UPPER:
        fillers = tuple(range(2, k + 1))
        return {"W": (0,) + fillers, "W_prime": (1,) + fillers}
    if wid is WitnessId.PJR_UPPER:
        return {"W": tuple(range(1, k + 1)), "W_prime": tuple(range(1, k)) + (k + 1,)}
    if wid is WitnessId.EJR_UPPER:
        return {"W": tuple(range(k)), "W_prime": tuple(range(1, k + 1))}
    if wid is WitnessId.PE_CHAIN:
        return dict(_pe_grid(n, k))
    if wid is WitnessId.CC_UPPER:
        shared = tuple(range(2, k + 1))
        return {"W": (0,) + shared, "W_prime": (1,) + shared}
    if wid is WitnessId.JR_PJR_3WAY:
        return {
            "W_0": (0, 3) + tuple(range(5, k + 3)),
            "W_1": (0, 1, 3, 4) + tuple(range(5, k + 1)),
            "W_1_prime": (0, 2, 3, 4) + tuple(range(5, k + 1)),
        }
    if wid is WitnessId.PJR_EJR_3WAY:
        return {
            "W_0": tuple(range(k, 2 * k)),
            "W_1": tuple(range(k)),
            "W_1_prime": tuple(range(k - 1)) + (2 * k,),
        }
    if wid is WitnessId.FIG3_DIVERGENCE:
        return {"W_1": tuple(range(k, 2 * k)), "W_2": tuple(range(k))}
    return {"W_c": tuple(range(k)), "W_minority": tuple(range(k, 2 * k))}


def companion(wid, inst):
    """The profile that witness ``wid``'s base instance ``inst`` is paired
    with, as ``replace_ballot`` edits of ``inst``; None for the constructions
    that use one profile only."""
    n, k = inst.n, inst.k
    if wid is WitnessId.JR_UPPER:  # voter s-1 leaves the {0}-block
        return inst.replace_ballot(-(-n // k) - 1, {1})
    if wid is WitnessId.PJR_UPPER:  # voter 0's extra approval moves to k+1
        return inst.replace_ballot(0, {0, k + 1})
    if wid is WitnessId.CC_UPPER:  # the median voter t changes camp
        return inst.replace_ballot((n - 1) // 2, set(range(1, k + 1)))
    if wid is WitnessId.JR_PJR_3WAY:  # voter s-1 moves from {0,1} to {0,2}
        return inst.replace_ballot(-(-2 * n // k) - 1, {0, 2})
    if wid is WitnessId.EJR_UPPER:
        fresh = {k}
    elif wid is WitnessId.PJR_EJR_3WAY:
        fresh = {k} | set(range(2 * k, 3 * k - 1))
    else:
        return None
    for voter in range(n // k):  # the whole first block gets the fresh ballot
        inst = inst.replace_ballot(voter, fresh)
    return inst


def pe_chain(n, k):
    """``PE_CHAIN``'s n*k + 1 committees in dominance order, each dominating
    the next: W_p_q in row-major order, then the tail block W_{k+1}_1."""
    return tuple(committee for _, committee in _pe_grid(n, k))


def _pe_grid(n, k):
    primary = list(range(k))
    middle = list(range(k, k + n - 1))
    tail = list(range(k + n - 1, k + n - 1 + k))
    for p in range(1, k + 1):
        for q in range(1, n + 1):
            if q == 1:
                members = primary[: k - p + 1] + tail[: p - 1]
            else:
                members = primary[: k - p] + [middle[q - 2]] + tail[: p - 1]
            yield f"W_{p}_{q}", tuple(sorted(members))
    yield f"W_{k + 1}_1", tuple(tail)
