"""Independent brute-force oracles.

These deliberately re-derive the axiom semantics from the raw definitions by
enumerating every voter subset (and every cohesiveness parameter), with no
shortcuts shared with the package implementation. They are the ground truth
the fast checkers are validated against.
"""

import itertools

from dpabc import Axiom


def brute_satisfies(w, inst, ax):
    """Raw-definition JR/PJR/EJR membership via exhaustive group enumeration."""
    wset = frozenset(w)
    n, k = inst.n, inst.k
    for r in range(1, n + 1):
        for voters in itertools.combinations(range(n), r):
            common = frozenset.intersection(*(inst.ballots[i] for i in voters))
            union = frozenset.union(*(inst.ballots[i] for i in voters))
            for ell in range(1, k + 1):
                if k * r < ell * n or len(common) < ell:
                    continue  # not ell-cohesive
                if ax is Axiom.JR:
                    if ell == 1 and all(not (inst.ballots[i] & wset) for i in voters):
                        return False
                elif ax is Axiom.PJR:
                    if len(wset & union) < ell:
                        return False
                elif ax is Axiom.EJR:
                    if all(len(inst.ballots[i] & wset) < ell for i in voters):
                        return False
    return True


def brute_condorcet(inst):
    """Condorcet committee by direct pairwise tallies over all committees."""
    committees = list(itertools.combinations(range(inst.m), inst.k))

    def beats(w1, w2):
        s1, s2 = frozenset(w1), frozenset(w2)
        wins = sum(1 for b in inst.ballots if len(b & s1) > len(b & s2))
        return wins * 2 > inst.n

    for w in committees:
        if all(w == other or beats(w, other) for other in committees):
            return w
    return None


def brute_longest_chain(inst, start_ok, end_ok):
    """Most dominance arrows on a chain from a ``start_ok`` committee to an
    ``end_ok`` one (-1 if none), by memoised depth-first search over
    ``pareto_dominates`` on every ordered committee pair."""
    from dpabc import pareto_dominates

    committees = list(itertools.combinations(range(inst.m), inst.k))
    memo = {}

    def longest_from(w):
        # arrows on the longest chain from w to an end_ok committee, or None
        if w not in memo:
            best = 0 if end_ok(w) else None
            for lo in committees:
                if pareto_dominates(w, lo, inst.ballots):
                    tail = longest_from(lo)
                    if tail is not None and (best is None or tail + 1 > best):
                        best = tail + 1
            memo[w] = best
        return memo[w]

    lengths = [longest_from(w) for w in committees if start_ok(w)]
    return max((x for x in lengths if x is not None), default=-1)
