"""Shared hypothesis strategies and seeded builders for profile/instance
generation, the canonical profile text of an instance, and the seeds past
the ends of the samplers' range."""

from hypothesis import strategies as st

from dpabc import BallotModel, Instance, random_instance

# seeds at and past the ends of the 64-bit range, which the samplers reduce
# mod 2^64
EDGE_SEEDS = (-1, -(2**63), 2**64 - 1, 2**64 + 7, 2**70)


def format_instance(inst: Instance) -> str:
    """Inverse of :func:`parse_instance` (canonical text serialization)."""
    lines = [f"m={inst.m} k={inst.k}"]
    for ballot in inst.ballots:
        lines.append(" ".join(str(a) for a in sorted(ballot)))
    return "\n".join(lines) + "\n"


@st.composite
def instances(draw, min_m=3, max_m=6, max_n=8, max_k=3):
    m = draw(st.integers(min_m, max_m))
    k = draw(st.integers(1, min(max_k, m)))
    n = draw(st.integers(1, max_n))
    ballots = draw(
        st.lists(
            st.frozensets(st.integers(0, m - 1), min_size=1),
            min_size=n,
            max_size=n,
        )
    )
    return Instance(ballots, m, k)


@st.composite
def instances_with_permutation(draw, **kwargs):
    inst = draw(instances(**kwargs))
    sigma = draw(st.permutations(list(range(inst.m))))
    return inst, tuple(sigma)


@st.composite
def symmetric_instances(draw, **kwargs):
    """An instance whose ballot multiset is closed under a relabelling sigma
    of the alternatives, half the time a transposition: the drawn ballots
    followed by their images under each further power of sigma."""
    inst, sigma = draw(instances_with_permutation(**kwargs))
    if draw(st.booleans()):
        a, b = sigma[:2]
        sigma = [b if c == a else a if c == b else c for c in range(inst.m)]
    powers = [inst.ballots]
    while True:
        image = tuple(frozenset(sigma[a] for a in ballot) for ballot in powers[-1])
        if image == inst.ballots:
            return Instance([b for ballots in powers for b in ballots], inst.m, inst.k)
        powers.append(image)


def grouped_instance(m, n, k, p, groups, seed):
    """A seeded profile whose ballot types carry several voters: the voters
    are split into ``min(groups, n)`` near-equal contiguous blocks, and block
    ``g`` shares the ``g``-th impartial ballot drawn with approval
    probability ``p`` from ``seed``."""
    groups = min(groups, n)
    shared = random_instance(m, groups, k, BallotModel("impartial", p), seed).ballots
    return Instance([shared[j * groups // n] for j in range(n)], m, k)
