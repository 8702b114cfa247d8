"""Shared hypothesis strategies for profile/instance generation."""

from hypothesis import strategies as st

from dpabc import Instance


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
