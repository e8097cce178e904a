"""SplitRng.subset_mask, which draws a block of four u64 at a time and
compares them in numpy, against the plain bernoulli loop: the same bits,
the same counter and the same leftover pool."""

from __future__ import annotations

import copy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ablab import SplitRng

DENSITIES = [F(0), F(1), F(1, 2), F(1, 3), F(5, 6), F(1, 2**70), F(2**64 - 1, 2**64), F(3, 2)]


def loop_subset_mask(r: SplitRng, n: int, density: F) -> int:
    mask = 0
    for i in range(n):
        if r.bernoulli(density):
            mask |= 1 << i
    return mask


def check(r: SplitRng, n: int, density: F) -> None:
    want, got = copy.deepcopy(r), copy.deepcopy(r)
    assert got.subset_mask(n, density) == loop_subset_mask(want, n, density)
    assert got._counter == want._counter
    assert got._pool == want._pool
    assert all(type(u) is int for u in got._pool)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 13, 64, 257])
@pytest.mark.parametrize("used", [0, 1, 2, 3])
def test_matches_the_bernoulli_loop(n, used):
    for density in DENSITIES:
        r = SplitRng.from_seed(7).derive(f"subset-{n}-{density}")
        for _ in range(used):  # a partly used pool: 4 - used draws, or none
            r.next_u64()
        check(r, n, density)


@pytest.mark.parametrize("density", DENSITIES)
def test_draws_at_the_threshold(density):
    # The draws next to num * 2^64 / den, where a rounded threshold would
    # flip a bit.
    edge = density.numerator * 2**64 // density.denominator
    r = SplitRng.from_seed(5)
    r._pool = [u for u in (edge - 1, edge, edge + 1) if 0 <= u < 2**64]
    check(r, len(r._pool), density)


def test_draws_continue_where_the_mask_stopped():
    r, s = SplitRng.from_seed(3), SplitRng.from_seed(3)
    r.subset_mask(10, F(1, 2))
    loop_subset_mask(s, 10, F(1, 2))
    assert [r.next_u64() for _ in range(6)] == [s.next_u64() for _ in range(6)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    used=st.integers(0, 7),
    n=st.integers(0, 300),
    num=st.integers(0, 40),
    den=st.integers(1, 40),
)
def test_property_matches_the_bernoulli_loop(seed, used, n, num, den):
    r = SplitRng.from_seed(seed)
    for _ in range(used):
        r.next_u64()
    check(r, n, F(num, den))
