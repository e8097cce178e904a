"""Translate-row gathers that span several blocks.

Every translate-row gather goes through kernels.translate_rows, whose blocks
hold at most kernels._CHUNK_CELLS cells.  At the default bound no zoo group
splits a gather, so these tests shrink the bound to three rows per block and
check the kernels and their callers against plain-loop oracles and against
the results at the default bound.
"""

from __future__ import annotations

from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ablab import (
    GroupSet,
    covering_number,
    croot_sisask,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    product,
    symmetric_group,
    vc_dimension,
)
from ablab import kernels

from conftest import brute_power, brute_product, levelwise_vc_dimension, random_nonempty, rng

ZOO = {
    "cyclic:12": cyclic_group(12),
    "ea:2^4": elementary_abelian_group(2, 4),
    "dihedral:6": dihedral_group(6),
    "sym:4": symmetric_group(4),
}
ROWS_PER_BLOCK = 3


def small_blocks(g, rows: int = ROWS_PER_BLOCK):
    """Bound every translate-row gather over g to `rows` rows per block."""
    return mock.patch.object(kernels, "_CHUNK_CELLS", rows * g.order)


def brute_diff_counts(g, members: set[int], side: str) -> list[int]:
    out = []
    for t in range(g.order):
        if side == "left":
            moved = {g.mul(t, a) for a in members}
        else:
            moved = {g.mul(a, t) for a in members}
        out.append(len(moved ^ members))
    return out


@pytest.fixture(params=sorted(ZOO))
def g(request):
    return ZOO[request.param]


class TestTranslateRows:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_rows_are_translates_in_several_blocks(self, g, side):
        a = random_nonempty(g, rng(f"rows-{g.label}-{side}"), F(1, 2))
        members = set(a)
        elems = np.arange(g.order)
        with small_blocks(g):
            blocks = list(kernels.translate_rows(g, a.bools, elems, side))
        assert len(blocks) == -(-g.order // ROWS_PER_BLOCK)
        assert all(len(block) <= ROWS_PER_BLOCK for block, _ in blocks)
        assert np.array_equal(np.concatenate([b for b, _ in blocks]), elems)
        for block, rows in blocks:
            for t, row in zip(block, rows):
                t = int(t)
                if side == "left":
                    want = {g.mul(t, s) for s in members}
                else:
                    want = {g.mul(s, t) for s in members}
                assert set(np.flatnonzero(row).tolist()) == want


class TestSmallBlocks:
    def test_product_matches_brute_product(self, g):
        # Both operands above one block, and products short of the group.
        r = rng(f"product-{g.label}")
        for _ in range(12):
            x = GroupSet.from_indices(g, r.sample(range(g.order), r.randint(4, 5)))
            y = GroupSet.from_indices(g, r.sample(range(g.order), r.randint(4, 6)))
            default = product(x, y)
            with small_blocks(g):
                small = product(x, y)
            assert small == default
            assert set(small) == brute_product(g, set(x), set(y))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_translate_diff_counts_match_a_plain_loop(self, g, side):
        r = rng(f"diff-{g.label}-{side}")
        for _ in range(6):
            a = random_nonempty(g, r, F(1, 2))
            default = kernels.translate_diff_counts(g, a.mask, side)
            with small_blocks(g):
                small = kernels.translate_diff_counts(g, a.mask, side)
            assert np.array_equal(small, default)
            assert small.tolist() == brute_diff_counts(g, set(a), side)

    def test_covering_number(self, g):
        r = rng(f"cover-{g.label}")
        for _ in range(6):
            x = random_nonempty(g, r, F(1, 2))
            y = random_nonempty(g, r, F(1, 3))
            pool = GroupSet.full(g)
            for exact in (False, True):
                default = covering_number(x, y, pool, exact=exact)
                with small_blocks(g):
                    assert covering_number(x, y, pool, exact=exact) == default

    def test_vc_dimension(self, g):
        r = rng(f"vc-{g.label}")
        for _ in range(6):
            a = random_nonempty(g, r, F(1, 2))
            default = vc_dimension(a, cap=4)
            with small_blocks(g):
                small = vc_dimension(a, cap=4)
            assert small == default == levelwise_vc_dimension(a, 4)

    @pytest.mark.parametrize("mode", ["alternation", "tripling"])
    def test_croot_sisask_trace(self, g, mode):
        r = rng(f"cs-{g.label}-{mode}")
        for _ in range(2):
            x = random_nonempty(g, r, F(1, 3))
            seed = r.randint(0, 1 << 30)
            default = croot_sisask(x, mode, 2, rng=rng("cs", seed))
            with small_blocks(g):
                y, trace = croot_sisask(x, mode, 2, rng=rng("cs", seed))
            assert (y, trace) == default
            assert brute_power(g, set(y), 2) <= set(trace.w)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(sorted(ZOO)),
    rows=st.integers(1, 4),
    data=st.data(),
)
def test_small_block_products_and_counts_match_brute_force(label, rows, data):
    g = ZOO[label]
    subset = st.integers(0, (1 << g.order) - 1)
    x = GroupSet(g, data.draw(subset))
    y = GroupSet(g, data.draw(subset))
    with small_blocks(g, rows):
        xy = product(x, y)
        left = kernels.translate_diff_counts(g, x.mask, "left")
        right = kernels.translate_diff_counts(g, x.mask, "right")
    assert set(xy) == brute_product(g, set(x), set(y))
    assert left.tolist() == brute_diff_counts(g, set(x), "left")
    assert right.tolist() == brute_diff_counts(g, set(x), "right")
