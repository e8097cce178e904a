"""Translate-row gathers that span several blocks, and the right-hand
operations read from them.

Every translate-row gather goes through kernels.translate_rows, whose blocks
hold at most kernels._CHUNK_CELLS cells.  At the default bound no zoo group
splits a gather, so these tests shrink the bound to three rows per block and
check the kernels and their callers against plain-loop oracles and against
the results at the default bound.

translate_rows gathers left translates gS only.  Every right-hand operation
is a left-hand one conjugated by inversion, Sg = (g^-1 S^-1)^-1: products
XY with |X| > |Y|, right stabilizers, right translates and right cosets.
TestRightHandPaths checks each against a plain loop on abelian and
nonabelian groups.
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
    enumerate_subgroups,
    product,
    right_translate,
    symmetric_group,
    vc_dimension,
)
from ablab import kernels
from ablab.pipelines import coset_masks
from ablab.vc import stabilizer_by_threshold

from conftest import (
    brute_power,
    brute_product,
    brute_stabilizer,
    levelwise_vc_dimension,
    random_nonempty,
    rng,
)

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


def diff_counts(a: GroupSet, side: str) -> list[int]:
    """|xA symdiff A| (|Ax symdiff A| when side="right") for every x: on the
    left from kernels.translate_diff_counts; on the right the least threshold
    t whose right stabilizer holds x, over every t in 0..|G|."""
    g = a.group
    if side == "left":
        return kernels.translate_diff_counts(g, a.mask).tolist()
    counts = [None] * g.order
    for t in range(g.order + 1):
        for x in stabilizer_by_threshold(a, t, "right"):
            if counts[x] is None:
                counts[x] = t
    return counts


@pytest.fixture(params=sorted(ZOO))
def g(request):
    return ZOO[request.param]


class TestTranslateRows:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_rows_are_translates_in_several_blocks(self, g, side):
        # Right translates are read as Sg = (g^-1 S^-1)^-1: the rows of S^-1
        # at g^-1, in the unsorted order of g.inv, with each row inverted.
        a = random_nonempty(g, rng(f"rows-{g.label}-{side}"), F(1, 2))
        members = set(a)
        elems = np.arange(g.order)
        bits, at = (a.bools, elems) if side == "left" else (a.bools[g.inv], g.inv)
        with small_blocks(g):
            blocks = list(kernels.translate_rows(g, bits, at))
        assert len(blocks) == -(-g.order // ROWS_PER_BLOCK)
        assert all(len(block) <= ROWS_PER_BLOCK for block, _ in blocks)
        assert np.array_equal(np.concatenate([b for b, _ in blocks]), at)
        for block, rows in blocks:
            for t, row in zip(block, rows):
                t = int(t)
                if side == "left":
                    want = {g.mul(t, s) for s in members}
                else:
                    t, row = g.invert(t), row[g.inv]
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
            default = diff_counts(a, side)
            with small_blocks(g):
                small = diff_counts(a, side)
            assert small == default == brute_diff_counts(g, set(a), side)

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


class TestRightHandPaths:
    def test_product_with_the_larger_left_operand(self, g):
        r = rng(f"product-flip-{g.label}")
        for _ in range(12):
            big = r.randint(5, g.order - 1)
            x = GroupSet.from_indices(g, r.sample(range(g.order), big))
            y = GroupSet.from_indices(g, r.sample(range(g.order), r.randint(1, big - 1)))
            with small_blocks(g):
                assert set(product(x, y)) == brute_product(g, set(x), set(y))

    def test_right_stabilizer_at_every_threshold(self, g):
        r = rng(f"right-stab-{g.label}")
        for density in (F(1, 4), F(1, 2), F(3, 4)):
            a = random_nonempty(g, r, density)
            for t in range(g.order + 1):
                with small_blocks(g):
                    got = stabilizer_by_threshold(a, t, "right")
                assert set(got) == brute_stabilizer(g, a, t, "right")

    def test_right_translate(self, g):
        a = random_nonempty(g, rng(f"right-translate-{g.label}"), F(1, 2))
        for t in range(g.order):
            assert set(right_translate(a, t)) == {g.mul(s, t) for s in a}

    def test_coset_masks(self, g):
        for h in enumerate_subgroups(g):
            members = set(h.element_indices().tolist())
            got = coset_masks(g, h.mask)
            want, covered = [], set()
            for x in range(g.order):
                if x not in covered:
                    coset = {g.mul(k, x) for k in members}
                    covered |= coset
                    want.append((x, coset))
            assert [(x, set(GroupSet(g, m))) for x, m in got] == want


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
    t = data.draw(st.integers(0, g.order))
    e = data.draw(st.integers(0, g.order - 1))
    with small_blocks(g, rows):
        xy, yx = product(x, y), product(y, x)
        left = kernels.translate_diff_counts(g, x.mask)
        right = stabilizer_by_threshold(x, t, "right")
        xe = right_translate(x, e)
    assert set(xy) == brute_product(g, set(x), set(y))
    assert set(yx) == brute_product(g, set(y), set(x))
    assert left.tolist() == brute_diff_counts(g, set(x), "left")
    assert set(right) == brute_stabilizer(g, x, t, "right")
    assert set(xe) == {g.mul(s, e) for s in x}
