"""Translate-row gathers that span several blocks, and the right-hand
operations read from them.

Every translate-row gather goes through kernels.translate_rows, whose blocks
hold at most kernels._CHUNK_CELLS cells.  At the default bound no zoo group
splits a gather, so these tests shrink the bound to three rows per block and
check the kernels and their callers against plain-loop oracles and against
the results at the default bound.  kernels.translate_words packs a set's
whole translate family from those blocks; its rows, padding and the
translate_diff_counts read from it are also checked on sym:5 and cyclic:13,
whose rows are not one partly padded word.

translate_rows gathers left translates gS only.  Every right-hand operation
is a left-hand one conjugated by inversion, Sg = (g^-1 S^-1)^-1: products
XY with |X| > |Y|, right stabilizers, right translates and right cosets.
TestRightHandPaths checks each against a plain loop on abelian and
nonabelian groups.

product_mask answers XY = G when |X| + |Y| > |G| without a gather, and
otherwise gathers the translates xY in blocks that double in size until the
union is G or every translate is in.  TestProductGathers checks it against
brute_product at and around that bound, on sparse-by-dense pairs in both
orders, at the default block bounds and with one-row first blocks and small
translate-row blocks; the work pins count the rows it gathers.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ablab import (
    GroupSet,
    build_group,
    covering_number,
    croot_sisask,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    enumerate_subgroups,
    parse_group_spec,
    product,
    right_translate,
    symmetric_group,
    vc_dimension,
)
from ablab import kernels
from ablab.pipelines import coset_masks
from ablab.sets import inverse
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
# The zoo, in fixture order, and groups whose packed translate rows are not
# one partly padded word: sym:5's 120 bits span two words with a partial last
# one, and cyclic:13 has an odd order.
PACKED_ZOO = {k: ZOO[k] for k in sorted(ZOO)} | {
    "sym:5": symmetric_group(5),
    "cyclic:13": cyclic_group(13),
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
    left from kernels.translate_diff_counts of a fresh translate_words gather
    (not the set's cached one); on the right the least threshold
    t whose right stabilizer, the left one of A^-1, holds x, over every t in
    0..|G|."""
    g = a.group
    if side == "left":
        return kernels.translate_diff_counts(kernels.translate_words(g, a.bools)).tolist()
    counts = [None] * g.order
    for t in range(g.order + 1):
        for x in stabilizer_by_threshold(inverse(a), t):
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

    @pytest.mark.parametrize("g", PACKED_ZOO.values(), ids=PACKED_ZOO)
    def test_words_are_packed_translates(self, g):
        a = random_nonempty(g, rng(f"words-{g.label}"), F(1, 2))
        members = set(a)
        with small_blocks(g):
            words = kernels.translate_words(g, a.bools)
        assert words.dtype == np.uint64 and words.shape == (g.order, -(-g.order // 64))
        assert np.array_equal(words, kernels.translate_words(g, a.bools))
        bits = np.unpackbits(words.view(np.uint8), axis=1)
        assert not bits[:, g.order :].any()
        for t in range(g.order):
            assert set(np.flatnonzero(bits[t]).tolist()) == {g.mul(t, s) for s in members}


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
    @pytest.mark.parametrize("g", PACKED_ZOO.values(), ids=PACKED_ZOO)
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
                # A fresh copy of A, so the gather is not read from a's cache.
                small = vc_dimension(GroupSet(g, a.mask), cap=4)
            assert small == default == levelwise_vc_dimension(a, 4)

    @pytest.mark.parametrize("mode", ["alternation", "tripling"])
    def test_croot_sisask_trace(self, g, mode):
        r = rng(f"cs-{g.label}-{mode}")
        for _ in range(2):
            x = random_nonempty(g, r, F(1, 3))
            r.randint(0, 1 << 30)  # a spare draw: it fixes which second x is tested
            default = croot_sisask(x, mode, 2)
            with small_blocks(g):
                y, trace = croot_sisask(x, mode, 2)
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
                    got = stabilizer_by_threshold(inverse(a), t)
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


PRODUCT_SPECS = [
    "cyclic:12",
    "ea:2^5",
    "dihedral:6",
    "sym:4",
    "alt:5",
    "prod:cyclic:2+sym:3",
    "cyclic:256",
    "ea:2^8",
    "dihedral:64",
]
PRODUCT_ZOO = {spec: build_group(parse_group_spec(spec)) for spec in PRODUCT_SPECS}


def product_blocks(g, first_row: bool, rows: int | None):
    """With first_row, a product's first translate block is one row, so the
    doubling blocks and their early stop run in groups of every order; with
    rows, every translate-row gather is bounded to that many rows per block."""
    stack = ExitStack()
    if first_row:
        stack.enter_context(mock.patch.object(kernels, "_FIRST_BLOCK_CELLS", g.order))
    if rows:
        stack.enter_context(small_blocks(g, rows))
    return stack


def avoiding(g, ys, z) -> list[int]:
    """The elements outside zY^-1: a set X drawn from them has z outside XY."""
    avoid = {g.mul(z, g.invert(y)) for y in ys}
    return [e for e in range(g.order) if e not in avoid]


def product_cases(g, label: str):
    """Pairs (X, Y) with |X| + |Y| from |G| - 2 to |G| + 1, random or with X
    outside some zY^-1, and sparse-by-dense pairs; each in both orders."""
    r = rng(label)
    n = g.order
    pairs = []
    for total in range(n - 2, n + 2):
        for _ in range(3):
            ky = r.randint(max(1, total - n), min(n, total - 1))
            ys = r.sample(range(n), ky)
            pairs.append((r.sample(range(n), total - ky), ys))
            if total <= n:
                pairs.append((r.sample(avoiding(g, ys, r.randint(0, n - 1)), total - ky), ys))
    for _ in range(4):
        ys = r.sample(range(n), r.randint(n // 2, n - 4))
        pairs.append((r.sample(range(n), r.randint(1, 3)), ys))
        pairs.append((r.sample(avoiding(g, ys, r.randint(0, n - 1)), r.randint(1, 3)), ys))
    for xs, ys in pairs:
        yield xs, ys
        yield ys, xs


class TestProductGathers:
    @pytest.mark.parametrize("spec", PRODUCT_SPECS)
    @pytest.mark.parametrize("first_row", [False, True])
    @pytest.mark.parametrize("rows", [None, ROWS_PER_BLOCK])
    def test_product_matches_brute_product(self, spec, first_row, rows):
        g = PRODUCT_ZOO[spec]
        for xs, ys in product_cases(g, f"gathers-{spec}"):
            x, y = GroupSet.from_indices(g, xs), GroupSet.from_indices(g, ys)
            with product_blocks(g, first_row, rows):
                got = product(x, y)
            assert set(got) == brute_product(g, xs, ys)


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(PRODUCT_SPECS),
    first_row=st.booleans(),
    rows=st.sampled_from([None, 1, 2, 3, 4]),
    data=st.data(),
)
def test_products_of_drawn_densities_match_brute_force(spec, first_row, rows, data):
    # Drawn sizes, not uniform masks: a uniform mask is dense with |X| + |Y|
    # near |G|, and almost never sparse or just short of the pigeonhole bound.
    g = PRODUCT_ZOO[spec]
    n = g.order
    shuffle = data.draw(st.randoms(use_true_random=False))
    ky = data.draw(st.integers(0, n))
    near = st.integers(max(0, n - ky - 2), min(n, n - ky + 1))
    kx = data.draw(st.one_of(st.integers(0, n), near))
    ys = shuffle.sample(range(n), ky)
    pool = range(n)
    if 0 < ky and kx <= n - ky and data.draw(st.booleans()):
        pool = avoiding(g, ys, shuffle.randrange(n))
    xs = shuffle.sample(pool, kx)
    x, y = GroupSet.from_indices(g, xs), GroupSet.from_indices(g, ys)
    with product_blocks(g, first_row, rows):
        xy, yx = product(x, y), product(y, x)
    assert set(xy) == brute_product(g, xs, ys)
    assert set(yx) == brute_product(g, ys, xs)


@contextmanager
def counting_rows():
    """Count the translate rows that every kernels.translate_rows call
    yields."""
    counted = [0]
    original = kernels.translate_rows

    def wrapper(group, bits, elems):
        for block, rows in original(group, bits, elems):
            counted[0] += len(block)
            yield block, rows

    with mock.patch.object(kernels, "translate_rows", wrapper):
        yield counted


class TestProductWork:
    @pytest.mark.parametrize("spec", PRODUCT_SPECS)
    def test_pigeonhole_gathers_no_row(self, spec):
        g = PRODUCT_ZOO[spec]
        n = g.order
        r = rng(f"pigeonhole-{spec}")
        for total in (n + 1, n + 2, 2 * n):
            ky = r.randint(total - n, n)
            x = GroupSet.from_indices(g, r.sample(range(n), total - ky))
            y = GroupSet.from_indices(g, r.sample(range(n), ky))
            with counting_rows() as counted:
                assert product(x, y) == product(y, x) == GroupSet.full(g)
            assert counted == [0]

    @pytest.mark.parametrize("spec", ["ea:2^12", "cyclic:4096"])
    def test_dense_product_filling_the_group(self, spec):
        # |X| + |Y| = |G|, so the pigeonhole bound does not apply; the
        # primal gather alone would take 2048 rows.
        g = build_group(parse_group_spec(spec))
        n = g.order
        r = rng(f"dense-{spec}")
        xs, ys = r.sample(range(n), n // 2), r.sample(range(n), n // 2)
        assert np.unique(g.mult[np.ix_(xs, ys)]).size == n
        x, y = GroupSet.from_indices(g, xs), GroupSet.from_indices(g, ys)
        with counting_rows() as counted:
            assert product(x, y) == GroupSet.full(g)
        assert counted[0] <= 64

    def test_index_two_subgroup(self):
        # HH = H: the union never reaches G, so every translate of H is
        # gathered.
        g = build_group(parse_group_spec("ea:2^10"))
        h = GroupSet(g, g.closure(sum(1 << (1 << i) for i in range(9))))
        assert h.card == 512
        with counting_rows() as counted:
            assert product(h, h) == h
        assert counted[0] <= 2 * h.card

    @pytest.mark.parametrize("spec", ["cyclic:256", "ea:2^8", "dihedral:64", "alt:5"])
    def test_sparse_product_gathers_the_smaller_operand(self, spec):
        g = PRODUCT_ZOO[spec]
        n = g.order
        r = rng(f"sparse-{spec}")
        for kx in (1, 2, 5):
            ky = (n - 1) // kx
            x = GroupSet.from_indices(g, r.sample(range(n), kx))
            y = GroupSet.from_indices(g, r.sample(range(n), ky))
            for a, b in ((x, y), (y, x)):
                with counting_rows() as counted:
                    got = product(a, b)
                assert set(got) == brute_product(g, set(a), set(b))
                assert counted == [kx]


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
        left = kernels.translate_diff_counts(kernels.translate_words(g, x.bools))
        right = stabilizer_by_threshold(inverse(x), t)
        xe = right_translate(x, e)
    assert set(xy) == brute_product(g, set(x), set(y))
    assert set(yx) == brute_product(g, set(y), set(x))
    assert left.tolist() == brute_diff_counts(g, set(x), "left")
    assert set(right) == brute_stabilizer(g, x, t, "right")
    assert set(xe) == {g.mul(s, e) for s in x}
