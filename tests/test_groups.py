import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ablab.groups
from ablab import (
    FeasibilityError,
    GroupConstructionError,
    GroupSet,
    SizeBudgetError,
    abelianization,
    alternating_group,
    build_group,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    elementary_abelian_group,
    enumerate_subgroups,
    exponent,
    group_from_cayley_file,
    normal_core,
    parse_group_spec,
    subgroup_from_indices,
    symmetric_group,
)
from ablab.groups import Group, GroupSpec, _index_dtype, core_within

from conftest import (
    brute_associative,
    brute_closure,
    brute_normal_core,
    random_loop,
    random_nonempty,
    rng,
)


def brute_element_order(g, x):
    k, p = 1, x
    while p != 0:
        p = g.mul(p, x)
        k += 1
    return k


class TestBuilders:
    def test_cyclic(self):
        g = cyclic_group(8)
        assert g.order == 8 and exponent(g) == 8

    def test_elementary_abelian(self):
        g = elementary_abelian_group(2, 4)
        assert g.order == 16 and exponent(g) == 2

    def test_dihedral_exponent_by_brute_force(self, d4):
        orders = {brute_element_order(d4, x) for x in range(d4.order)}
        assert d4.order == 8
        assert exponent(d4) == math.lcm(*orders) == 4

    def test_symmetric_exponent(self, s4):
        orders = [brute_element_order(s4, x) for x in range(s4.order)]
        assert exponent(s4) == math.lcm(*orders) == 12

    def test_product(self):
        g = direct_product_group([cyclic_group(2), cyclic_group(4)])
        assert g.order == 8 and exponent(g) == 4

    def test_budget(self):
        with pytest.raises(SizeBudgetError):
            cyclic_group(5000)
        with pytest.raises(SizeBudgetError):
            build_group(parse_group_spec("ea:2^13"))
        with pytest.raises(SizeBudgetError):
            build_group(parse_group_spec("ea:3^100000000"))
        with pytest.raises(SizeBudgetError):
            build_group(parse_group_spec(f"ea:{2**1100 + 1}^1"))

    def test_equal_groups_hash_equal(self):
        from ablab.groups import Group

        g = cyclic_group(6)
        relabelled = Group(g.mult, "other")
        assert relabelled == g
        assert hash(relabelled) == hash(g)
        assert relabelled in {g}

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 25, 49, 121, 169])
    def test_elementary_abelian_needs_a_prime(self, p):
        with pytest.raises(GroupConstructionError, match="must be prime"):
            elementary_abelian_group(p, 1)

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ("cyclic:12", "5b00f190ce9c52299ffb6c5fb6331791"),
            ("sym:4", "f580b2a91fee2ae8f6d599671cd17159"),
            ("ea:2^4", "0be7fc17194519564f5ecf9f3dbdcb1a"),
        ],
    )
    def test_signature_digests_are_pinned(self, spec, digest, monkeypatch):
        # Hashed a block of rows at a time; the digest must not depend on
        # the block size, nor on a short last block.
        assert build_group(parse_group_spec(spec)).signature == digest
        monkeypatch.setattr(ablab.groups, "_SIGNATURE_BLOCK_CELLS", 100)
        assert build_group(parse_group_spec(spec)).signature == digest

    def test_signature_of_order_4096_peaks_below_8_mb(self):
        g = cyclic_group(4096)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            g.signature
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_identity_is_zero_everywhere(self, small_zoo):
        for g in small_zoo:
            assert g.mul(0, 3 % g.order) == 3 % g.order
            assert g.invert(0) == 0

    def test_invalid_table_rejected(self):
        from ablab.groups import Group

        bad = [[0, 1], [1, 1]]  # second row not a permutation
        with pytest.raises(GroupConstructionError):
            Group(np.asarray(bad), "bad")
        with pytest.raises(GroupConstructionError):
            build_group(GroupSpec("cayley", ("/nonexistent",)))

    def test_nonassociative_table_rejected(self):
        # Latin square with two-sided identity that is not a group (n=5):
        # rows form a quasigroup built from a non-associative loop.
        t = np.array(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
        from ablab.groups import Group

        with pytest.raises(GroupConstructionError):
            Group(t, "loop5")


class TestBuilderTables:
    """Each builder forms its table in the index dtype: the table equals the
    plain formula, and no n x n int64 intermediate is ever allocated."""

    @pytest.mark.parametrize("n", [1, 2, 7, 4096])
    def test_cyclic(self, n):
        g = cyclic_group(n)
        assert g.mult.dtype == _index_dtype(n)
        r = np.arange(n)
        for i in range(0, n, 256):  # row blocks keep the int64 oracle small
            rows = np.arange(i, min(i + 256, n))
            assert np.array_equal(g.mult[rows], (rows[:, None] + r[None, :]) % n)

    @pytest.mark.parametrize("p, k", [(2, 5), (3, 1), (3, 3), (5, 2)])
    def test_elementary_abelian(self, p, k):
        g = elementary_abelian_group(p, k)
        n = p**k

        def add(x, y):
            return sum((x // p**i + y // p**i) % p * p**i for i in range(k))

        assert g.mult.dtype == _index_dtype(n)
        assert g.mult.tolist() == [[add(x, y) for y in range(n)] for x in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 2048])
    def test_dihedral(self, n):
        """Index e n + i is s^e r^i, and s^e r^i s^f r^j = s^(e+f) r^(j +- i)."""
        g = dihedral_group(n)
        assert g.mult.dtype == _index_dtype(2 * n)
        e, i = np.divmod(np.arange(2 * n), n)
        for lo in range(0, 2 * n, 256):  # row blocks keep the int64 oracle small
            x = slice(lo, lo + 256)
            want = (e[x, None] ^ e[None, :]) * n + (i[x, None] * (1 - 2 * e[None, :]) + i) % n
            assert np.array_equal(g.mult[x], want)

    def test_direct_product(self, d6):
        c4 = cyclic_group(4)
        g = direct_product_group([c4, d6])
        n2 = d6.order
        want = [
            [c4.mul(x // n2, y // n2) * n2 + d6.mul(x % n2, y % n2) for y in range(g.order)]
            for x in range(g.order)
        ]
        assert g.mult.dtype == _index_dtype(g.order)
        assert g.mult.tolist() == want

    @pytest.mark.parametrize("spec", ["cyclic:4096", "ea:2^12"])
    def test_order_4096_builds_peak_below_160_mb(self, spec):
        # The table itself is 32 MB; int64 intermediates took 240-256 MB.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            g = build_group(parse_group_spec(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.order == 4096
        assert peak < 160 * 2**20

    @staticmethod
    def _build_peak(spec):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            g = build_group(parse_group_spec(spec))
            return g, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("spec", ["cyclic:4096", "ea:2^12"])
    def test_order_4096_builds_peak_below_table_plus_8_mb(self, spec):
        # No n x n temporary: the bool table of the old inverse search was 16 MB.
        g, peak = self._build_peak(spec)
        assert peak < g.mult.nbytes + 8 * 2**20

    @pytest.mark.parametrize("spec", ["dihedral:2048", "ea:3^7"])
    def test_formed_builds_peak_below_two_and_a_half_tables(self, spec):
        # Their int64 broadcasts peaked at 304 MB and 105 MB.
        g, peak = self._build_peak(spec)
        assert peak <= 2.5 * g.mult.nbytes


@st.composite
def identity_tables(draw):
    """A table of order <= 5 with 0 as a two-sided identity, other cells free."""
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    return [list(range(n))] + [
        [x] + draw(st.lists(cell, min_size=n - 1, max_size=n - 1)) for x in range(1, n)
    ]


class TestInverseCheck:
    """Inverses are read from the first 0 of each row; a second 0 in a row is
    left to the associativity proof."""

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 1, 2], [1, 2, 1], [2, 0, 1]], r"no \(or multiple\) inverses"),
            ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "not two-sided"),
            ([[0, 1, 2], [1, 0, 0], [2, 0, 1]], "associativity"),
        ],
        ids=["no-zero", "one-sided-first-zero", "second-zero"],
    )
    def test_pinned_table_is_refused(self, table, message):
        with pytest.raises(GroupConstructionError, match=message):
            Group(np.array(table), "t")

    @settings(max_examples=300, deadline=None)
    @given(t=identity_tables())
    @example(t=[[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    @example(t=[[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    @example(t=[[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    def test_accepts_exactly_the_group_tables(self, t):
        n = len(t)
        inverses = all(any(t[x][y] == 0 == t[y][x] for y in range(n)) for x in range(n))
        if brute_associative(t) and inverses:
            g = Group(np.array(t), "t")
            assert all(t[x][int(g.inv[x])] == 0 for x in range(n))
        else:
            with pytest.raises(GroupConstructionError):
                Group(np.array(t), "t")


class TestSubgroupFromIndices:
    @pytest.mark.parametrize("bad", [[0, 99], [-1], [0, 8]])
    def test_out_of_range_index_is_rejected_like_group_sets(self, c8, bad):
        with pytest.raises(ValueError, match="out of range for cyclic") as info:
            subgroup_from_indices(c8, bad)
        with pytest.raises(ValueError) as set_info:
            GroupSet.from_indices(c8, bad)
        assert str(info.value) == str(set_info.value)


# A loop of order 6 whose walk and rows pass: only generator commutation,
# check (c) of the table validator, refuses it.  Found by listing the 1,808
# reduced Latin squares of order 6 with two-sided inverses; 38 of them are
# refused by (c) alone.
COMMUTATION_ONLY_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 4, 5, 2],
    [2, 3, 4, 5, 0, 1],
    [3, 4, 5, 2, 1, 0],
    [4, 5, 0, 1, 2, 3],
    [5, 2, 1, 0, 3, 4],
]
LOOP_SPECS = ["ea:2^4", "cyclic:12", "dihedral:6", "sym:4", "dihedral:8", "prod:cyclic:2+sym:3"]


class TestAssociativityCheck:
    """The table validator's associativity proof against a plain triple loop."""

    def test_zoo_tables_are_associative(self, small_zoo, d4):
        for g in small_zoo + [d4, alternating_group(4), cyclic_group(15)]:
            assert brute_associative(g.mult)
            Group(g.mult, "copy")  # validates without raising

    @pytest.mark.parametrize("spec", LOOP_SPECS)
    def test_random_loops_match_the_triple_loop(self, spec):
        g = build_group(parse_group_spec(spec))
        r = rng(f"loops-{spec}")
        broken = 0
        for trial in range(15):
            t = random_loop(g, r, swaps=1 + trial % 3)
            if brute_associative(t):
                Group(t, "loop")
            else:
                broken += 1
                with pytest.raises(GroupConstructionError, match="associativity"):
                    Group(t, "loop")
        assert broken >= 10  # the loops do exercise the failing branch

    @pytest.mark.parametrize("cells", [1, 40])
    def test_row_blocks_keep_the_check_exact(self, monkeypatch, cells):
        # One row per block, or blocks of 2 and 3 rows that leave a tail.
        monkeypatch.setattr(ablab.groups, "_TABLE_CHECK_CELLS", cells)
        for spec in ("ea:2^4", "dihedral:6"):
            g = build_group(parse_group_spec(spec))
            Group(g.mult, "copy")
            r = rng(f"loop-blocks-{spec}-{cells}")
            broken = 0
            for trial in range(12):
                t = random_loop(g, r, swaps=1 + trial % 3)
                if brute_associative(t):
                    Group(t, "loop")
                else:
                    broken += 1
                    with pytest.raises(GroupConstructionError, match="associativity"):
                        Group(t, "loop")
            assert broken >= 8

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(LOOP_SPECS),
        seed=st.integers(0, 2**16),
        swaps=st.integers(1, 4),
    )
    def test_loops_are_refused_iff_the_triple_loop_fails(self, spec, seed, swaps):
        g = build_group(parse_group_spec(spec))
        t = random_loop(g, rng(f"loop-property-{seed}"), swaps=swaps)
        if brute_associative(t):
            Group(t, "loop")
        else:
            with pytest.raises(GroupConstructionError, match="associativity"):
                Group(t, "loop")

    @pytest.mark.parametrize(
        "table, check",
        [
            # (a) alone: the walk and the commutation pass.
            (lambda: random_loop(symmetric_group(4), rng("pin-rows-0"), swaps=1), "is not row"),
            # (b): a coset meets an element already reached.
            (lambda: random_loop(symmetric_group(4), rng("pin-cosets-2"), swaps=1), "twice"),
            # (c) alone: every row passes.
            (lambda: np.array(COMMUTATION_ONLY_LOOP), r"s\(wt\) != \(sw\)t"),
        ],
        ids=["rows", "cosets", "commutation"],
    )
    def test_each_check_refuses_its_pinned_loop(self, table, check):
        t = table()
        assert not brute_associative(t)
        with pytest.raises(GroupConstructionError, match=f"associativity fails.*{check}"):
            Group(t, "loop")

    def test_commutation_only_loop_cayley_file_exits_2(self, tmp_path, capsys):
        from ablab.cli import main

        path = tmp_path / "loop.cayley"
        rows = [" ".join(map(str, row)) for row in COMMUTATION_ONLY_LOOP]
        path.write_text("\n".join(["6"] + rows) + "\n")
        assert main(["group", "--group", f"cayley:{path}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "associativity" in err

    def test_random_loop_without_a_free_intercalate_raises(self):
        with pytest.raises(ValueError, match="0 of 1 swaps"):
            random_loop(cyclic_group(4), rng("x"), swaps=1)

    def test_ea_2_12_compares_each_row_once(self, monkeypatch):
        """n - 1 rows plus |S|^2 n commutation cells, for the 12 generators."""
        cells = []
        same = ablab.groups._same
        monkeypatch.setattr(
            ablab.groups, "_same", lambda a, b: cells.append(a.size) or same(a, b)
        )
        n = build_group(parse_group_spec("ea:2^12")).order
        assert sum(cells) == (n - 1) * n + 12**2 * n


class TestExactCheckAboveOrder512:
    """The table check stays exact on orders that were once sampled."""

    @staticmethod
    def _swapped_loop(spec):
        g = build_group(parse_group_spec(spec))
        t = random_loop(g, rng(f"big-loop-{spec}"), swaps=1)
        return g, t

    @staticmethod
    def _fails_through_swapped_cells(g, t) -> bool:
        """Some (xy)z != x(yz) with (x, y) or (y, z) a swapped cell, by plain
        element loops."""
        rows = [list(map(int, row)) for row in t]
        cells = [tuple(map(int, c)) for c in np.argwhere(t != g.mult)]
        triples = [(a, b, w) for a, b in cells for w in range(g.order)]
        triples += [(w, a, b) for a, b in cells for w in range(g.order)]
        return any(rows[rows[x][y]][z] != rows[x][rows[y][z]] for x, y, z in triples)

    @pytest.mark.parametrize("spec", ["ea:2^10", "cyclic:1024", "dihedral:512"])
    def test_one_swap_loop_is_rejected(self, spec):
        g, t = self._swapped_loop(spec)
        assert self._fails_through_swapped_cells(g, t)
        with pytest.raises(GroupConstructionError, match="associativity"):
            Group(t, "loop")

    def test_one_swap_loop_cayley_file_exits_2(self, tmp_path, capsys):
        from ablab.cli import main

        _, t = self._swapped_loop("ea:2^10")
        path = tmp_path / "loop.cayley"
        lines = [str(len(t))] + [" ".join(map(str, row)) for row in t.tolist()]
        path.write_text("\n".join(lines) + "\n")
        assert main(["group", "--group", f"cayley:{path}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "associativity" in err

    def test_subgroup_and_quotient_tables_are_checked(self, monkeypatch):
        import ablab.groups as groups_mod

        calls = []
        check = groups_mod._validate_table
        monkeypatch.setattr(
            groups_mod, "_validate_table", lambda g: calls.append(g.order) or check(g)
        )
        g = cyclic_group(2048)
        evens = subgroup_from_indices(g, range(0, 2048, 2))
        # H/{1} is H's own table, built on its members and proven a group.
        groups_mod.quotient_by(evens, 1)
        groups_mod.quotient_by(g, evens.mask)
        groups_mod.quotient_by(g, subgroup_from_indices(g, [0, 1024]).mask)
        assert calls == [2048, 1024, 2, 1024]

    def test_characters_of_an_abelian_whole_group_build_no_table(self, monkeypatch):
        # G/[G,G] is G itself when G is abelian, so no table is checked
        # after G is built.
        import ablab.groups as groups_mod
        from ablab import characters

        g = cyclic_group(2048)
        calls = []
        monkeypatch.setattr(groups_mod, "_validate_table", lambda g: calls.append(g.order))
        assert characters(g).dim == 2048
        assert calls == []


class TestInvariants:
    def test_exponent_divides_order_and_annihilates(self, small_zoo):
        for g in small_zoo:
            r = exponent(g)
            assert g.order % r == 0
            assert all(g.pow_elem(x, r) == 0 for x in range(g.order))

    def test_mult_rows_and_columns_are_permutations(self, small_zoo):
        for g in small_zoo:
            n = g.order
            assert np.all(np.sort(g.mult, axis=1) == np.arange(n))
            assert np.all(np.sort(g.mult, axis=0) == np.arange(n)[:, None])

    def test_associativity_spot_checks(self, small_zoo):
        r = rng("assoc")
        for g in small_zoo:
            for _ in range(200):
                x, y, z = (r.randint(0, g.order - 1) for _ in range(3))
                assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


class TestCayleyFile:
    def test_round_trip(self, tmp_path, d6):
        path = tmp_path / "d6.cayley"
        lines = [str(d6.order)] + [
            " ".join(str(int(v)) for v in row) for row in d6.mult
        ]
        path.write_text("\n".join(lines) + "\n")
        g = group_from_cayley_file(path)
        assert g.order == d6.order and g.signature == d6.signature

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.cayley"
        path.write_text("3\n0 1 2\n1 2 0\n")
        with pytest.raises(GroupConstructionError):
            group_from_cayley_file(path)

    def test_identity_must_be_zero(self, tmp_path):
        path = tmp_path / "shift.cayley"
        # cyclic(3) with elements relabeled so index 0 is not the identity
        path.write_text("3\n2 0 1\n0 1 2\n1 2 0\n")
        with pytest.raises(GroupConstructionError):
            group_from_cayley_file(path)


class TestAbelianization:
    def test_abelian_group_is_its_own(self, c12):
        q, proj = abelianization(c12)
        assert q.order == c12.order
        assert sorted(set(int(p) for p in proj)) == list(range(12))

    def test_s3_has_order_two(self, s3):
        q, proj = abelianization(s3)
        assert q.order == 2
        for x in range(6):
            for y in range(6):
                assert proj[s3.mul(x, y)] == q.mul(int(proj[x]), int(proj[y]))

    def test_a5_is_perfect(self):
        from ablab import alternating_group

        q, _ = abelianization(alternating_group(5))
        assert q.order == 1


class TestSubgroupEnumeration:
    @pytest.mark.parametrize("n", [6, 8, 12, 30])
    def test_cyclic_counts_match_divisors(self, n):
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(enumerate_subgroups(cyclic_group(n))) == divisors

    def test_ea22_has_five(self):
        assert len(enumerate_subgroups(elementary_abelian_group(2, 2))) == 5

    def test_s3_exhaustive_cross_check(self, s3):
        subs = enumerate_subgroups(s3)
        naive = {brute_closure(s3, list(h.members)) for h in subs}
        assert len(subs) == 6
        # every enumerated subgroup is closed, and the closure adds nothing
        for h in subs:
            assert brute_closure(s3, list(h.members)) == frozenset(h.members)
        assert len(naive) == 6

    def test_every_subgroup_verifies(self, d6):
        for h in enumerate_subgroups(d6):
            members = list(h.members)
            assert 0 in members
            assert brute_closure(d6, members) == frozenset(members)
            assert d6.order == h.order * h.index

    def test_unbounded_guard(self):
        g = elementary_abelian_group(2, 10)
        with pytest.raises(FeasibilityError):
            enumerate_subgroups(g)

    def test_max_index_filter(self, s4):
        subs = enumerate_subgroups(s4, max_index=4)
        assert all(h.index <= 4 for h in subs)
        assert any(h.index == 2 for h in subs)  # A4 inside S4


class TestNormalCore:
    def test_normal_subgroup_is_its_own_core(self, c12):
        h = subgroup_from_indices(c12, [0, 4, 8])
        assert normal_core(c12, h).mask == h.mask

    def test_s3_two_element_subgroup_has_trivial_core(self, s3):
        two = [h for h in enumerate_subgroups(s3) if h.order == 2][0]
        assert normal_core(s3, two).order == 1

    def test_whole_group(self, d6):
        assert normal_core(d6, d6.whole_subgroup()).order == d6.order

    def test_core_contains_all_enumerated_normals_inside(self, d6):
        subs = enumerate_subgroups(d6)
        for h in subs:
            core = normal_core(d6, h)
            assert core.is_normal
            assert not core.mask & ~h.mask
            for k in subs:
                if k.is_normal and not k.mask & ~h.mask:
                    assert not k.mask & ~core.mask

    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:6", "alt:4"])
    def test_cores_match_plain_loop(self, spec):
        g = build_group(parse_group_spec(spec))
        subs = enumerate_subgroups(g)
        for h in subs:
            hset = set(h.members)
            core = brute_normal_core(g, hset, range(g.order))
            assert set(normal_core(g, h).members) == core
            assert h.is_normal == (core == hset)
            for sigma in subs:
                if not h.mask & ~sigma.mask:
                    expect = brute_normal_core(g, hset, sigma.members)
                    assert set(core_within(h, sigma).members) == expect

    def test_core_index_reported_not_assumed(self, s4):
        h = [x for x in enumerate_subgroups(s4) if x.order == 4][0]
        core = normal_core(s4, h)
        assert core.order in (1, 2, 4)


class TestConcurrencySafety:
    def test_lazy_caches_are_idempotent(self, s4):
        import threading

        results = []

        def work():
            results.append((exponent(s4), abelianization(s4)[0].order))

        threads = [threading.Thread(target=work) for _ in range(8)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert len(set(results)) == 1
