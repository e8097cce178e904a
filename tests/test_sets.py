from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ablab import (
    CoverageError,
    EmptySetError,
    GroupMismatchError,
    GroupSet,
    SpecSyntaxError,
    bar_closure,
    covering_number,
    cyclic_group,
    eval_word,
    growth_profile,
    inverse,
    parse_set_spec,
    plunnecke_check,
    power,
    product,
    ruzsa_distance,
    ruzsa_triangle_ok,
    subgroup_from_indices,
)

from conftest import brute_power, brute_product, brute_word, random_nonempty, rng


class TestProduct:
    def test_subgroup_is_idempotent(self, c12):
        h = subgroup_from_indices(c12, [0, 4, 8]).members
        assert product(h, h) == h

    def test_interval_sumset(self, c8):
        a = GroupSet.from_indices(c8, [0, 1, 2])
        assert sorted(product(a, a)) == [0, 1, 2, 3, 4]

    def test_empty_absorbs(self, c8):
        a = GroupSet.from_indices(c8, [0, 1, 2])
        assert product(GroupSet.empty(c8), a).card == 0

    def test_group_mismatch(self, c8, c12):
        with pytest.raises(GroupMismatchError):
            product(GroupSet.full(c8), GroupSet.full(c12))

    def test_against_brute_force(self, small_zoo):
        r = rng("product-oracle")
        for g in small_zoo:
            for _ in range(10):
                x = random_nonempty(g, r)
                y = random_nonempty(g, r)
                assert set(product(x, y)) == brute_product(g, list(x), list(y))

    def test_power_and_word_against_brute_force(self, d6):
        r = rng("word-oracle")
        for _ in range(10):
            x = random_nonempty(d6, r)
            assert set(power(x, 3)) == brute_power(d6, list(x), 3)
            assert set(eval_word(x, "+-+")) == brute_word(d6, list(x), "+-+")

    def test_power_zero_is_identity(self, c8):
        a = GroupSet.from_indices(c8, [3, 5])
        assert sorted(power(a, 0)) == [0]

    def test_interval_power(self, c8):
        a = GroupSet.from_indices(c8, [0, 1])
        assert sorted(power(a, 3)) == [0, 1, 2, 3]


@settings(max_examples=60, deadline=None)
@given(
    mx=st.integers(1, (1 << 12) - 1),
    my=st.integers(1, (1 << 12) - 1),
    mz=st.integers(1, (1 << 12) - 1),
)
def test_product_associativity_property(mx, my, mz):
    g = dihedral12()
    x, y, z = (GroupSet(g, m) for m in (mx, my, mz))
    assert product(product(x, y), z) == product(x, product(y, z))


@settings(max_examples=60, deadline=None)
@given(mx=st.integers(1, (1 << 12) - 1), my=st.integers(1, (1 << 12) - 1))
def test_inverse_antihomomorphism_property(mx, my):
    g = dihedral12()
    x, y = GroupSet(g, mx), GroupSet(g, my)
    assert inverse(product(x, y)) == product(inverse(y), inverse(x))


@settings(max_examples=40, deadline=None)
@given(mx=st.integers(1, (1 << 12) - 1), k=st.integers(0, 4))
def test_bar_closure_properties(mx, k):
    g = dihedral12()
    b = bar_closure(GroupSet(g, mx))
    assert 0 in b and b.is_symmetric
    assert power(b, k).issubset(power(b, k + 1))


_D6_CACHE = {}


def dihedral12():
    from ablab import dihedral_group

    if "g" not in _D6_CACHE:
        _D6_CACHE["g"] = dihedral_group(6)
    return _D6_CACHE["g"]


class TestBarClosure:
    def test_example(self, c8):
        b = bar_closure(GroupSet.from_indices(c8, [1, 3]))
        assert sorted(b) == [0, 1, 3, 5, 7]

    def test_symmetric_set_fixed_by_inverse(self, d6):
        h = subgroup_from_indices(d6, [0, 2, 4]).members
        assert inverse(h) == h


class TestGrowthProfile:
    def test_subgroup_ratios_one(self, c12):
        h = subgroup_from_indices(c12, [0, 3, 6, 9]).members
        gp = growth_profile(h)
        assert gp.doubling == gp.tripling == gp.alternation == 1

    def test_interval(self, c8):
        gp = growth_profile(GroupSet.from_indices(c8, [0, 1, 2]))
        assert gp.tripling == Fraction(7, 3)

    def test_random_s4_sets_against_brute_force(self, s4):
        r = rng("growth")
        for _ in range(5):
            x = GroupSet.from_indices(s4, r.sample(range(24), 12))
            gp = growth_profile(x)
            assert gp.tripling == Fraction(len(brute_power(s4, list(x), 3)), 12)
            assert gp.alternation == Fraction(len(brute_word(s4, list(x), "+-+")), 12)

    def test_tripling_at_least_doubling_with_identity(self, d6):
        r = rng("growth2")
        for _ in range(10):
            x = random_nonempty(d6, r) | GroupSet.from_indices(d6, [0])
            gp = growth_profile(x)
            assert gp.tripling >= gp.doubling >= 1

    def test_empty_rejected(self, c8):
        with pytest.raises(EmptySetError):
            growth_profile(GroupSet.empty(c8))


class TestRuzsa:
    def test_subgroup_distance_zero(self, c12):
        h = subgroup_from_indices(c12, [0, 6]).members
        d = ruzsa_distance(h, h)
        assert d.cross == h.card and d.value == 0

    def test_example(self, c8):
        d = ruzsa_distance(
            GroupSet.from_indices(c8, [0, 1]), GroupSet.from_indices(c8, [0, 4])
        )
        assert d.cross == 4 and d.nx == 2 and d.ny == 2

    def test_triangle_inequality_exact(self, d6):
        r = rng("ruzsa")
        for _ in range(100):
            x, y, z = (random_nonempty(d6, r) for _ in range(3))
            assert ruzsa_triangle_ok(x, y, z)


class TestCovering:
    def test_coset_partition_is_index(self, c12):
        h = subgroup_from_indices(c12, [0, 4, 8])
        g_all = GroupSet.full(c12)
        assert covering_number(g_all, h.members, g_all, exact=True) == h.index

    def test_self_cover_is_one(self, c8):
        a = GroupSet.from_indices(c8, [2, 3, 5])
        assert covering_number(a, a, GroupSet.full(c8)) == 1

    def test_exact_search_example(self, c8):
        x = GroupSet.from_indices(c8, range(6))
        y = GroupSet.from_indices(c8, [0, 1])
        assert covering_number(x, y, GroupSet.full(c8), exact=True) == 3

    def test_greedy_at_least_exact(self, d6):
        r = rng("cover")
        pool = GroupSet.full(d6)
        for _ in range(20):
            x = random_nonempty(d6, r)
            y = random_nonempty(d6, r)
            try:
                greedy = covering_number(x, y, pool)
            except CoverageError:
                continue
            assert greedy >= covering_number(x, y, pool, exact=True)

    def test_uncoverable(self, c8):
        x = GroupSet.from_indices(c8, [0, 1])
        y = GroupSet.from_indices(c8, [2])
        pool = GroupSet.from_indices(c8, [0])
        with pytest.raises(CoverageError):
            covering_number(x, y, pool)


class TestPlunnecke:
    def test_subgroup_all_equalities(self, c12):
        h = subgroup_from_indices(c12, [0, 3, 6, 9]).members
        cert = plunnecke_check(h, "tripling")
        assert cert.k == 1 and cert.all_ok
        assert all(e.size == h.card for e in cert.entries)

    def test_interval_example(self, c16):
        x = GroupSet.from_indices(c16, [0, 1, 2])
        cert = plunnecke_check(x, "alternation")
        assert cert.k == Fraction(7, 3)
        entry = [e for e in cert.entries if e.word == "+-+-+-" and e.base_word is None][0]
        assert entry.size == 13 and entry.ok

    def test_random_s4_sets(self, s4):
        r = rng("plunnecke")
        for _ in range(100):
            x = GroupSet.from_indices(s4, r.sample(range(24), 8))
            assert plunnecke_check(x, "tripling").all_ok
            assert plunnecke_check(x, "alternation").all_ok


class TestSetSpecs:
    def test_elems(self, c8):
        assert sorted(parse_set_spec(c8, "elems:[0,1,2]")) == [0, 1, 2]

    def test_random_reproducible(self, ea26):
        a = parse_set_spec(ea26, "random:density=1/2,seed=7")
        b = parse_set_spec(ea26, "random:density=1/2,seed=7")
        c = parse_set_spec(ea26, "random:density=1/2,seed=8")
        assert a == b and a != c

    def test_interval(self, c8):
        assert sorted(parse_set_spec(c8, "interval:0..2")) == [0, 1, 2]
        assert sorted(parse_set_spec(c8, "interval:6..1")) == [0, 1, 6, 7]

    def test_hamming(self, ea24):
        ball = parse_set_spec(ea24, "hamming:1")
        assert sorted(ball) == [0, 1, 2, 4, 8]

    def test_cosets(self, c12):
        a = parse_set_spec(c12, "cosets:H=[0,4,8],reps=[1]")
        assert sorted(a) == [1, 5, 9]

    def test_file(self, tmp_path, c8):
        p = tmp_path / "set.json"
        p.write_text("[1, 2, 5]")
        assert sorted(parse_set_spec(c8, f"file:{p}")) == [1, 2, 5]

    def test_errors(self, c8, ea24):
        with pytest.raises(SpecSyntaxError):
            parse_set_spec(c8, "nope:everything")
        with pytest.raises(SpecSyntaxError):
            parse_set_spec(ea24, "interval:0..2")  # not cyclic
        with pytest.raises(SpecSyntaxError):
            parse_set_spec(c8, "hamming:1")  # not ea(2,k)
        with pytest.raises(SpecSyntaxError):
            parse_set_spec(c8, "elems:[99]")

    def test_round_trip_through_json(self, d6):
        r = rng("roundtrip")
        a = random_nonempty(d6, r)
        literal = "elems:[" + ",".join(str(i) for i in sorted(a)) + "]"
        assert parse_set_spec(d6, literal) == a
