import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ablab.bohr
from ablab import (
    FeasibilityError,
    GroupSet,
    NotExactError,
    PreconditionError,
    approx_bohr_set,
    bohr_set,
    bohr_witness_search,
    build_group,
    characters,
    eval_word,
    hom_defect,
    parse_group_spec,
    power,
    product,
    round_to_homomorphism,
    subgroup_from_indices,
    torus_distance,
)
from ablab.pipelines import mode_sets
from ablab.reporting import canonical_dumps
from ablab.torus import TorusMap, TorusVec, trivial_map

from conftest import brute_closure, rng


class TestTorusDistance:
    def test_zero(self):
        assert torus_distance(TorusVec.zero(3), TorusVec.zero(3)) == 0

    def test_wraparound(self):
        assert torus_distance(TorusVec((F(0),)), TorusVec((F(3, 4),))) == F(1, 4)

    def test_max_over_coordinates(self):
        u = TorusVec((F(0), F(0)))
        v = TorusVec((F(1, 4), F(2, 5)))
        assert torus_distance(u, v) == F(2, 5)

    def test_metric_axioms_on_random_rationals(self):
        r = rng("metric")
        for _ in range(60):
            pts = [
                TorusVec(tuple(F(r.randint(0, 23), 24) for _ in range(2)))
                for _ in range(3)
            ]
            u, v, w = pts
            assert torus_distance(u, v) == torus_distance(v, u)
            assert torus_distance(u, u) == 0
            assert torus_distance(u, w) <= torus_distance(u, v) + torus_distance(v, w)
            shift = TorusVec((F(5, 24), F(7, 24)))
            assert torus_distance(u + shift, v + shift) == torus_distance(u, v)


class TestCharacters:
    def test_cyclic_full_dual(self, c8):
        chars = characters(c8)
        assert chars.dim == 8
        for k in range(8):
            for x in range(8):
                assert chars.value(x).coords[k] == F(k * x, 8) % 1

    def test_ea22_values(self):
        from ablab import elementary_abelian_group

        chars = characters(elementary_abelian_group(2, 2))
        assert chars.dim == 4
        vals = {c for v in chars.image() for c in v.coords}
        assert vals <= {F(0), F(1, 2)}

    def test_perfect_group_trivial_dual(self):
        from ablab import alternating_group

        chars = characters(alternating_group(5))
        assert chars.dim == 1 and not chars.nums.any()

    def test_exact_additivity_all_pairs(self, small_zoo):
        for g in small_zoo:
            chars = characters(g)
            for j in range(chars.dim):
                ch = chars.select([j])
                assert ch.is_exact
                assert hom_defect(ch) == 0

    def test_distinct_characters_differ(self, c12):
        seen = {tuple(int(v) for v in col) for col in characters(c12).nums.T}
        assert len(seen) == 12

    def test_kernel_is_subgroup(self, s3):
        chars = characters(s3)
        for j in range(chars.dim):
            kmask = chars.select([j]).kernel_mask()
            subgroup_from_indices(s3, [i for i in range(6) if kmask >> i & 1])


# Abelian and nonabelian zoo groups of order <= 128: spec -> (order, number of
# characters, common denominator, sha256 of the table's int64 bytes).  The
# digests pin the column order; they were taken from the one-coordinate maps
# that characters returned before it built one table, stacked side by side.
TABLE_ZOO = {
    "cyclic:8": (8, 8, 8, "48e07fbf26478ad8d2f9aac47f120dd15cb3078b986c657fe516ff1bc17cd755"),
    "cyclic:12": (12, 12, 12, "0f43e5be5514975500f160e1eb73f15e8fcd687cb22c4df946dcf9d0d38e62ae"),
    "cyclic:13": (13, 13, 13, "2e949bc4fccbfb950c86be1110adcdd8838bc2ec1a337ea8d3b1f52eae4c3437"),
    "cyclic:16": (16, 16, 16, "b986b7910fe44ca9b41fc5109a7162729d6222e3bf445fde127513f0882e35b9"),
    "cyclic:24": (24, 24, 24, "77c71bbfb9e4b6412a179e24e7a6fadbff91d67e1043b380ae6f11ffffda6e59"),
    "cyclic:36": (36, 36, 36, "cb3c2432f02d266311a5a6892d0f8c282fc7fac6d8022929998a4093e00c5fd9"),
    "cyclic:64": (64, 64, 64, "a1fc1bc0efd0c61b56f3b42c022c15c447d45b49034d5a1f07ece359ee50c376"),
    "cyclic:128": (128, 128, 128, "507761c79f4251dd1aad844af17d98815d66d069febfa5be47b6974ba98b991a"),
    "ea:2^4": (16, 16, 2, "47073a833a280ab8769de9916afdcbb90ded30e5aaeac891f4563cd45bc941b5"),
    "ea:2^5": (32, 32, 2, "ede0df123ac9182f55e0035ceefd6318d38ed083bd276353dee97eb67e85beed"),
    "ea:2^6": (64, 64, 2, "0d8b2ad2a68c042fa37d8c3e9cab27d2807eeb082aa6180c59ea9ca87f7fbae8"),
    "ea:2^7": (128, 128, 2, "a34745ef59d9ca803ade9005618d933facf5a04709592a5c126acc7aad04c3fc"),
    "ea:3^3": (27, 27, 3, "30c85fdcc906f78a363faa7e218b2849cae09d15be491378164059116e5dcad2"),
    "ea:3^4": (81, 81, 3, "8bdaf26be36abcd8189e881c94b731ab7527b4552cb2e9b5a2470b093bd3be05"),
    "prod:cyclic:4+cyclic:8": (32, 32, 8, "afd0ece574c5d7a21d757c94b47c3e4cc6de73fdd1f9bb3df810d5b622f05d81"),
    "prod:cyclic:6+cyclic:4": (24, 24, 12, "7879210413a404cf033d7798a272950eddbfa226d820cecf3325ca090f0f8878"),
    "dihedral:6": (12, 4, 2, "488ccb2b848d9550203d486d22388226a721e70e35b17f714e892efa9b95ea89"),
    "dihedral:8": (16, 4, 2, "3c6b1508d86a36c1b219cfee57f73157d5d3fb069ab231a24e1635775cef2eee"),
    "dihedral:16": (32, 4, 2, "29ddf2a84b2a341dc8a172d99c2a5b967c512a292716f8d0efab0912b7c483e3"),
    "sym:3": (6, 2, 2, "683b655770b93445362c33436468210406a8074643b92916ad22973a02b60444"),
    "sym:4": (24, 2, 2, "7db31e8f0678be809ea91041560a203aa89eac6ff4c18327868460f4531f9406"),
    "sym:5": (120, 2, 2, "fb163dc0d8b084cf71d63f3355008b2e56d01749c5cd88a6cbae6d1e58f2394c"),
    "alt:4": (12, 3, 3, "8f6a17c1b3190fb5d64535be1eff3806606211b49baf0f874cc1608d5a7df3bb"),
    "alt:5": (60, 1, 1, "4b48f21a4b7a02bfbec19ef880a967a02334a3cdcef8ae83de2ef327ba8bc5dd"),
    "prod:cyclic:2+sym:3": (12, 4, 2, "02def75dce9923587cb0f163c40fddfe589f350dc9a395fca7835e4ef2cb09a6"),
    "prod:cyclic:4+dihedral:4": (32, 16, 4, "5a8b08c02a6eea2f3c00c7bbb6f36da4ad589da1f3fb789dbe182dad2d298be6"),
}
TABLE_GROUPS = {spec: build_group(parse_group_spec(spec)) for spec in TABLE_ZOO}


@pytest.mark.parametrize("spec", sorted(TABLE_ZOO))
class TestCharacterTable:
    def test_each_column_is_a_homomorphism_on_every_pair(self, spec):
        g = TABLE_GROUPS[spec]
        table = characters(g)
        rows = [np.array(row) for row in table.nums.tolist()]
        for x in range(g.order):
            for y in range(g.order):
                assert not ((rows[g.mul(x, y)] - rows[x] - rows[y]) % table.den).any()

    def test_columns_are_distinct_and_count_the_abelianization(self, spec):
        g = TABLE_GROUPS[spec]
        table = characters(g)
        comms = {
            g.mul(g.mul(x, y), g.mul(g.invert(x), g.invert(y)))
            for x in range(g.order)
            for y in range(g.order)
        }
        assert table.dim == g.order // len(brute_closure(g, comms))
        assert len({tuple(col) for col in table.nums.T.tolist()}) == table.dim
        assert not table.nums[:, 0].any()

    def test_column_order_is_pinned(self, spec):
        order, dim, den, digest = TABLE_ZOO[spec]
        table = characters(TABLE_GROUPS[spec])
        assert (table.domain.order, table.dim, table.den) == (order, dim, den)
        raw = np.ascontiguousarray(table.nums, dtype="<i8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(TABLE_ZOO)), data=st.data())
def test_select_equals_the_stacked_columns(spec, data):
    table = characters(TABLE_GROUPS[spec])
    cols = data.draw(st.lists(st.integers(0, table.dim - 1), max_size=6))
    picked = table.select(cols)
    stacked = np.zeros((table.domain.order, 0), dtype=np.int64)
    for j in cols:
        stacked = np.hstack([stacked, table.nums[:, j : j + 1]])
    assert picked.domain == table.domain and picked.den == table.den
    assert picked.nums.shape == stacked.shape and np.array_equal(picked.nums, stacked)
    x = data.draw(st.integers(0, table.domain.order - 1))
    assert picked.value(x).coords == tuple(table.value(x).coords[j] for j in cols)


class TestTorusMap:
    def test_defect_example(self):
        from ablab import cyclic_group

        c4 = cyclic_group(4)
        f = TorusMap.from_values(
            c4.whole_subgroup(), [[F(0)], [F(1, 4)], [F(1, 2)], [F(7, 10)]]
        )
        assert hom_defect(f) == F(1, 10)

    def test_zero_image_has_zero_defect(self, d6):
        f = trivial_map(d6.whole_subgroup())
        assert hom_defect(f) == 0

    def test_identity_precondition(self, c8):
        f = TorusMap.from_values(
            c8.whole_subgroup(), [[F(1, 3)]] + [[F(0)]] * 7
        )
        with pytest.raises(PreconditionError):
            hom_defect(f)

    def test_denominator_limit(self, c8):
        rows = [[F(0)]] + [[F(1, 10**7)]] * 7
        with pytest.raises(PreconditionError):
            TorusMap.from_values(c8.whole_subgroup(), rows)


class TestBohrSet:
    def test_trivial_map_gives_whole_subgroup(self, d6):
        h = subgroup_from_indices(d6, [0, 2, 4])
        b = bohr_set(h, trivial_map(h), F(1, 10))
        assert b.mask == h.mask

    def test_cyclic8_example(self, c8):
        tau = characters(c8).select([1])
        b = bohr_set(c8.whole_subgroup(), tau, F(1, 4))
        assert sorted(b) == [0, 1, 7]

    def test_large_delta_gives_everything(self, c8):
        tau = characters(c8).select([1])
        b = bohr_set(c8.whole_subgroup(), tau, F(5, 8))
        assert b.card == 8

    def test_requires_exact(self, c8):
        f = TorusMap.from_values(
            c8.whole_subgroup(),
            [[F(0)], [F(1, 8)], [F(1, 4)], [F(3, 8)], [F(1, 2)], [F(5, 8)], [F(3, 4)], [F(9, 10)]],
        )
        with pytest.raises(NotExactError):
            bohr_set(c8.whole_subgroup(), f, F(1, 4))

    def test_symmetry_kernel_conjugation_and_size(self, s4):
        h = s4.whole_subgroup()
        chars = characters(s4)
        for tau in (chars.select([j]) for j in range(chars.dim)):
            delta = F(1, 3)
            b = bohr_set(h, tau, delta)
            assert b.is_symmetric and 0 in b
            kmask = tau.kernel_mask()
            assert not kmask & ~b.mask
            for hh in range(s4.order):
                for x in list(b):
                    assert s4.conjugate(hh, x) in b
            assert F(b.card) >= delta * s4.order  # dim 1

    @pytest.mark.parametrize("delta", [F(1, 2**70), F(10**400)])
    def test_extreme_delta_matches_plain_loop(self, c16, ea24, delta):
        # delta * den leaves int64 at both ends, so the exact comparison must
        # not form it there.
        for tau in (characters(c16).select([3]), characters(ea24).select([1, 2])):
            h = tau.domain
            expect = {
                x for x in h.members if torus_distance(tau.value(x), tau.value(0)) < delta
            }
            assert set(bohr_set(h, tau, delta)) == expect

    def test_nesting(self, c16):
        tau = characters(c16).select([3])
        h = c16.whole_subgroup()
        b = bohr_set(h, tau, F(1, 5))
        assert product(b, b).issubset(bohr_set(h, tau, F(2, 5)))


class TestApproxBohr:
    def test_perturbed_membership_against_enumeration(self, c8):
        # character x/8 with a small wiggle; membership recomputed per element
        base = [F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(7, 8)]
        wiggle = [F(0), F(1, 20), F(0), F(-1, 20), F(1, 20), F(0), F(-1, 20), F(0)]
        rows = [[b + w] for b, w in zip(base, wiggle)]
        f = TorusMap.from_values(c8.whole_subgroup(), rows)
        for eps in (F(1, 4), F(3, 10), F(1, 2)):
            got = approx_bohr_set(c8.whole_subgroup(), f, eps)
            expect = {
                x
                for x in range(8)
                if min(rows[x][0] % 1, 1 - rows[x][0] % 1) < eps
            }
            assert set(got) == expect

    def test_trivial_f_gives_h(self, d6):
        h = subgroup_from_indices(d6, [0, 2, 4])
        assert approx_bohr_set(h, trivial_map(h), F(1, 7)).mask == h.mask

    def test_eps_above_half_gives_h(self, c8):
        f = TorusMap.from_values(
            c8.whole_subgroup(), [[F(i, 8) + (F(1, 40) if i == 3 else 0)] for i in range(8)]
        )
        assert approx_bohr_set(c8.whole_subgroup(), f, F(3, 5)).card == 8

    def test_nonpositive_eps_rejected_for_every_zero_map(self, c8):
        # A zero-dimensional map and the trivial map agree at eps > 0, and
        # both refuse eps <= 0, as bohr_set refuses delta <= 0.
        h = c8.whole_subgroup()
        for f in (TorusMap(h, 1, np.zeros((8, 0))), trivial_map(h, 1)):
            assert approx_bohr_set(h, f, F(1, 4)).mask == h.mask
            for eps in (F(0), F(-1)):
                with pytest.raises(PreconditionError):
                    approx_bohr_set(h, f, eps)


class TestRounding:
    def test_exact_map_short_circuits(self, c8):
        tau = characters(c8).select([2])
        res = round_to_homomorphism(tau, F(1, 8))
        assert res.found and res.best_distance == 0
        assert res.bohr == bohr_set(c8.whole_subgroup(), tau, F(1, 8))

    def test_perturbed_character_recovered(self, c8):
        rows = [[F(x, 8) + F(r, 40)] for x, r in zip(range(8), [0, 1, 0, -1, 1, 0, -1, 0])]
        f = TorusMap.from_values(c8.whole_subgroup(), rows)
        delta = F(1, 8)
        assert hom_defect(f) < delta
        res = round_to_homomorphism(f, delta)
        assert res.found
        # recovered the character x -> x/8 exactly
        assert all(res.tau.value(x).coords[0] == F(x, 8) % 1 for x in range(8))
        target = approx_bohr_set(c8.whole_subgroup(), f, 3 * delta)
        assert res.bohr.issubset(target)

    def test_defect_precondition(self, c8):
        f = TorusMap.from_values(
            c8.whole_subgroup(), [[F(0)], [F(1, 3)], [F(0)], [F(0)], [F(0)], [F(0)], [F(0)], [F(0)]]
        )
        with pytest.raises(PreconditionError):
            round_to_homomorphism(f, F(1, 100))

    def test_absent_reported_when_no_candidate_fits(self, c8, monkeypatch):
        # Force the candidate pool to the trivial character only: the search
        # must report absence with the best distance, not fabricate a map.
        import ablab.bohr as bohr_mod

        real = bohr_mod.characters
        monkeypatch.setattr(bohr_mod, "characters", lambda h: real(h).select([0]))
        rows = [[F(x, 8) + F(r, 40)] for x, r in zip(range(8), [0, 1, 0, -1, 1, 0, -1, 0])]
        f = TorusMap.from_values(c8.whole_subgroup(), rows)
        res = round_to_homomorphism(f, F(1, 8))
        assert not res.found and res.tau is None
        assert res.best_distance > F(1, 4)
        assert canonical_dumps(res) == '{"best_distance":[19,40],"bohr":null,"found":false}\n'


class TestWitnessSearch:
    def test_container_superset_gives_trivial_witness(self, d6):
        h = subgroup_from_indices(d6, [0, 2, 4])
        container = GroupSet.full(d6)
        w = bohr_witness_search(container, h, 2, [F(1, 2), F(1, 4)])
        assert w is not None and w.bohr.mask == h.mask
        assert w.size_bound_ok

    def test_cyclic16_quadruple_sumset(self, c16):
        a = GroupSet.from_indices(c16, [0, 1, 2, 3])
        container = eval_word(a, "+-+-")
        h = c16.whole_subgroup()
        assert sorted(container) == sorted({(x - y + z - w) % 16 for x in range(4) for y in range(4) for z in range(4) for w in range(4)})
        wit = bohr_witness_search(container, h, 2, [F(1, 2), F(7, 16), F(3, 8), F(1, 4), F(1, 8)])
        assert wit is not None
        assert wit.bohr.issubset(container)
        assert F(wit.bohr.card) >= wit.delta**wit.dim * h.order
        assert 0 in wit.bohr and wit.bohr.is_symmetric

    @pytest.mark.parametrize(
        "spec, elems, n_max, maps",
        [
            ("cyclic:16", [0, 1, 2, 3, 13, 14, 15], 1, 15),
            ("cyclic:16", [0, 1, 2, 3, 13, 14, 15], 2, 120),
            ("ea:2^2", [0, 1, 3], 5, 3 + 3 + 1),
        ],
    )
    def test_map_budget_is_checked_before_any_map(
        self, spec, elems, n_max, maps, monkeypatch
    ):
        # The count is the sum of C(r, d) over d <= n_max for r nontrivial
        # characters; dimensions above r add nothing.
        g = build_group(parse_group_spec(spec))
        container = GroupSet.from_indices(g, elems)
        h = g.whole_subgroup()
        grid = [F(1, 2), F(1, 4)]
        unbounded = bohr_witness_search(container, h, n_max, grid)
        fits = bohr_witness_search(container, h, n_max, grid, max_maps=maps)
        assert canonical_dumps(fits) == canonical_dumps(unbounded)
        assert np.array_equal(fits.tau.nums, unbounded.tau.nums)
        tried = []
        monkeypatch.setattr(ablab.bohr, "_sublevel_mask", lambda *a: tried.append(a))
        with pytest.raises(FeasibilityError, match=f"needs {maps} character maps"):
            bohr_witness_search(container, h, n_max, grid, max_maps=maps - 1)
        assert tried == []

    def test_container_without_identity(self, c8):
        container = GroupSet.from_indices(c8, [1, 2, 3])
        out = bohr_witness_search(container, c8.whole_subgroup(), 2, [F(1, 2)])
        assert out is None


class TestModeSetsBohrInterop:
    def test_bohr_search_inside_w(self, c16):
        a = GroupSet.from_indices(c16, [0, 1, 2, 3])
        ms = mode_sets(a, "tripling")
        wit = bohr_witness_search(ms.w, ms.sigma, 2, [F(1, 2), F(1, 4), F(1, 8)])
        assert wit is not None
        assert wit.bohr.issubset(ms.w)
