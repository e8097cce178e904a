from fractions import Fraction as F

import numpy as np
import pytest

from ablab import (
    GroupSet,
    NotExactError,
    PreconditionError,
    approx_bohr_set,
    bohr_set,
    bohr_witness_search,
    characters,
    eval_word,
    hom_defect,
    power,
    product,
    round_to_homomorphism,
    subgroup_from_indices,
    torus_distance,
)
from ablab.pipelines import mode_sets
from ablab.reporting import canonical_dumps
from ablab.torus import TorusMap, TorusVec, product_map, trivial_map

from conftest import rng


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
        assert len(chars) == 8
        for k, ch in enumerate(chars):
            for x in range(8):
                assert ch.value(x).coords[0] == F(k * x, 8) % 1

    def test_ea22_values(self):
        from ablab import elementary_abelian_group

        chars = characters(elementary_abelian_group(2, 2))
        assert len(chars) == 4
        vals = {v.coords[0] for ch in chars for v in ch.image()}
        assert vals <= {F(0), F(1, 2)}

    def test_perfect_group_trivial_dual(self):
        from ablab import alternating_group

        chars = characters(alternating_group(5))
        assert len(chars) == 1 and not chars[0].nums.any()

    def test_exact_additivity_all_pairs(self, small_zoo):
        for g in small_zoo:
            for ch in characters(g):
                assert ch.is_exact
                assert hom_defect(ch) == 0

    def test_distinct_characters_differ(self, c12):
        seen = {tuple(int(v) for v in ch.nums[:, 0]) for ch in characters(c12)}
        assert len(seen) == 12

    def test_kernel_is_subgroup(self, s3):
        for ch in characters(s3):
            kmask = ch.kernel_mask()
            subgroup_from_indices(s3, [i for i in range(6) if kmask >> i & 1])


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
        tau = characters(c8)[1]
        b = bohr_set(c8.whole_subgroup(), tau, F(1, 4))
        assert sorted(b) == [0, 1, 7]

    def test_large_delta_gives_everything(self, c8):
        tau = characters(c8)[1]
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
        for tau in characters(s4):
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
        for tau in (characters(c16)[3], product_map(characters(ea24)[1:3])):
            h = tau.domain
            expect = {
                x for x in h.members if torus_distance(tau.value(x), tau.value(0)) < delta
            }
            assert set(bohr_set(h, tau, delta)) == expect

    def test_nesting(self, c16):
        tau = characters(c16)[3]
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
        tau = characters(c8)[2]
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
        monkeypatch.setattr(bohr_mod, "characters", lambda h: real(h)[:1])
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
