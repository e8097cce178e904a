import math
from fractions import Fraction as F

import pytest

from ablab import (
    FeasibilityError,
    GroupSet,
    PreconditionError,
    bogolyubov_bounded_exponent,
    coset_decomposition,
    croot_sisask,
    cyclic_group,
    dense_saturation_check,
    dihedral_group,
    elementary_abelian_group,
    enumerate_subgroups,
    eval_word,
    largest_subgroup_inside,
    left_translate,
    mode_sets,
    pipelines,
    product,
    regularity_decompose,
    right_translate,
    stabilizer,
    subgroup_from_indices,
    vc_dimension,
)
from ablab.pipelines import (
    Subgroup,
    _root_float,
    _tripling_steps_exhausted,
    coset_masks,
    subgroup_candidates_inside,
)
from ablab.reporting import jsonable
from ablab.sets import parse_set_spec

from conftest import (
    brute_power,
    brute_word,
    naive_subgroups_inside,
    planted_coset_union,
    random_nonempty,
    rng,
)


@pytest.fixture
def heuristic_calls(monkeypatch) -> list:
    """The regions the subgroup oracle's heuristic closures search from then on."""
    calls = []
    real = pipelines._heuristic_masks

    def counted(g, region):
        calls.append(region)
        return real(g, region)

    monkeypatch.setattr(pipelines, "_heuristic_masks", counted)
    return calls


class TestModeSets:
    def test_alternation_sets(self, d6):
        r = rng("modesets")
        a = random_nonempty(d6, r, F(1, 3))
        ms = mode_sets(a, "alternation")
        assert set(ms.v) == brute_word(d6, list(a), "+-")
        assert set(ms.w) == brute_word(d6, list(a), "+-+-")
        assert ms.w.is_symmetric and 0 in ms.w

    def test_tripling_sets(self, d6):
        r = rng("modesets2")
        a = random_nonempty(d6, r, F(1, 3))
        ms = mode_sets(a, "tripling")
        expect_w = (
            brute_word(d6, list(a), "+-+-")
            & brute_word(d6, list(a), "++--")
            & brute_word(d6, list(a), "-+-+")
            & brute_word(d6, list(a), "--++")
        )
        assert set(ms.w) == expect_w
        # sigma is the subgroup generated by V
        assert product(ms.sigma.members, ms.sigma.members) == ms.sigma.members
        assert ms.v.issubset(ms.sigma.members)


class TestCrootSisask:
    def test_subgroup_returns_itself_alternation(self, c12):
        h = subgroup_from_indices(c12, [0, 3, 6, 9]).members
        y, tr = croot_sisask(h, "alternation", 4)
        assert y == h and not tr.degenerate
        assert tr.targets[0].ell == 1

    def test_subgroup_returns_itself_tripling(self, c12):
        h = subgroup_from_indices(c12, [0, 6]).members
        y, tr = croot_sisask(h, "tripling", 4)
        assert y == h

    def test_dense_random_contract_with_independent_recheck(self, ea26):
        r = rng("cs-dense")
        a = random_nonempty(ea26, r, F(1, 2))
        y, tr = croot_sisask(a, "tripling", 8)
        assert 0 in y and y.is_symmetric
        # independent recomputation of Y^8 and W by brute force
        y8 = brute_power(ea26, list(y), 8)
        w = (
            brute_word(ea26, list(a), "+-+-")
            & brute_word(ea26, list(a), "++--")
            & brute_word(ea26, list(a), "-+-+")
            & brute_word(ea26, list(a), "--++")
        )
        assert y8 <= w
        assert tr.covering_count >= 1

    def test_interval_cyclic64(self):
        c64 = cyclic_group(64)
        x = GroupSet.from_indices(c64, [0, 1, 2])
        y, tr = croot_sisask(x, "tripling", 4)
        w = brute_word(c64, [0, 1, 2], "+-+-")
        assert brute_power(c64, list(y), 4) <= w
        assert 0 in y and y.is_symmetric

    def test_ladder_strictly_decreasing(self, ea26):
        r = rng("cs-ladder")
        a = random_nonempty(ea26, r, F(1, 4))
        _, tr = croot_sisask(a, "alternation", 6)
        ts = [t for t, _ in tr.targets[0].ladder]
        assert all(ts[i + 1] < ts[i] for i in range(len(ts) - 1))
        ell = tr.targets[0].ell
        for i in range(len(ts) - 1):
            assert ts[i + 1] == ts[i] * ts[i] / (2 * ell)

    def test_degenerate_flagged_and_valid(self):
        # sparse interval forces the ladder down to the identity singleton
        c64 = cyclic_group(64)
        x = GroupSet.from_indices(c64, [0, 1, 2])
        y, tr = croot_sisask(x, "tripling", 4)
        if tr.degenerate:
            assert y.card == 1 and 0 in y


class TestLargestSubgroupInside:
    def test_whole_group(self, c12):
        w = GroupSet.full(c12)
        wit = largest_subgroup_inside(w, c12.whole_subgroup())
        assert wit.subgroup.order == 12 and wit.index == 1

    def test_cyclic6_example(self):
        c6 = cyclic_group(6)
        w = GroupSet.from_indices(c6, [0, 2, 3, 4])
        wit = largest_subgroup_inside(w, c6.whole_subgroup())
        assert sorted(wit.subgroup.members) == [0, 2, 4] and wit.index == 2

    def test_cyclic5_trivial(self):
        c5 = cyclic_group(5)
        w = GroupSet.from_indices(c5, [0, 1, 4])
        wit = largest_subgroup_inside(w, c5.whole_subgroup())
        assert wit.subgroup.order == 1

    def test_preconditions(self, c8):
        with pytest.raises(PreconditionError):
            largest_subgroup_inside(
                GroupSet.from_indices(c8, [1, 2]), c8.whole_subgroup()
            )
        with pytest.raises(PreconditionError):
            largest_subgroup_inside(
                GroupSet.from_indices(c8, [0, 1]), c8.whole_subgroup()
            )  # not symmetric

    def test_exhaustive_matches_naive_oracle(self, d6):
        r = rng("oracle-vs-naive")
        for _ in range(15):
            raw = random_nonempty(d6, r, F(1, 2))
            w = GroupSet(d6, raw.mask | 1)
            from ablab import bar_closure

            w = bar_closure(w)
            wit = largest_subgroup_inside(w, d6.whole_subgroup())
            assert wit.method == "exhaustive"
            naive = naive_subgroups_inside(d6, set(w))
            assert wit.subgroup.order == max(len(s) for s in naive)

    @staticmethod
    def _candidate_sets(g, masks):
        return {frozenset(i for i in range(g.order) if m >> i & 1) for m in masks}

    def test_region_search_candidates_match_naive_oracle(self):
        # No cached lattice: the whole-ambient call searches the region, and
        # a proper region leaves the cache empty.
        g = dihedral_group(40)
        rotations = GroupSet(g, (1 << 40) - 1)
        r = rng("oracle-region-d40")
        from ablab import bar_closure

        for extra in (GroupSet.empty(g), rotations, rotations):
            w = bar_closure(random_nonempty(g, r, F(1, 8)) | extra)
            masks, method = subgroup_candidates_inside(w, g.whole_subgroup())
            assert method == "exhaustive" and g._lattice is None
            assert self._candidate_sets(g, masks) == naive_subgroups_inside(g, set(w))

    def test_proper_ambient_candidates_match_naive_oracle(self, s4):
        r = rng("oracle-proper-ambient")
        from ablab import bar_closure

        ambients = [h for h in enumerate_subgroups(s4) if h.order in (8, 12)]
        for ambient in ambients:
            for _ in range(2):
                raw = r.subset_mask(s4.order, F(1, 2)) & ambient.mask | 1
                w = bar_closure(GroupSet(s4, raw))
                masks, method = subgroup_candidates_inside(w, ambient)
                assert method == "exhaustive"
                assert self._candidate_sets(s4, masks) == naive_subgroups_inside(s4, set(w))

    def test_heuristic_on_large_group(self):
        # Above order 512 a region that is not a subgroup is searched by
        # closures from the oracle's fixed stream: k plus one involution
        # outside it.
        g = elementary_abelian_group(2, 10)
        k = g.closure(0b1110)  # small subgroup
        w = GroupSet(g, k | 1 << 16)
        wit = largest_subgroup_inside(w, g.whole_subgroup())
        assert wit.method == "heuristic"
        assert wit.subgroup.mask == k  # the closures find it exactly

    def test_subgroup_region_on_large_group_is_exhaustive(self, heuristic_calls):
        # W W = W proves a region a subgroup at any order, with no search.
        g = elementary_abelian_group(2, 10)
        k = g.closure(0b1110)
        wit = largest_subgroup_inside(GroupSet(g, k), g.whole_subgroup())
        assert (wit.method, wit.subgroup.mask) == ("exhaustive", k)
        assert heuristic_calls == []


class TestBogolyubov:
    def test_coset_of_subgroup(self, c12):
        h = subgroup_from_indices(c12, [0, 4, 8])
        a = left_translate(1, h.members)  # a coset, AA^-1 = H
        rep = bogolyubov_bounded_exponent(a, "alternation", m=2)
        assert rep.witness.subgroup.mask == h.mask
        assert rep.witness.index == 1 and rep.witness.cover_count == 1
        assert rep.h_in_w and rep.h_in_double

    def test_large_group_witness_is_the_oracle_answer_on_w(self):
        # The heuristic golden's input: W(A) is not a subgroup at order 1024,
        # so the heuristic answers, and its closures depend on W alone.
        g = elementary_abelian_group(2, 10)
        rep = bogolyubov_bounded_exponent(parse_set_spec(g, "random:density=1/64,seed=1"), "tripling")
        ms = rep.trace.sets
        for _ in range(2):
            direct = largest_subgroup_inside(ms.w, ms.sigma)
            assert (direct.subgroup, direct.method) == (rep.witness.subgroup, rep.witness.method)
        assert rep.witness.method == "heuristic" and rep.witness.subgroup.order == 128

    def test_dense_random_f26_meets_effective_bound(self, ea26):
        r = rng("bogo-dense")
        a = random_nonempty(ea26, r, F(1, 2))
        while a.card < 32:
            a = a | GroupSet.from_indices(ea26, [r.randint(0, 63)])
        rep = bogolyubov_bounded_exponent(a, "tripling", m=4)
        assert rep.witness.method == "exhaustive"
        assert rep.h_in_w
        # effective bound for exponent 2, density 1/2: index <= 2^4
        assert rep.witness.index <= 16

    def test_union_of_cosets_of_d4(self, d4):
        k = [s for s in enumerate_subgroups(d4) if s.index == 4][0]
        a = left_translate(1, k.members) | left_translate(3, k.members)
        rep = bogolyubov_bounded_exponent(a, "alternation", m=3)
        assert rep.h_in_w
        assert rep.witness.subgroup.order >= k.order

    def test_normalize_keeps_containment(self, s4):
        r = rng("bogo-norm")
        a = random_nonempty(s4, r, F(1, 2))
        rep = bogolyubov_bounded_exponent(a, "tripling", m=3, normalize=True)
        assert rep.h_in_w
        assert rep.normal_in_sigma
        assert rep.witness.normalized


def structure(a, h):
    """D and its defect, which do not depend on eps."""
    dec = coset_decomposition(a, h, F(1, 4))
    return dec.d_set, dec.defect


def regularity(a, h, eps):
    dec = coset_decomposition(a, h, eps)
    return dec.z, dec.table


class TestCosetStructure:
    def test_exact_union_has_zero_defect(self, ea26):
        subs = [s for s in enumerate_subgroups(ea26) if s.index == 4]
        k = subs[0]
        a = right_translate(k.members, 1) | right_translate(k.members, 40)
        d, defect = structure(a, k)
        assert d == a and defect == 0

    def test_coset_minus_point(self, ea24):
        k = [s for s in enumerate_subgroups(ea24) if s.order == 8][0]
        coset = right_translate(k.members, 3)
        a = coset - GroupSet.from_indices(ea24, [sorted(coset)[0]])
        d, defect = structure(a, k)
        assert d == coset and defect == F(1, 16)

    def test_majority_count_matches_brute_force(self, ea26):
        r = rng("coset-brute")
        k = [s for s in enumerate_subgroups(ea26) if s.index == 4][0]
        a = random_nonempty(ea26, r, F(1, 2))
        d, defect = structure(a, k)
        members = set(a)
        expected = set()
        for rep, cmask in coset_masks(ea26, k.mask):
            coset = {i for i in range(64) if cmask >> i & 1}
            if 2 * len(coset & members) >= k.order:
                expected |= coset
        assert set(d) == expected
        assert defect == F(len(expected ^ members), 64)


class TestCosetRegularity:
    def test_union_of_cosets_has_empty_z(self, ea26):
        k = [s for s in enumerate_subgroups(ea26) if s.index == 4][0]
        a = right_translate(k.members, 2)
        z, table = regularity(a, k, F(1, 4))
        assert z.card == 0
        assert all(row["sparse_ok"] or row["dense_ok"] for row in table)

    def test_balanced_coset_is_exceptional(self, ea26):
        k = [s for s in enumerate_subgroups(ea26) if s.index == 4][0]
        coset0 = k.members
        half = GroupSet.from_indices(ea26, sorted(coset0)[:8])
        z, table = regularity(half, k, F(1, 17))
        assert not half.mask & ~z.mask and z.card >= k.order

    def test_z_bound_whenever_h_stabilizes(self, small_zoo):
        r = rng("lemma-z")
        for g in small_zoo:
            a = random_nonempty(g, r, F(1, 2))
            eps = F(1, 4)
            stab = stabilizer(a, eps).stabilizer
            masks, _ = subgroup_candidates_inside(stab, g.whole_subgroup())
            h = Subgroup(g, masks[0], verify=False)
            z, _ = regularity(a, h, eps)
            assert 4 * z.card**2 * eps.denominator < eps.numerator * g.order**2


class TestTriplingBound:
    """The escalation stops once 3^(t p) >= n, decided in integers."""

    @pytest.mark.parametrize(
        "p, n, t_last",
        [
            (F(2), 81, 1),  # 9 < 81 <= 81
            (F(2), 82, 2),
            (F(1), 3**40, 39),
            (F(1), 3**40 + 1, 40),
            (F(3, 2), 27, 1),  # 3^(3/2) < 27 <= 3^3
            (F(3, 2), 28, 2),
            (F(5, 3), 2, 0),
        ],
    )
    def test_last_step_allowed(self, p, n, t_last):
        assert not _tripling_steps_exhausted(t_last, p, n)
        assert _tripling_steps_exhausted(t_last + 1, p, n)


class TestRootFloat:
    """The display root keeps float(x) ** (1/r) for normal x, and takes it
    in log space when float(x) overflows, underflows or is subnormal."""

    @pytest.mark.parametrize("x, r", [(F(1, 16), 2), (F(1, 12000), 1), (F(30) ** 5, 3)])
    def test_normal_inputs_keep_the_float_power(self, x, r):
        assert _root_float(x, r) == float(x) ** (1.0 / r)

    @pytest.mark.parametrize(
        "x, r, root",
        [
            (F(1, 10**400), 100, 1e-4),  # float(x) underflows to 0
            (F(1, 3 * 2**1060), 2, 2.0**-530 / math.sqrt(3)),  # float(x) is subnormal
            (F(10**400), 100, 1e4),  # float(x) overflows
        ],
    )
    def test_out_of_range_inputs_take_the_log_root(self, x, r, root):
        assert math.isclose(_root_float(x, r), root, rel_tol=1e-12)

    def test_root_beyond_the_float_range_is_none(self):
        assert _root_float(F(10**400), 1) is None


class TestRegularityPipeline:
    def test_union_of_cosets_clean(self, ea26):
        k = [s for s in enumerate_subgroups(ea26) if s.index == 4][0]
        a = right_translate(k.members, 1) | right_translate(k.members, 9)
        rep = regularity_decompose(a, F(1, 4), F(1))
        assert rep.success
        assert rep.structure_defect == 0 and rep.z.card == 0
        assert not k.mask & ~rep.subgroup.mask  # found subgroup contains K

    def test_recorded_derived_quantities(self, ea24):
        k = [s for s in enumerate_subgroups(ea24) if s.index == 2][0]
        rep = regularity_decompose(k.members, F(1, 5), F(1))
        assert rep.d == 1
        assert rep.delta_exact == F(1, 12000)
        assert rep.p == 2
        assert rep.success

    def test_empty_set(self, ea26):
        rep = regularity_decompose(GroupSet.empty(ea26), F(1, 4), F(1))
        assert rep.success and rep.subgroup.order == 64
        assert rep.d_set.card == 0 and rep.z.card == 0

    def test_full_set(self, ea26):
        rep = regularity_decompose(GroupSet.full(ea26), F(1, 4), F(1))
        assert rep.success and rep.structure_defect == 0

    def test_vc_cap_error(self, c8):
        with pytest.raises(FeasibilityError):
            regularity_decompose(
                GroupSet.from_indices(c8, [0, 1]), F(1, 4), F(1), vc_cap=1
            )

    def test_fractional_nu_stays_exact(self, ea24):
        k = [s for s in enumerate_subgroups(ea24) if s.index == 2][0]
        rep = regularity_decompose(k.members, F(1, 4), F(1, 2))
        assert rep.success
        assert rep.p == F(1) * (1 + F(1, 2)) / F(1, 2)  # d(d+nu)/nu with d=1

    def test_flags_all_reverified(self, ea26):
        r = rng("reg-flags")
        k = [s for s in enumerate_subgroups(ea26) if s.index == 2][0]
        a = right_translate(k.members, 5) ^ GroupSet.from_indices(
            ea26, [r.randint(0, 63)]
        )
        rep = regularity_decompose(a, F(1, 4), F(1))
        assert set(rep.flags) == {
            "haussler",
            "escalation_bounded",
            "h_in_b4",
            "h_in_stab_eps",
            "d_union_of_right_cosets",
            "structure_defect_le_eps",
            "z_bound",
            "dichotomy_off_z",
        }
        assert rep.success

    def test_planted_cosets_in_ea2_10_need_no_heuristic(self, heuristic_calls):
        # B^4 ∩ Stab_eps(A) is a subgroup on acceptance 4's sets, so the
        # product check answers each exactly at order 1024.
        g = elementary_abelian_group(2, 10)
        for i in range(20):
            kmask, a = planted_coset_union(g, i)
            rep = regularity_decompose(a, F(1, 4), F(1))
            assert rep.success and rep.method == "exhaustive" and rep.retries == 0
            assert not kmask & ~rep.subgroup.mask
        assert heuristic_calls == []

    def test_one_translate_gather_serves_both_stabilizers(self, translate_gathers, ea26, s4):
        """The VC search, Stab_delta(A) and Stab_eps(A) read one
        kernels.translate_words gather of A per run, and the stabilizers
        match those computed on their own, from a fresh copy of A."""
        from ablab.vc import stabilizer_by_threshold

        a26 = right_translate(
            [s for s in enumerate_subgroups(ea26) if s.index == 4][0].members, 1
        ) ^ GroupSet.from_indices(ea26, [9])
        cases = [a26, random_nonempty(s4, rng("one-gather"), F(1, 2))]
        for a in cases:
            translate_gathers.clear()
            rep = regularity_decompose(a, F(1, 4), F(1))
            assert translate_gathers == [a.mask]
            fresh = GroupSet(a.group, a.mask)
            assert rep.s == stabilizer_by_threshold(fresh, rep.stab_threshold)
            stab_eps = stabilizer(fresh, F(1, 4)).stabilizer
            assert rep.flags["h_in_stab_eps"] and not rep.subgroup.mask & ~stab_eps.mask

    def test_report_fields_aligned_on_both_paths(self, ea24):
        k = [s for s in enumerate_subgroups(ea24) if s.index == 2][0]
        other_coset = GroupSet.full(ea24) ^ k.members
        for a, trivial in [(GroupSet.empty(ea24), True), (other_coset, False)]:
            rep = regularity_decompose(a, F(1, 4), F(1))
            assert (rep.method == "trivial") is trivial
            assert rep.set_digest == a.digest()
            assert jsonable(rep)["set_digest"] == a.digest()
            assert jsonable(rep)["vc_dim"] == rep.d


class TestSaturation:
    def test_whole_group(self, d6):
        g_all = GroupSet.full(d6)
        rep = dense_saturation_check(g_all, g_all, g_all)
        assert all(rep.equalities.values())

    def test_a5_with_fifty_elements(self):
        from ablab import alternating_group

        a5 = alternating_group(5)
        r = rng("saturation")
        removed = r.sample(range(60), 10)
        a = GroupSet.from_indices(a5, [x for x in range(60) if x not in removed])
        rep = dense_saturation_check(a)
        # sizes must match an independent brute-force product computation
        assert rep.sizes["(AA^-1)^2"] == len(brute_word(a5, list(a), "+-+-"))
        assert rep.equalities["(AA^-1)^2"] == (
            len(brute_word(a5, list(a), "+-+-")) == 60
        )

    def test_group_is_read_from_the_set(self):
        c6 = cyclic_group(6)
        rep = dense_saturation_check(GroupSet.full(c6))
        assert (rep.group_label, rep.group_order) == (c6.label, 6)
        assert all(rep.equalities.values())

    def test_sparse_interval_fails_saturation(self):
        c7 = cyclic_group(7)
        rep = dense_saturation_check(GroupSet.from_indices(c7, [0, 1]))
        assert not rep.equalities["(AA^-1)^2"]
