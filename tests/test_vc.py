import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ablab.vc
from ablab import (
    FeasibilityError,
    GroupSet,
    PreconditionError,
    alternating_group,
    build_group,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    haussler_check,
    parse_group_spec,
    stabilizer,
    subgroup_from_indices,
    symmetric_group,
    vc_dimension,
)
from ablab.cli import main
from ablab.sets import inverse, parse_set_spec
from ablab.vc import VcResult, stabilizer_by_threshold

from conftest import (
    brute_stabilizer,
    levelwise_vc_dimension,
    naive_vc_dimension,
    random_nonempty,
    rng,
)

ZOO = {
    "cyclic:12": cyclic_group(12),
    "cyclic:16": cyclic_group(16),
    "ea:2^4": elementary_abelian_group(2, 4),
    "ea:3^2": elementary_abelian_group(3, 2),
    "dihedral:6": dihedral_group(6),
    "sym:4": symmetric_group(4),
    "alt:4": alternating_group(4),
}
STAB_ZOO = {"cyclic:8": cyclic_group(8), "sym:4": ZOO["sym:4"], "ea:2^4": ZOO["ea:2^4"]}
DENSE_EA10 = ["diagnose", "--group", "ea:2^10", "--set", "random:density=1/2,seed=1"]


def shattered_by_translates(g, members, witness) -> bool:
    """Plain-Python check: the translates tA cut 2^|witness| traces on witness."""
    members = set(members)
    traces = {
        tuple(g.mul(g.invert(t), x) in members for x in witness) for t in range(g.order)
    }
    return len(traces) == 1 << len(witness)


class TestVcDimension:
    def test_proper_subgroup_with_cosets_is_one(self, c12):
        for members in ([0, 6], [0, 4, 8], [0, 3, 6, 9]):
            h = subgroup_from_indices(c12, members)
            assert vc_dimension(h.members).value == 1

    def test_pair_in_cyclic4(self):
        c4 = cyclic_group(4)
        assert vc_dimension(GroupSet.from_indices(c4, [0, 1])).value == 2

    def test_whole_group_and_empty(self, c8):
        assert vc_dimension(GroupSet.full(c8)).value == 0
        assert vc_dimension(GroupSet.empty(c8)).value == 0

    def test_matches_naive_oracle_on_small_groups(self, small_zoo):
        r = rng("vc-oracle")
        for g in small_zoo:
            if g.order > 32:
                continue
            for _ in range(8):
                a = random_nonempty(g, r, F(1, 2))
                mine = vc_dimension(a, cap=4)
                ref = naive_vc_dimension(a, cap=4)
                if mine.cap_hit:
                    assert ref >= mine.value
                else:
                    assert mine.value == ref

    def test_cap_hit_flagged(self, c8):
        res = vc_dimension(GroupSet.from_indices(c8, [0, 1]), cap=1)
        assert res.cap_hit and res.value == 1

    def test_witness_is_shattered(self, d6):
        r = rng("vc-witness")
        a = random_nonempty(d6, r, F(1, 2))
        res = vc_dimension(a, cap=3)
        if res.witness:
            traces = set()
            members = set(a)
            for g in range(d6.order):
                tr = tuple(d6.mul(d6.invert(g), x) in members for x in res.witness)
                traces.add(tr)
            assert len(traces) == 1 << len(res.witness)


class TestAnchoredSearch:
    """The search from (0,) against the unanchored search from ()."""

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_matches_levelwise_search(self, name):
        g = ZOO[name]
        r = rng(f"vc-anchor-{name}")
        for density in (F(1, 4), F(1, 2), F(2, 3)):
            for _ in range(3):
                a = random_nonempty(g, r, density)
                translates = {frozenset(g.mul(t, x) for x in a) for t in range(g.order)}
                assert len(np.unique(a.translates, axis=0)) == len(translates)
                for cap in range(6):
                    mine = vc_dimension(a, cap)
                    assert mine == levelwise_vc_dimension(a, cap)
                    assert shattered_by_translates(g, a, mine.witness)
                assert mine.value == naive_vc_dimension(a, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["sym:4", "dihedral:6", "ea:2^4"]),
        st.integers(min_value=0),
        st.integers(0, 4),
    )
    def test_property_matches_levelwise_search(self, name, bits, cap):
        g = ZOO[name]
        a = GroupSet(g, bits % (1 << g.order))
        assert vc_dimension(a, cap) == levelwise_vc_dimension(a, cap)

    def test_cap_zero_on_a_proper_set(self, s4):
        a = GroupSet.from_indices(s4, [1, 2, 5])
        assert vc_dimension(a, cap=0) == VcResult(value=0, cap_hit=True, witness=())

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_empty_and_full_sets(self, d6, cap):
        for a in (GroupSet.empty(d6), GroupSet.full(d6)):
            assert vc_dimension(a, cap) == VcResult(value=0, cap_hit=False, witness=())

    def test_nonempty_witnesses_contain_the_identity(self):
        r = rng("vc-anchor-witness")
        for g in ZOO.values():
            for _ in range(4):
                res = vc_dimension(random_nonempty(g, r, F(1, 2)), cap=3)
                assert not res.witness or res.witness[0] == 0

    def test_budget_names_its_limit_and_level(self, monkeypatch):
        monkeypatch.setattr(ablab.vc, "VC_STATE_BUDGET", 10)
        g = elementary_abelian_group(2, 6)
        a = random_nonempty(g, rng("vc-budget"), F(1, 2))
        with pytest.raises(FeasibilityError) as info:
            vc_dimension(a, cap=4)
        assert str(info.value) == (
            "shattering search exceeded 10 candidate sets containing the"
            " identity at level 2"
        )

    def test_budget_exit_is_code_3_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(ablab.vc, "VC_STATE_BUDGET", 10)
        argv = ["diagnose", "--group", "ea:2^6", "--set", "random:density=1/2,seed=3"]
        assert main(argv + ["--vc-cap", "4"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "ablab: budget/cap exhausted: shattering search exceeded 10"
            " candidate sets containing the identity at level 2"
        ]


class TestDepthFirstSearch:
    """Inputs on which the level-wise search exits 3 or its patterns wrap."""

    def test_dense_ea10_answers_at_the_default_cap(self, capsys):
        # The level-wise search kept over 2,000,000 sets at level 4 here.
        assert main(DENSE_EA10) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vc"]["vc_dim"] == 6 and report["vc"]["cap_hit"]
        g = build_group(parse_group_spec("ea:2^10"))
        witness = report["vc"]["witness"]
        assert len(witness) == 6 and witness[0] == 0
        assert shattered_by_translates(g, parse_set_spec(g, DENSE_EA10[-1]), witness)

    @pytest.mark.parametrize("cap", ["9", "10"])
    def test_dense_ea10_at_high_caps_exits_cleanly(self, capsys, cap):
        assert main(DENSE_EA10 + ["--vc-cap", cap]) in (0, 3)
        err = capsys.readouterr().err
        assert len(err.splitlines()) <= 1 and "Traceback" not in err

    @pytest.mark.parametrize("cap", [9, 10])
    def test_de_bruijn_set_is_searched_past_a_byte_of_pattern(self, cap):
        # The translates of a de Bruijn sequence of order 9 in cyclic(512)
        # cut every pattern on {0, ..., 8}: tuples of length 8 are extended,
        # with class patterns of 9 bits.
        seq = [0] * 9
        windows = {tuple(seq)}
        while len(windows) < 512:
            bit = 1 if tuple(seq[-8:] + [1]) not in windows else 0
            seq.append(bit)
            windows.add(tuple(seq[-9:]))
        seq = seq[:512]
        assert len({tuple((seq + seq)[i : i + 9]) for i in range(512)}) == 512
        a = GroupSet.from_indices(cyclic_group(512), [i for i, b in enumerate(seq) if b])
        want = VcResult(value=9, cap_hit=cap == 9, witness=tuple(range(9)))
        assert vc_dimension(a, cap) == want


class TestStabilizer:
    @pytest.mark.parametrize("name", sorted(STAB_ZOO))
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("eps", [F(0), F(1, 3), F(1, 4), F(1)])
    def test_both_thresholdings_match_plain_loop(self, name, side, eps):
        # eps = 1/3 makes eps |G| a non-integer, where floor(eps |G|) is used.
        # The right stabilizer of A is the left one of A^-1.
        g = STAB_ZOO[name]
        r = rng(f"stab-threshold-{name}-{side}-{eps}")
        for density in (F(1, 4), F(1, 2), F(3, 4)):
            a = random_nonempty(g, r, density)
            want = brute_stabilizer(g, a, eps * g.order, side)
            left = a if side == "left" else inverse(a)
            assert set(stabilizer(left, eps).stabilizer) == want
            threshold = eps.numerator * g.order // eps.denominator
            assert set(stabilizer_by_threshold(left, threshold)) == want

    def test_subgroup_small_eps(self, c12):
        h = subgroup_from_indices(c12, [0, 4, 8])
        prof = stabilizer(h.members, F(1, 3))  # eps < 2|H|/|G| = 1/2
        assert prof.stabilizer.mask == h.mask

    def test_eps_two_gives_everything(self, c8):
        a = GroupSet.from_indices(c8, [1, 2])
        assert stabilizer(a, F(2)).stabilizer.card == 8

    def test_brute_force_per_element(self, ea26):
        r = rng("stab-oracle")
        a = random_nonempty(ea26, r, F(1, 2))
        eps = F(1, 4)
        prof = stabilizer(a, eps)
        members = set(a)
        expect = set()
        for x in range(64):
            shifted = {ea26.mul(x, y) for y in members}
            if len(shifted ^ members) * eps.denominator <= eps.numerator * 64:
                expect.add(x)
        assert set(prof.stabilizer) == expect

    def test_monotone_in_eps(self, d6):
        r = rng("stab-mono")
        a = random_nonempty(d6, r, F(1, 2))
        s1 = stabilizer(a, F(1, 8)).stabilizer
        s2 = stabilizer(a, F(1, 4)).stabilizer
        assert s1.issubset(s2)

    def test_symmetric_and_contains_identity(self, s4):
        r = rng("stab-sym")
        for _ in range(5):
            a = random_nonempty(s4, r, F(1, 2))
            s = stabilizer(a, F(1, 5)).stabilizer
            assert 0 in s and s.is_symmetric

    def test_submultiplicative(self, d6):
        r = rng("stab-mult")
        a = random_nonempty(d6, r, F(1, 2))
        eps = F(1, 6)
        s = stabilizer(a, eps).stabilizer
        s2 = stabilizer(a, 2 * eps).stabilizer
        for x in s:
            for y in s:
                assert d6.mul(x, y) in s2


class TestHausslerCheck:
    def test_index_two_subgroup(self, ea24):
        from ablab import enumerate_subgroups

        h = [s for s in enumerate_subgroups(ea24) if s.index == 2][0]
        rep = haussler_check(h.members, F(1, 10))
        assert rep.d == 1 and rep.k == 300
        assert rep.stabilizer_size == 8 and rep.ok

    def test_pair_in_cyclic4(self):
        c4 = cyclic_group(4)
        rep = haussler_check(GroupSet.from_indices(c4, [0, 1]), F(1, 2))
        assert rep.d == 2 and rep.k == 3600 and rep.ok

    def test_inconclusive_when_cap_hit(self, c8):
        rep = haussler_check(GroupSet.from_indices(c8, [0, 1]), F(1, 4), cap=1)
        assert rep.cap_hit and rep.ok is None

    def test_one_translate_gather_per_check(self, translate_gathers, d6):
        # The VC search and Stab_delta(A) read the same gather of A.
        a = random_nonempty(d6, rng("haussler-gather"), F(1, 2))
        haussler_check(a, F(1, 4))
        assert translate_gathers == [a.mask]

    def test_one_translate_gather_per_diagnose(self, translate_gathers, capsys):
        spec = "random:density=1/2,seed=1"
        assert main(["diagnose", "--group", "ea:2^8", "--set", spec, "--vc-cap", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vc"]["vc_dim"] == 3 and report["stabilizer"]
        g = build_group(parse_group_spec("ea:2^8"))
        assert translate_gathers == [parse_set_spec(g, spec).mask]

    def test_delta_bounds(self, c8):
        with pytest.raises(PreconditionError):
            haussler_check(GroupSet.from_indices(c8, [0]), F(3, 2))
