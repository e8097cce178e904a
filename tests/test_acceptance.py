"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All arithmetic behind these checks is exact; runtime limits are asserted
where the criterion states one.
"""

import time
from fractions import Fraction as F

import pytest

from ablab import (
    GroupSet,
    SplitRng,
    croot_sisask,
    dihedral_group,
    elementary_abelian_group,
    eval_word,
    largest_subgroup_inside,
    regularity_decompose,
)
from ablab import cli
from ablab.cli import (
    main,
    suite_bohr_size,
    suite_haussler,
    suite_lemma82,
    suite_plunnecke,
    suite_ruzsa,
)

from conftest import brute_power, brute_word, naive_subgroups_inside, planted_coset_union


def _announce(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


class TestExactTheoremSuites:
    def test_1a_ruzsa_triangle(self):
        t0 = time.time()
        rep = suite_ruzsa(SplitRng.from_seed(101).derive("acc-1a"), 1000)
        dt = time.time() - t0
        _announce(
            "1a",
            rep["pass"] and dt <= 60,
            f"{rep['trials']} triples, {len(rep['failures'])} failures, {dt:.1f}s <= 60s",
        )

    def test_1b_product_growth_chain(self):
        t0 = time.time()
        rep = suite_plunnecke(SplitRng.from_seed(102).derive("acc-1b"), 200)
        dt = time.time() - t0
        _announce(
            "1b",
            rep["pass"] and dt <= 60,
            f"{rep['trials']} sets, {len(rep['failures'])} failures, {dt:.1f}s <= 60s",
        )

    def test_1c_bohr_size_and_nesting(self):
        rep = suite_bohr_size(SplitRng.from_seed(103).derive("acc-1c"), 100)
        _announce(
            "1c", rep["pass"], f"{rep['trials']} maps, {len(rep['failures'])} failures"
        )

    def test_1d_coset_structure_postconditions(self):
        rep = suite_lemma82(SplitRng.from_seed(104).derive("acc-1d"), 100)
        _announce(
            "1d", rep["pass"], f"{rep['trials']} pairs, {len(rep['failures'])} failures"
        )

    def test_1e_packing_bound(self):
        rep = suite_haussler(SplitRng.from_seed(105).derive("acc-1e"), 50)
        _announce(
            "1e", rep["pass"], f"{rep['trials']} sets, {len(rep['failures'])} failures"
        )


class TestEffectiveIndexBound:
    def test_2_dense_sets_in_f2_6(self):
        """Exponent-2 groups at density 1/2: the exhaustive oracle must find a
        subgroup of index at most 2^4 inside the quadruple product set."""
        t0 = time.time()
        g = elementary_abelian_group(2, 6)
        r = SplitRng.from_seed(202).derive("acc-2")
        worst = 1
        for i in range(50):
            a = GroupSet(g, r.subset_mask(64, F(1, 2)))
            while a.card < 32:
                a = a | GroupSet.from_indices(g, [r.randint(0, 63)])
            w = eval_word(a, "+-+-")
            wit = largest_subgroup_inside(w, g.whole_subgroup())
            assert wit.method == "exhaustive"
            assert wit.subgroup.members.issubset(w)
            worst = max(worst, wit.index)
            assert wit.index <= 16, f"trial {i}: index {wit.index} > 16"
        dt = time.time() - t0
        _announce("2", dt <= 300, f"50 trials, worst index {worst}, {dt:.1f}s <= 300s")


class TestAlmostPeriodicityContract:
    def test_3_verified_y_with_independent_recheck(self):
        t0 = time.time()
        r = SplitRng.from_seed(303).derive("acc-3")
        groups = [elementary_abelian_group(2, 6), dihedral_group(16)]
        nontrivial = 0
        total = 0
        for gi in range(50):
            g = groups[gi % 2]
            x = None
            for _ in range(30):
                cand = GroupSet(g, r.subset_mask(g.order, F(2, 5)))
                if cand.card == 0:
                    continue
                if brute_power(g, list(cand), 3) and len(
                    brute_power(g, list(cand), 3)
                ) * 1 <= 4 * cand.card:
                    x = cand
                    break
            assert x is not None, "rejection sampling failed to find tripling <= 4"
            y, trace = croot_sisask(x, "tripling", 8)
            total += 1
            if y.card > 1:
                nontrivial += 1
            # independent recomputation: plain set arithmetic, no bit kernels
            w = (
                brute_word(g, list(x), "+-+-")
                & brute_word(g, list(x), "++--")
                & brute_word(g, list(x), "-+-+")
                & brute_word(g, list(x), "--++")
            )
            assert brute_power(g, list(y), 8) <= w, f"trial {gi} containment"
            assert 0 in y and y.is_symmetric
        dt = time.time() - t0
        ok = nontrivial >= 45 and dt <= 600
        _announce("3", ok, f"{nontrivial}/{total} nontrivial Y, {dt:.1f}s <= 600s")


class TestRegularityEndToEnd:
    def test_4_planted_cosets_recovered(self):
        """Unions of two cosets of a planted index-8 subgroup of ea(2,10),
        perturbed on at most one point (0.1% <= 1% of the group)."""
        t0 = time.time()
        g = elementary_abelian_group(2, 10)
        recovered = 0
        successes = 0
        for i in range(20):
            kmask, a = planted_coset_union(g, i)
            rep = regularity_decompose(a, F(1, 4), F(1))
            if rep.success:
                successes += 1
                assert all(rep.flags.values())
                assert rep.structure_defect <= F(1, 4)
            if not kmask & ~rep.subgroup.mask:
                recovered += 1
        dt = time.time() - t0
        ok = recovered >= 16 and successes == 20 and dt <= 600
        _announce(
            "4",
            ok,
            f"{recovered}/20 recovered planted core, {successes}/20 verified, {dt:.1f}s <= 600s",
        )


ORDER_LE_64_ZOO = [
    "cyclic:12",
    "cyclic:24",
    "cyclic:64",
    "ea:2^4",
    "ea:2^6",
    "ea:3^3",
    "dihedral:8",
    "dihedral:16",
    "symmetric:4",
    "alternating:4",
]


class TestOracleEquivalence:
    def test_5_exhaustive_matches_naive_enumeration(self):
        from ablab import bar_closure
        from ablab.cli import get_group

        r = SplitRng.from_seed(505).derive("acc-5")
        checked = 0
        for label in ORDER_LE_64_ZOO:
            g = get_group(label)
            assert g.order <= 64
            density = F(1, 4) if g.order >= 48 else F(2, 5)
            for _ in range(100):
                raw = GroupSet(g, r.subset_mask(g.order, density) | 1)
                w = bar_closure(raw)
                wit = largest_subgroup_inside(w, g.whole_subgroup())
                assert wit.method == "exhaustive"
                naive_best = max(len(s) for s in naive_subgroups_inside(g, set(w)))
                assert wit.subgroup.order == naive_best, (label, sorted(w))
                checked += 1
        _announce("5", checked == 1000, f"{checked} containers across {len(ORDER_LE_64_ZOO)} groups")


class TestDeterminism:
    def test_6_byte_identical_reports_with_cold_and_warm_group_cache(
        self, tmp_path, monkeypatch
    ):
        # A run in a fresh process starts with no cached group, lattice or
        # closure; a later run in the same process reuses all of them.
        pairs = []
        for suite, trials in [("ruzsa", 120), ("lemma82", 40)]:
            a = tmp_path / f"{suite}-cold.json"
            b = tmp_path / f"{suite}-warm.json"
            base = ["verify", "--suite", suite, "--trials", str(trials), "--seed", "77"]
            monkeypatch.setattr(cli, "_GROUP_CACHE", {})
            assert main(base + ["--out", str(a)]) == 0
            assert cli._GROUP_CACHE
            assert main(base + ["--out", str(b)]) == 0
            pairs.append(a.read_bytes() == b.read_bytes())
        _announce("6", all(pairs), f"{len(pairs)} suites byte-identical, cold and warm cache")
