"""coset_decomposition against a plain-loop oracle, and the walks it saves.

Each case compares D, its defect, Z, the per-coset table and the four coset
flags with brute_coset_decomposition, which forms the right cosets from table
lookups and decides every comparison with Python ints and Fractions.  The
eps grid holds 1/16 besides 1/17, 1/4 and 1: a coset that A fills exactly
half of then sits on every boundary at once, 2|C∩A| = |H|, |C∩A|^4 = eps
|H|^4 and (|C∩A| |C\\A|)^2 = eps |H|^4.
"""

from __future__ import annotations

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ablab import (
    GroupMismatchError,
    GroupSet,
    PreconditionError,
    build_group,
    coset_decomposition,
    cyclic_group,
    enumerate_subgroups,
    parse_group_spec,
    parse_set_spec,
    regularity_decompose,
    right_translate,
)
from ablab import groups, pipelines
from ablab.pipelines import mode_sets, subgroup_candidates_inside

from conftest import brute_coset_decomposition, brute_right_cosets, rng

SPECS = ["cyclic:12", "ea:2^4", "dihedral:6", "sym:4", "alt:4"]
EPS_GRID = [F(1, 17), F(1, 16), F(1, 4), F(1)]

@functools.cache
def group(spec: str):
    return build_group(parse_group_spec(spec))


def compare(a: GroupSet, h, eps: F):
    """Assert that coset_decomposition agrees with the oracle; return it."""
    dec = coset_decomposition(a, h, eps)
    want = brute_coset_decomposition(a.group, set(h.members), set(a), eps)
    assert set(dec.d_set) == want["d"]
    assert dec.defect == want["defect"]
    assert set(dec.z) == want["z"]
    assert dec.table == want["table"]
    assert dec.flags == want["flags"]
    return dec


def cases_for(g, hset, r) -> list[GroupSet]:
    """Empty, full, random, unions of cosets with and without a flipped
    point, and sets that fill each coset exactly or nearly half."""
    n = g.order
    cosets = brute_right_cosets(g, hset)
    every_other = set().union(*cosets[::2])
    halves = [set(sorted(c)[: len(c) // 2]) for c in cosets]
    ceil_halves = [set(sorted(c)[: (len(c) + 1) // 2]) for c in cosets]
    flip = r.randint(0, n - 1)
    picks = [
        set(),
        set(range(n)),
        every_other,
        every_other ^ {flip},
        set().union(*halves),
        set().union(*ceil_halves[::2], *halves[1::2]),
    ]
    randoms = [GroupSet(g, r.subset_mask(n, d)) for d in (F(1, 2), F(1, 5))]
    return [GroupSet.from_indices(g, sorted(s)) for s in picks] + randoms


@pytest.mark.parametrize("spec", SPECS)
def test_matches_oracle_on_every_subgroup(spec):
    g = group(spec)
    r = rng(f"coset-decomposition-{spec}")
    seen = set()
    for h in enumerate_subgroups(g):
        for a in cases_for(g, set(h.members), r):
            for eps in EPS_GRID:
                dec = compare(a, h, eps)
                seen |= set(dec.flags.items())
                seen |= {("exceptional", row["exceptional"]) for row in dec.table}
                if eps == F(1, 16) and h.order > 1:
                    seen |= {"half" for row in dec.table if 2 * row["in_a"] == h.order}
    for key in ("exceptional", "z_bound", "structure_defect_le_eps"):
        assert {(key, True), (key, False)} <= seen
    assert "half" in seen


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    data=st.data(),
    num=st.integers(1, 12),
    den=st.integers(1, 12),
    power=st.sampled_from([1, 2, 4]),
)
def test_matches_oracle_property(spec, data, num, den, power):
    """eps = (num/den)^power: squares and fourth powers can put a coset
    exactly on the exceptional or the sparse/dense boundary."""
    g = group(spec)
    subs = enumerate_subgroups(g)
    h = subs[data.draw(st.integers(0, len(subs) - 1), label="subgroup")]
    mask = data.draw(st.integers(0, (1 << g.order) - 1), label="set mask")
    dec = compare(GroupSet(g, mask), h, F(num, den) ** power)
    assert dec.flags["d_union_of_right_cosets"] and dec.flags["dichotomy_off_z"]


def test_preconditions():
    c8, c4 = cyclic_group(8), cyclic_group(4)
    a = GroupSet.from_indices(c8, [0, 1])
    with pytest.raises(PreconditionError):
        coset_decomposition(a, c8.whole_subgroup(), F(0))
    with pytest.raises(GroupMismatchError):
        coset_decomposition(a, c4.whole_subgroup(), F(1, 4))


def test_whole_group_has_one_coset():
    """H = G, as on the d = 0 path of regularity_decompose: D is A when A is
    G and empty when A is, and every flag holds."""
    g = group("sym:4")
    for a in (GroupSet.empty(g), GroupSet.full(g)):
        dec = compare(a, g.whole_subgroup(), F(1, 4))
        assert dec.d_set == a and dec.defect == 0 and dec.z.card == 0
        assert len(dec.table) == 1 and all(dec.flags.values())


@pytest.fixture
def coset_walks(monkeypatch) -> list[int]:
    """The subgroup mask of every coset walk made while the test runs."""
    walks: list[int] = []
    walk = groups.coset_walk

    def counting(g, hmask):
        walks.append(hmask)
        return walk(g, hmask)

    monkeypatch.setattr(groups, "coset_walk", counting)
    monkeypatch.setattr(pipelines, "coset_walk", counting)
    return walks


def test_one_coset_walk_per_regularity_decompose(coset_walks):
    ea26 = group("ea:2^6")
    k = [s for s in enumerate_subgroups(ea26) if s.index == 4][0]
    planted = right_translate(k.members, 1) | right_translate(k.members, 9)
    s4 = group("sym:4")
    cases = [
        planted,
        planted ^ GroupSet.from_indices(ea26, [3]),
        parse_set_spec(s4, "random:density=1/2,seed=1"),
        GroupSet.empty(ea26),
    ]
    for a in cases:
        coset_walks.clear()
        rep = regularity_decompose(a, F(1, 4), F(1))
        assert coset_walks == [rep.subgroup.mask]


def test_heuristic_oracle_computes_one_stabilizer(translate_gathers):
    """The container is symmetric, so its right stabilizer is its left one:
    one translate_words gather of the container per heuristic oracle call."""
    g = group("ea:2^10")
    ms = mode_sets(parse_set_spec(g, "random:density=1/2,seed=1"), "tripling")
    translate_gathers.clear()
    _, method = subgroup_candidates_inside(ms.w, ms.sigma)
    assert method == "heuristic" and translate_gathers == [ms.w.mask]
