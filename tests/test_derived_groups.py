"""Derived groups read from the parent's table, against plain-loop oracles:
commutator_subgroup against the closure of every commutator, quotient_by
against a table built from explicit coset lists, and characters and the
homomorphism defect on a subgroup against the same on a reindexed copy of
it, for proper subgroups taken from the lattices of abelian and nonabelian
zoo groups."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ablab import build_group, characters, enumerate_subgroups, parse_group_spec
from ablab.groups import Subgroup, commutator_subgroup, core_within, quotient_by
from ablab.torus import TorusMap

from conftest import (
    brute_commutator_subgroup,
    brute_normal_core,
    brute_quotient,
    reindexed_copy,
    rng,
)

SPECS = [
    "sym:4",
    "dihedral:8",
    "alt:4",
    "alt:5",
    "ea:2^4",
    "cyclic:12",
    "prod:cyclic:4+cyclic:8",
    # Element 1 is central, so it is the first greedy generator of every
    # subgroup that holds it, nonabelian ones among them.
    "prod:sym:4+cyclic:2",
]
ZOO = {spec: build_group(parse_group_spec(spec)) for spec in SPECS}


def members(h: Subgroup) -> frozenset[int]:
    return frozenset(int(x) for x in h.element_indices())


def proper_subgroups(spec: str) -> list[Subgroup]:
    g = ZOO[spec]
    return [h for h in enumerate_subgroups(g) if h.order < g.order]


def normal_in(g, hset, over) -> bool:
    return brute_normal_core(g, hset, over) == frozenset(hset)


def check_quotient(h: Subgroup, nmask: int) -> None:
    g = h.parent
    nset = {x for x in range(g.order) if nmask >> x & 1}
    table, proj = brute_quotient(g, members(h), nset)
    q, got = quotient_by(h, nmask)
    assert q.mult.tolist() == table
    assert got.tolist() == proj


def check_characters(h: Subgroup) -> None:
    copy = reindexed_copy(h.parent, members(h))
    want = characters(copy)
    got = characters(h)
    assert got.domain == h and got.den == want.den
    assert np.array_equal(got.nums, want.nums)


@pytest.mark.parametrize("spec", SPECS)
class TestDerivedGroupsOfSubgroups:
    def test_commutator_subgroup_is_the_closure_of_the_commutators(self, spec):
        for h in proper_subgroups(spec):
            want = brute_commutator_subgroup(h.parent, members(h))
            assert members(commutator_subgroup(h)) == want

    def test_quotient_matches_explicit_cosets(self, spec):
        g = ZOO[spec]
        subs = enumerate_subgroups(g)
        for h in proper_subgroups(spec):
            for n in subs:
                if not n.mask & ~h.mask and normal_in(g, members(n), members(h)):
                    check_quotient(h, n.mask)

    def test_characters_match_a_reindexed_copy(self, spec):
        for h in proper_subgroups(spec):
            check_characters(h)

    def test_defect_matches_a_reindexed_copy(self, spec):
        r = rng(f"derived-defect-{spec}")
        for h in proper_subgroups(spec):
            copy = reindexed_copy(h.parent, members(h))
            nums = [[0, 0]] + [
                [r.randint(0, 11), r.randint(0, 11)] for _ in range(h.order - 1)
            ]
            want = TorusMap(copy.whole_subgroup(), 12, np.array(nums)).defect()
            assert TorusMap(h, 12, np.array(nums)).defect() == want


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.sets(st.integers(0, 119), max_size=3), data=st.data())
def test_property_random_subgroups(spec, seed, data):
    # H is generated by a few random elements; N is the core in H of a
    # subgroup generated inside H, so it is normal in H.
    g = ZOO[spec]
    h = Subgroup(g, g.closure(sum(1 << (x % g.order) for x in seed) | 1))
    inner = data.draw(st.sets(st.sampled_from(sorted(members(h))), max_size=2))
    k = Subgroup(g, g.closure(sum(1 << x for x in inner) | 1))
    n = core_within(k, h)
    assert members(commutator_subgroup(h)) == brute_commutator_subgroup(g, members(h))
    check_quotient(h, n.mask)
    check_characters(h)
