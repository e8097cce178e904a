"""groups.subgroups_inside, the one exhaustive subgroup search, against the
plain-loop oracle naive_subgroups_inside, with and without a cached lattice;
the lattice sizes of ea(2,k), which are the Galois numbers; and its join
budget in the library, the subgroup oracle and the CLI."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ablab.cli
import ablab.groups
from ablab import (
    FeasibilityError,
    GroupSet,
    bar_closure,
    build_group,
    largest_subgroup_inside,
    parse_group_spec,
)
from ablab.cli import main
from ablab.groups import Group, subgroups_inside

from conftest import naive_subgroups_inside, random_nonempty, rng

SPECS = [
    "cyclic:12",
    "ea:2^4",
    "ea:3^2",
    "sym:4",
    "dihedral:6",
    "alt:4",
    "dihedral:64",
    "prod:cyclic:2+sym:3",
]
ZOO = {spec: build_group(parse_group_spec(spec)) for spec in SPECS}


def uncached(spec: str) -> Group:
    """A copy of the zoo group whose subgroup lattice is not cached."""
    g = ZOO[spec]
    return Group(g.mult, g.label)


def as_sets(g: Group, masks: list[int]) -> set[frozenset[int]]:
    return {frozenset(i for i in range(g.order) if m >> i & 1) for m in masks}


def regions(g: Group, label: str) -> list[int]:
    """Random symmetric regions that contain 0, sparse to dense, and G."""
    r = rng(f"subgroup-search-{label}")
    out = [
        bar_closure(random_nonempty(g, r, density)).mask
        for density in (F(1, 6), F(1, 3), F(1, 2), F(2, 3))
        for _ in range(2)
    ]
    return out + [(1 << g.order) - 1]


def check_region(g: Group, region: int) -> None:
    masks = subgroups_inside(g, region)
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), m))
    assert len(set(masks)) == len(masks), "a subgroup was emitted twice"
    wset = {i for i in range(g.order) if region >> i & 1}
    assert as_sets(g, masks) == naive_subgroups_inside(g, wset)


@pytest.mark.parametrize("spec", SPECS)
class TestSubgroupsInside:
    def test_search_matches_naive_oracle(self, spec):
        for region in regions(ZOO[spec], spec):
            g = uncached(spec)
            check_region(g, region)
            # Only a search of the whole group fills the cache.
            assert (g._lattice is not None) == (region == (1 << g.order) - 1)

    def test_cached_lattice_filter_matches_naive_oracle(self, spec):
        g = uncached(spec)
        subgroups_inside(g, (1 << g.order) - 1)
        for region in regions(g, spec):
            check_region(g, region)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(SPECS), bits=st.integers(min_value=0), cached=st.booleans())
def test_property_matches_naive_oracle(spec, bits, cached):
    g = uncached(spec)
    if cached:
        subgroups_inside(g, (1 << g.order) - 1)
    check_region(g, bar_closure(GroupSet(g, bits % (1 << g.order))).mask)


# Subgroups of ea(2,k), the Galois numbers G_k(2) (OEIS A006116).
GALOIS_NUMBERS = {1: 2, 2: 5, 3: 16, 4: 67, 5: 374, 6: 2825, 7: 29212}


@pytest.mark.parametrize("k", sorted(GALOIS_NUMBERS))
def test_ea2_lattice_sizes_are_the_galois_numbers(k):
    g = build_group(parse_group_spec(f"ea:2^{k}"))
    masks = subgroups_inside(g, (1 << g.order) - 1)
    assert len(masks) == len(set(masks)) == GALOIS_NUMBERS[k]


class TestOrderlyJoinCount:
    """In ea(2,k) every join the orderly search makes is accepted, so the
    whole lattice costs exactly one join per subgroup besides {0}."""

    def _lattice(self, monkeypatch, budget: int) -> list[int]:
        monkeypatch.setattr(ablab.groups, "SUBGROUP_JOIN_BUDGET", budget)
        g = build_group(parse_group_spec("ea:2^6"))
        return subgroups_inside(Group(g.mult, g.label), (1 << g.order) - 1)

    def test_ea2_6_fits_2824_joins(self, monkeypatch):
        assert len(self._lattice(monkeypatch, 2824)) == 2825

    def test_ea2_6_exceeds_2823_joins(self, monkeypatch):
        with pytest.raises(FeasibilityError, match="exceeded 2823 coset joins"):
            self._lattice(monkeypatch, 2823)


def test_cli_lists_the_29212_subgroups_of_ea2_7(capsys, monkeypatch):
    monkeypatch.setattr(ablab.cli, "_GROUP_CACHE", {})
    assert main(["group", "--group", "ea:2^7", "--subgroups"]) == 0
    assert json.loads(capsys.readouterr().out)["subgroup_count"] == 29212


class TestJoinBudget:
    @pytest.fixture(autouse=True)
    def ten_joins(self, monkeypatch):
        monkeypatch.setattr(ablab.groups, "SUBGROUP_JOIN_BUDGET", 10)

    def test_library_names_the_limit(self):
        g = uncached("sym:4")
        with pytest.raises(FeasibilityError, match=r"^subgroup search exceeded 10 coset"
                           r" joins after finding \d+ subgroups$"):
            subgroups_inside(g, (1 << g.order) - 1)
        assert g._lattice is None

    def test_oracle_falls_back_to_the_heuristic(self):
        g = uncached("sym:4")
        whole = GroupSet.full(g)
        witness = largest_subgroup_inside(whole, g.whole_subgroup())
        assert witness.method == "heuristic"
        assert witness.subgroup.mask == whole.mask

    def test_cli_exits_3_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(ablab.cli, "_GROUP_CACHE", {})
        assert main(["group", "--group", "sym:4", "--subgroups"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("ablab: budget/cap exhausted: subgroup search exceeded 10")
