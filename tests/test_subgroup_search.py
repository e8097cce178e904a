"""groups.subgroups_inside, the one exhaustive subgroup search, against the
plain-loop oracle naive_subgroups_inside, with and without a cached lattice;
the lattice sizes of ea(2,k), which are the Galois numbers; its join budget
in the library, the subgroup oracle and the CLI; and the subgroup oracle
largest_subgroup_inside against the largest naive subgroup, with the work
it skips when the region is itself a subgroup."""

from __future__ import annotations

import json
import re
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import ablab.cli
import ablab.groups
import ablab.kernels
import ablab.pipelines
from ablab import (
    FeasibilityError,
    GroupSet,
    PreconditionError,
    Subgroup,
    bar_closure,
    build_group,
    cyclic_group,
    largest_subgroup_inside,
    parse_group_spec,
    parse_set_spec,
    regularity_decompose,
    right_translate,
    subgroup_candidates_inside,
)
from ablab.cli import main
from ablab.groups import Group, subgroups_inside

from conftest import (
    brute_power,
    brute_stabilizer,
    naive_subgroups_inside,
    random_nonempty,
    rng,
)

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

    def test_one_node_batches_match_the_default_run(self, spec, monkeypatch):
        default = {r: subgroups_inside(uncached(spec), r) for r in regions(ZOO[spec], spec)}
        sizes = []
        real = ablab.groups._pop_batch

        def recorded(*args):
            batch = real(*args)
            sizes.append(len(batch))
            return batch

        monkeypatch.setattr(ablab.groups, "_SEARCH_BATCH_CELLS", 1)
        monkeypatch.setattr(ablab.groups, "_pop_batch", recorded)
        for region, masks in default.items():
            g = uncached(spec)
            assert subgroups_inside(g, region) == masks
            check_region(g, region)
        assert set(sizes) <= {0, 1} and 1 in sizes


@pytest.mark.parametrize("cached", [False, True], ids=["search", "cached"])
def test_region_without_the_identity_holds_no_subgroup(cached):
    # Every subgroup holds 0, so a region without it holds none, not {0}.
    for g in [cyclic_group(4)] + [uncached(spec) for spec in SPECS]:
        full = (1 << g.order) - 1
        if cached:
            subgroups_inside(g, full)
        holed = [0, 0b1010, full & ~1] + [r & ~1 for r in regions(g, g.label)]
        for region in holed:
            check_region(g, region)
        assert (g._lattice is not None) == cached


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


@pytest.mark.parametrize("k", [4, 5, 6])
def test_ea2_lattice_needs_no_join_mask_call(k, join_calls):
    # Every greedy step in ea(2,k) has index 2 or starts from {0}.
    g = build_group(parse_group_spec(f"ea:2^{k}"))
    join_calls.clear()
    assert len(subgroups_inside(Group(g.mult, g.label), (1 << g.order) - 1)) == GALOIS_NUMBERS[k]
    assert join_calls == []


def test_sym4_lattice_still_calls_join_mask(join_calls):
    g = uncached("sym:4")
    join_calls.clear()
    subgroups_inside(g, (1 << g.order) - 1)
    assert join_calls


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

    @pytest.mark.parametrize("batch_cells", [ablab.groups._SEARCH_BATCH_CELLS, 1])
    def test_sym4_count_does_not_depend_on_the_batches(self, monkeypatch, batch_cells):
        # 53 joins, whether a batch holds the whole stack or one node.
        monkeypatch.setattr(ablab.groups, "_SEARCH_BATCH_CELLS", batch_cells)
        monkeypatch.setattr(ablab.groups, "SUBGROUP_JOIN_BUDGET", 53)
        assert len(subgroups_inside(uncached("sym:4"), (1 << 24) - 1)) == 30
        monkeypatch.setattr(ablab.groups, "SUBGROUP_JOIN_BUDGET", 52)
        with pytest.raises(FeasibilityError, match="exceeded 52 coset joins"):
            subgroups_inside(uncached("sym:4"), (1 << 24) - 1)


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
        # sym(4) without element 1, the transposition (0, 1, 3, 2): symmetric,
        # not a subgroup, and its search needs more than 10 joins.
        g = uncached("sym:4")
        region = GroupSet(g, ((1 << g.order) - 1) & ~(1 << 1))
        witness = largest_subgroup_inside(region, g.whole_subgroup())
        assert witness.method == "heuristic"
        assert not witness.subgroup.mask & ~region.mask
        assert g.closure(witness.subgroup.mask) == witness.subgroup.mask

    def test_oracle_answers_the_whole_group_without_a_join(self, join_calls):
        g = uncached("sym:4")
        whole = GroupSet.full(g)
        join_calls.clear()
        witness = largest_subgroup_inside(whole, g.whole_subgroup())
        assert witness.method == "exhaustive"
        assert witness.subgroup.mask == whole.mask
        assert join_calls == []

    def test_cli_exits_3_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(ablab.cli, "_GROUP_CACHE", {})
        assert main(["group", "--group", "sym:4", "--subgroups"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("ablab: budget/cap exhausted: subgroup search exceeded 10")

    def test_cli_ea2_10_exits_3_on_the_join_budget(self, capsys, monkeypatch):
        # The join budget, not the order of ea(2,10), ends its search.
        monkeypatch.setattr(ablab.cli, "_GROUP_CACHE", {})
        assert main(["group", "--group", "ea:2^10", "--subgroups"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("ablab: budget/cap exhausted: subgroup search exceeded 10")


# --- the subgroup oracle ---------------------------------------------------------

ORACLE_SPECS = [spec for spec in SPECS if spec != "dihedral:64"]


def _counting(monkeypatch, name: str) -> list:
    """Patch kernels.<name> where the library reads it; return the list of
    calls made from then on.  Building a group joins (its table check), so
    tests clear the list after building theirs."""
    calls = []
    real = getattr(ablab.kernels, name)

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    for module in (ablab.kernels, ablab.groups):
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def join_calls(monkeypatch) -> list:
    return _counting(monkeypatch, "join_mask")


@pytest.fixture
def product_calls(monkeypatch) -> list:
    return _counting(monkeypatch, "product_mask")


def mask_of(elems) -> int:
    return sum(1 << i for i in elems)


@cache
def naive_lattice(spec: str) -> tuple[int, ...]:
    """Masks of every subgroup of the zoo group, by (order, mask)."""
    g = ZOO[spec]
    found = naive_subgroups_inside(g, set(range(g.order)))
    return tuple(sorted(map(mask_of, found), key=lambda m: (m.bit_count(), m)))


def naive_largest(g: Group, region: int) -> int:
    """The largest subgroup inside the region; among those, the least mask."""
    wset = {i for i in range(g.order) if region >> i & 1}
    masks = map(mask_of, naive_subgroups_inside(g, wset))
    return min(masks, key=lambda m: (-m.bit_count(), m))


def oracle_cases(spec: str) -> list[tuple[int, int]]:
    """(region, ambient) masks.  The ambients are G and a largest proper
    subgroup sigma; in each, the regions are the ambient, every subgroup of
    it, the union of its two least nontrivial subgroups (never a subgroup)
    and random symmetric regions."""
    g = ZOO[spec]
    lattice = naive_lattice(spec)
    r = rng(f"oracle-{spec}")
    cases = []
    for ambient in (lattice[-1], lattice[-2]):
        inside = [h for h in lattice if not h & ~ambient]
        cases += [(h, ambient) for h in inside]
        if len(inside) > 3:
            cases.append((inside[1] | inside[2], ambient))
        for density in (F(1, 3), F(1, 2), F(2, 3)):
            raw = r.subset_mask(g.order, density) & ambient
            cases.append((bar_closure(GroupSet(g, raw)).mask, ambient))
    return cases


def check_oracle(g: Group, region: int, ambient: int) -> None:
    witness = largest_subgroup_inside(GroupSet(g, region), Subgroup(g, ambient))
    assert witness.method == "exhaustive"
    assert witness.subgroup.mask == naive_largest(g, region)
    assert witness.index == ambient.bit_count() // witness.subgroup.order


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_oracle_matches_naive_largest(spec):
    cases = oracle_cases(spec)
    for region, ambient in cases:
        check_oracle(uncached(spec), region, ambient)
    # Both kinds of region occur: subgroups, answered by the product check,
    # and regions that are not, answered by the search.
    g = ZOO[spec]
    assert {naive_largest(g, region) == region for region, _ in cases} == {True, False}


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(ORACLE_SPECS),
    bits=st.integers(min_value=0),
    proper=st.booleans(),
    close=st.booleans(),
)
def test_property_oracle_matches_naive_largest(spec, bits, proper, close):
    g = uncached(spec)
    lattice = naive_lattice(spec)
    ambient = lattice[-2] if proper else lattice[-1]
    region = bar_closure(GroupSet(g, bits & ambient)).mask
    if close:
        region = g.closure(region)
    check_oracle(g, region, ambient)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_subgroup_region_needs_no_join_and_no_lattice(spec, join_calls):
    lattice = naive_lattice(spec)
    for h in (lattice[-1], lattice[-2], lattice[1]):
        g = uncached(spec)
        join_calls.clear()
        witness = largest_subgroup_inside(GroupSet(g, h), g.whole_subgroup())
        assert (witness.method, witness.subgroup.mask) == ("exhaustive", h)
        assert join_calls == []
        assert g._lattice is None


class TestOraclePreconditions:
    """Each container breaks the named condition and every later one, so
    the checks must run in order; they run before any product."""

    @staticmethod
    def _cases():
        g = uncached("sym:4")
        alt4 = Subgroup(g, naive_lattice("sym:4")[-2])
        assert alt4.order == 12
        # Element 1 is a transposition, odd and its own inverse; y is the
        # least 4-cycle, odd and not its own inverse.
        y = next(x for x in range(g.order) if g.cyclic_masks()[x].bit_count() == 4)
        return [
            (GroupSet(g, 1 << y), alt4, "container must contain the identity"),
            (GroupSet(g, 1 | 1 << y), alt4, "container must be symmetric"),
            (GroupSet(g, 0b11), alt4, "container must lie inside the ambient subgroup"),
        ]

    @pytest.mark.parametrize("oracle", [largest_subgroup_inside, subgroup_candidates_inside])
    def test_messages_and_order(self, oracle, product_calls):
        cases = self._cases()
        product_calls.clear()
        for w, ambient, message in cases:
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                oracle(w, ambient)
        assert product_calls == []


def test_cli_ea2_8_tripling_is_answered_exhaustively(capsys, monkeypatch):
    # The region is all of ea(2,8), whose 417,199 subgroups are beyond the
    # join budget: only the product check can prove it largest.
    monkeypatch.setattr(ablab.cli, "_GROUP_CACHE", {})
    argv = "bogolyubov --group ea:2^8 --set random:density=1/2,seed=1 --mode tripling"
    assert main(argv.split()) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert (witness["method"], witness["subgroup"]["order"]) == ("exhaustive", 256)
    assert ablab.cli._GROUP_CACHE["ea:2^8"]._lattice is None


# --- the regularity pipeline's question to the oracle ------------------------------

REGULARITY_EPS = (F(1, 9), F(1, 4), F(1), F(4), F(16))


def check_regularity(a: GroupSet, eps: F, nu: F) -> tuple[int, bool]:
    """The regularity H against the largest naive subgroup inside B^4 that
    lies in Stab_eps(A), both read with plain element loops.  Returns H's
    order and whether that region is itself a subgroup."""
    g = a.group
    rep = regularity_decompose(a, eps, nu)
    b4 = brute_power(g, list(rep.b), 4)
    stab = brute_stabilizer(g, a, eps * g.order, "left")
    region = mask_of(b4 & stab)
    assert rep.subgroup.mask == naive_largest(g, region)
    assert rep.method == ("trivial" if rep.d == 0 else "exhaustive")
    assert rep.retries == 0 and rep.success
    return rep.subgroup.order, rep.subgroup.mask == region


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_regularity_subgroup_matches_naive_largest(spec):
    # Random sets, and unions of two right cosets of each proper nontrivial
    # subgroup, one of them with a point flipped.
    g = ZOO[spec]
    r = rng(f"regularity-{spec}")
    sets = [random_nonempty(g, r, density) for density in (F(1, 4), F(1, 2), F(3, 4))]
    for h in naive_lattice(spec)[1:-1]:
        a = right_translate(GroupSet(g, h), r.randint(0, g.order - 1))
        a |= right_translate(GroupSet(g, h), r.randint(0, g.order - 1))
        sets += [a, a ^ GroupSet.from_indices(g, [r.randint(0, g.order - 1)])]
    orders = [check_regularity(a, eps, F(1))[0] for a in sets for eps in REGULARITY_EPS]
    assert max(orders) > 1


@pytest.mark.parametrize(
    "spec, elems",
    [
        ("cyclic:12", [0, 5, 7]),
        ("dihedral:6", [0, 1, 2, 8, 9]),
        ("prod:cyclic:2+sym:3", [1, 4, 5, 6, 8, 9, 11]),
    ],
)
def test_regularity_region_that_is_not_a_subgroup(spec, elems):
    # Most regions B^4 ∩ Stab_eps(A) are subgroups; at eps = 4 these nine
    # elements are not, so the oracle's list search answers.
    order, closed = check_regularity(GroupSet.from_indices(ZOO[spec], elems), F(4), F(1))
    assert (order, closed) == (3, False)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(ORACLE_SPECS),
    bits=st.integers(min_value=0),
    which=st.integers(min_value=0),
    eps=st.sampled_from(REGULARITY_EPS),
    nu=st.sampled_from((F(1), F(1, 2), F(2))),
)
def test_property_regularity_subgroup_matches_naive_largest(spec, bits, which, eps, nu):
    g = ZOO[spec]
    lattice = naive_lattice(spec)
    a = GroupSet(g, (bits ^ lattice[which % len(lattice)]) & ((1 << g.order) - 1))
    check_regularity(a, eps, nu)


def test_regularity_on_a_subgroup_region_builds_no_lattice(monkeypatch, join_calls):
    # The golden input regularity_ea6_cosets: B^4 is a subgroup of order 32
    # inside Stab_eps(A), answered by one product check.
    searches = []

    def counted(g, region):
        searches.append(region)
        return subgroups_inside(g, region)

    monkeypatch.setattr(ablab.pipelines, "subgroups_inside", counted)
    g = build_group(parse_group_spec("ea:2^6"))
    a = parse_set_spec(g, "cosets:H=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],reps=[0,17]")
    join_calls.clear()
    rep = regularity_decompose(a, F(1, 4), F(1))
    assert (rep.method, rep.subgroup.order) == ("exhaustive", 32)
    assert searches == [] and join_calls == []
    assert g._lattice is None
