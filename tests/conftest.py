"""Shared fixtures and independent brute-force oracles.

The oracles recompute results with plain Python set arithmetic and element
loops, never through the library's bit-vector kernels, so they can vouch for
them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ablab import (
    Group,
    GroupSet,
    SplitRng,
    alternating_group,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    right_translate,
    symmetric_group,
)
from ablab.vc import DEFAULT_VC_CAP, VcResult


@pytest.fixture(scope="session")
def c8() -> Group:
    return cyclic_group(8)


@pytest.fixture(scope="session")
def c12() -> Group:
    return cyclic_group(12)


@pytest.fixture(scope="session")
def c16() -> Group:
    return cyclic_group(16)


@pytest.fixture(scope="session")
def ea24() -> Group:
    return elementary_abelian_group(2, 4)


@pytest.fixture(scope="session")
def ea26() -> Group:
    return elementary_abelian_group(2, 6)


@pytest.fixture(scope="session")
def d4() -> Group:
    return dihedral_group(4)


@pytest.fixture(scope="session")
def d6() -> Group:
    return dihedral_group(6)


@pytest.fixture(scope="session")
def s3() -> Group:
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4() -> Group:
    return symmetric_group(4)


@pytest.fixture(scope="session")
def small_zoo(c8, c12, ea24, d6, s4) -> list[Group]:
    return [c8, c12, ea24, d6, s4]


@pytest.fixture
def translate_gathers(monkeypatch) -> list:
    """The set mask of every kernels.translate_words gather from then on."""
    from ablab import kernels

    gathered = []
    real = kernels.translate_words

    def counted(group, bits):
        gathered.append(kernels.bools_to_mask(bits))
        return real(group, bits)

    monkeypatch.setattr(kernels, "translate_words", counted)
    return gathered


def rng(label: str, seed: int = 0) -> SplitRng:
    return SplitRng.from_seed(seed).derive(label)


def random_nonempty(g: Group, r: SplitRng, density=Fraction(1, 3)) -> GroupSet:
    mask = r.subset_mask(g.order, density)
    if mask == 0:
        mask = 1 << r.randint(0, g.order - 1)
    return GroupSet(g, mask)


def planted_coset_union(g: Group, i: int) -> tuple[int, GroupSet]:
    """The i-th set of acceptance 4 in ea(2,10): the union of two right
    cosets of a planted index-8 subgroup K, one point flipped when i < 6.
    Returns K's mask and the set."""
    r = SplitRng.from_seed(404).derive(f"acc-4-{i}")
    kmask = 0
    while kmask.bit_count() != 128:
        gens = r.sample(range(1, 1024), 7)
        kmask = g.closure(sum(1 << x for x in gens))
    k = GroupSet(g, kmask)
    r1 = r.randint(0, 1023)
    r2 = r.randint(0, 1023)
    while kmask >> (r1 ^ r2) & 1:
        r2 = r.randint(0, 1023)
    a = right_translate(k, r1) | right_translate(k, r2)
    if i < 6:  # perturbed trials
        a = a ^ GroupSet.from_indices(g, [r.randint(0, 1023)])
    return kmask, a


# --- independent oracles ------------------------------------------------------


def brute_product(g: Group, xs, ys) -> set[int]:
    return {g.mul(x, y) for x in xs for y in ys}


def brute_inverse(g: Group, xs) -> set[int]:
    return {g.invert(x) for x in xs}


def brute_power(g: Group, xs, k: int) -> set[int]:
    acc = {0}
    for _ in range(k):
        acc = brute_product(g, acc, xs)
    return acc


def brute_word(g: Group, xs, signs: str) -> set[int]:
    inv = brute_inverse(g, xs)
    acc = None
    for s in signs:
        term = set(xs) if s == "+" else inv
        acc = term if acc is None else brute_product(g, acc, term)
    return acc if acc is not None else {0}


def brute_closure(g: Group, seed) -> frozenset[int]:
    elems = set(seed) | {0} | {g.invert(x) for x in seed}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for y in list(elems):
            for z in (g.mul(x, y), g.mul(y, x)):
                if z not in elems:
                    elems.add(z)
                    frontier.append(z)
    return frozenset(elems)


def naive_subgroups_inside(g: Group, wset: set[int]) -> set[frozenset[int]]:
    """Join-fixpoint enumeration of every subgroup contained in wset.

    A subgroup is generated by the cyclic subgroups it contains, so each
    round joins every subgroup found in the last round with every cyclic
    subgroup inside wset.  A join is the breadth-first closure of {0} under
    right multiplication by its generators, read from the table as plain
    lists.  Every subgroup holds 0, so a wset without it holds none."""
    if 0 not in wset:
        return set()
    table = g.mult.tolist()

    def close(gens: tuple[int, ...]) -> frozenset[int]:
        elems, frontier = {0}, [0]
        while frontier:
            row = table[frontier.pop()]
            for s in gens:
                if row[s] not in elems:
                    elems.add(row[s])
                    frontier.append(row[s])
        return frozenset(elems)

    cyclics: dict[frozenset[int], int] = {}
    for x in sorted(wset):
        c = close((x,))
        if c <= wset:
            cyclics.setdefault(c, x)
    found = {frozenset([0]): ()}
    last = dict(found)
    while last:
        fresh: dict[frozenset[int], tuple[int, ...]] = {}
        for h, gens in last.items():
            for c, x in cyclics.items():
                if not c <= h:
                    j = close(gens + (x,))
                    if j <= wset and j not in found and j not in fresh:
                        fresh[j] = gens + (x,)
        found.update(fresh)
        last = fresh
    return set(found)


def reindexed_copy(g: Group, hset) -> Group:
    """H as a standalone Group: local element i is the i-th least member of
    H, and the table is read off g's by plain lookups."""
    elems = sorted(hset)
    pos = {x: i for i, x in enumerate(elems)}
    table = [[pos[g.mul(x, y)] for y in elems] for x in elems]
    return Group(np.array(table), f"{g.label}|H{len(elems)}")


def brute_commutator_subgroup(g: Group, hset) -> frozenset[int]:
    """The closure of every commutator x^-1 y^-1 x y of members of H."""
    comms = {
        g.mul(g.mul(g.invert(x), g.invert(y)), g.mul(x, y)) for x in hset for y in hset
    }
    return brute_closure(g, comms)


def brute_quotient(g: Group, hset, nset) -> tuple[list[list[int]], list[int]]:
    """The table of H/N from explicit coset lists Nx, numbered by their least
    members in increasing order, and the coset number of each member of H
    in increasing order."""
    cosets = sorted({frozenset(g.mul(k, x) for k in nset) for x in hset}, key=min)
    number = {x: i for i, coset in enumerate(cosets) for x in coset}
    reps = [min(coset) for coset in cosets]
    table = [[number[g.mul(a, b)] for b in reps] for a in reps]
    return table, [number[x] for x in sorted(hset)]


def brute_stabilizer(g: Group, members, bound, side: str) -> set[int]:
    """Elements x with |xA symdiff A| <= bound (|Ax symdiff A| when
    side="right"), by plain element loops; bound may be a Fraction."""
    members = set(members)
    out = set()
    for x in range(g.order):
        if side == "left":
            moved = {g.mul(x, a) for a in members}
        else:
            moved = {g.mul(a, x) for a in members}
        if len(moved ^ members) <= bound:
            out.add(x)
    return out


def brute_normal_core(g: Group, hset, over) -> frozenset[int]:
    """Elements x of H with a x a^-1 in H for every a in over."""
    hset = set(hset)
    return frozenset(
        x
        for x in hset
        if all(g.mul(g.mul(a, x), g.invert(a)) in hset for a in over)
    )


def brute_right_cosets(g: Group, hset) -> list[frozenset[int]]:
    """The right cosets Hx = {h x : h in H}, each read by table lookups, in
    the order of their least elements."""
    cosets = {frozenset(g.mul(h, x) for h in hset) for x in range(g.order)}
    return sorted(cosets, key=min)


def brute_coset_decomposition(g: Group, hset, members, eps: Fraction) -> dict:
    """D, its defect, Z, the per-coset table and the four coset flags of A in
    the right cosets of H.  Each coset's representative is its least
    element; every comparison is made between Python ints and Fractions."""
    members = set(members)
    n, hord = g.order, len(hset)
    cosets = brute_right_cosets(g, hset)
    d, z, table = set(), set(), []
    for coset in cosets:
        rep = min(coset)
        cin = len(coset & members)
        cout = hord - cin
        if Fraction(cin, hord) >= Fraction(1, 2):
            d |= coset
        exceptional = Fraction(cin * cout, hord**2) ** 2 > eps
        if exceptional:
            z |= coset
        table.append(
            {
                "rep": rep,
                "in_a": cin,
                "out_a": cout,
                "exceptional": exceptional,
                "sparse_ok": Fraction(cin, hord) ** 4 <= eps,
                "dense_ok": Fraction(cout, hord) ** 4 <= eps,
            }
        )
    defect = Fraction(len(d ^ members), n)
    flags = {
        "d_union_of_right_cosets": all(c <= d or not c & d for c in cosets),
        "structure_defect_le_eps": defect <= eps,
        "z_bound": 4 * Fraction(len(z), n) ** 2 < eps,
        "dichotomy_off_z": all(
            row["sparse_ok"] or row["dense_ok"] for row in table if not row["exceptional"]
        ),
    }
    return {"d": d, "defect": defect, "z": z, "table": table, "flags": flags}


def brute_associative(table) -> bool:
    """(xy)z == x(yz) for every triple, by plain element loops."""
    t = [list(map(int, row)) for row in table]
    n = len(t)
    return all(
        t[t[x][y]][z] == t[x][t[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def naive_vc_dimension(a: GroupSet, cap: int = DEFAULT_VC_CAP) -> int:
    """Plain enumeration with set arithmetic, no pruning: the largest d <= cap
    such that some d-set is shattered.  Only sensible for |G| <= 32 or so."""
    g = a.group
    members = set(a)
    translates = {frozenset(g.mul(t, x) for x in members) for t in range(g.order)}
    best = 0
    for d in range(1, cap + 1):
        if not any(
            len({tuple(e in tr for e in x) for tr in translates}) == 1 << d
            for x in itertools.combinations(range(g.order), d)
        ):
            break
        best = d
    return best


def levelwise_vc_dimension(a: GroupSet, cap: int) -> VcResult:
    """Unanchored level-wise shattering search, started from the empty set.

    Survivors of level k are all shattered k-sets as sorted tuples in
    lexicographic order, so the witness is the lexicographically smallest
    shattered set of the last level reached.  Membership is read from
    plain Python sets of translates.
    """
    g = a.group
    n = g.order
    members = set(a)
    translates = {frozenset(g.mul(t, x) for x in members) for t in range(n)}
    if len(translates) <= 1:
        return VcResult(value=0, cap_hit=False, witness=())

    def shattered(x) -> bool:
        return len({tuple(e in tr for e in x) for tr in translates}) == 1 << len(x)

    survivors: list[tuple[int, ...]] = [()]
    witness: tuple[int, ...] = ()
    for level in range(1, cap + 1):
        fresh = [
            x + (w,)
            for x in survivors
            for w in range(x[-1] + 1 if x else 0, n)
            if shattered(x + (w,))
        ]
        if not fresh:
            return VcResult(value=level - 1, cap_hit=False, witness=witness)
        survivors = fresh
        witness = survivors[0]
    return VcResult(value=cap, cap_hit=True, witness=witness)


def random_loop(g: Group, r: SplitRng, swaps: int = 3) -> np.ndarray:
    """Cayley table of g with a few random intercalates swapped.

    An intercalate is a 2x2 subsquare [[a, b], [b, a]]; swapping its two
    symbols keeps the table a Latin square.  Swaps avoid row 0, column 0
    and symbol 0, so the result is a loop with two-sided inverses that is
    usually not associative.  g must have even order: a group table has an
    intercalate only if the group has an element of order 2.  Even that is
    not enough (in cyclic(4) every such intercalate holds symbol 0), so
    after 1000 n tries per swap it raises ValueError.  In a group of order
    n >= 5 with an involution, a try succeeds with probability about 1/n
    or more.
    """
    t = np.array(g.mult, dtype=np.int64)
    n = g.order
    done = tries = 0
    while done < swaps:
        if tries == 1000 * n * swaps:
            raise ValueError(f"{g.label} gave {done} of {swaps} swaps in {tries} tries")
        tries += 1
        x, y, u = (r.randint(1, n - 1) for _ in range(3))
        a, b = t[x, u], t[y, u]
        v = int(np.flatnonzero(t[x] == b)[0])
        if x != y and v != 0 and 0 not in (a, b) and t[y, v] == a:
            t[x, u], t[y, u], t[x, v], t[y, v] = b, a, a, b
            done += 1
    return t
