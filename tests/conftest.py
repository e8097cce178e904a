"""Shared fixtures and independent brute-force oracles.

The oracles recompute results with plain Python set arithmetic and element
loops, never through the library's bit-vector kernels, so they can vouch for
them.
"""

from __future__ import annotations

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
    symmetric_group,
)
from ablab.vc import VcResult


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


def rng(label: str, seed: int = 0) -> SplitRng:
    return SplitRng.from_seed(seed).derive(label)


def random_nonempty(g: Group, r: SplitRng, density=Fraction(1, 3)) -> GroupSet:
    mask = r.subset_mask(g.order, density)
    if mask == 0:
        mask = 1 << r.randint(0, g.order - 1)
    return GroupSet(g, mask)


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
    """Join-fixpoint enumeration of every subgroup contained in wset."""
    found = {frozenset([0])}
    for x in wset:
        c = brute_closure(g, [x])
        if c <= wset:
            found.add(c)
    while True:
        fresh = set()
        pool = sorted(found, key=sorted)
        for i, a in enumerate(pool):
            for b in pool[i + 1 :]:
                j = brute_closure(g, a | b)
                if j <= wset and j not in found:
                    fresh.add(j)
        if not fresh:
            return found
        found |= fresh


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
        return VcResult(0, False, ())

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
            return VcResult(level - 1, False, witness)
        survivors = fresh
        witness = survivors[0]
    return VcResult(cap, True, witness)


def random_loop(g: Group, r: SplitRng, swaps: int = 3) -> np.ndarray:
    """Cayley table of g with a few random intercalates swapped.

    An intercalate is a 2x2 subsquare [[a, b], [b, a]]; swapping its two
    symbols keeps the table a Latin square.  Swaps avoid row 0, column 0
    and symbol 0, so the result is a loop with two-sided inverses that is
    usually not associative.  g must have even order: a group table has an
    intercalate only if the group has an element of order 2.
    """
    t = np.array(g.mult, dtype=np.int64)
    n = g.order
    done = 0
    while done < swaps:
        x, y, u = (r.randint(1, n - 1) for _ in range(3))
        a, b = t[x, u], t[y, u]
        v = int(np.flatnonzero(t[x] == b)[0])
        if x != y and v != 0 and 0 not in (a, b) and t[y, v] == a:
            t[x, u], t[y, u], t[x, v], t[y, v] = b, a, a, b
            done += 1
    return t
