"""The one subgroup closure, kernels.join_mask, against plain-loop oracles.

closure_mask folds join_mask over a seed, and mode_sets takes sigma as the
closure of V; each is checked against brute_closure or a plain union of
the powers V^k, on abelian and nonabelian zoo groups.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ablab import build_group, mode_sets, parse_group_spec
from ablab import kernels

from conftest import brute_closure, brute_product, random_nonempty, rng

ABELIAN = ["cyclic:12", "ea:2^5", "ea:3^3"]
NONABELIAN = ["sym:4", "dihedral:6", "alt:5", "prod:cyclic:2+sym:3"]
ZOO = {spec: build_group(parse_group_spec(spec)) for spec in ABELIAN + NONABELIAN}


def as_mask(elems) -> int:
    return sum(1 << e for e in set(elems))


def seeds(g, label: str) -> list[list[int]]:
    """The empty seed, {0}, and random seeds of one to five elements."""
    r = rng(f"closure-seeds-{label}")
    out = [[], [0]]
    for size in range(1, 6):
        for _ in range(3):
            out.append(r.sample(range(g.order), size))
    return out


@pytest.fixture(params=ABELIAN + NONABELIAN)
def spec(request):
    return request.param


class TestClosure:
    def test_closure_matches_brute_closure(self, spec):
        g = ZOO[spec]
        for seed in seeds(g, spec):
            want = as_mask(brute_closure(g, seed))
            assert kernels.closure_mask(g, as_mask(seed)) == want
            assert g.closure(as_mask(seed)) == want

    def test_join_matches_brute_closure(self, spec):
        # K = <gens> from a random tuple, then <K, x> for random x, x in K too.
        g = ZOO[spec]
        r = rng(f"join-{spec}")
        for seed in seeds(g, spec):
            gens, x = tuple(seed[:-1]), seed[-1] if seed else 0
            kmask = as_mask(brute_closure(g, gens))
            want = as_mask(brute_closure(g, gens + (x,)))
            assert kernels.join_mask(g, kmask, gens, x) == want
            y = r.randint(0, g.order - 1)
            want_y = as_mask(brute_closure(g, gens + (y,)))
            assert kernels.join_mask(g, kmask, gens, y) == want_y

    @pytest.mark.parametrize("mode", ["alternation", "tripling"])
    def test_sigma_is_the_union_of_the_powers_of_v(self, spec, mode):
        g = ZOO[spec]
        r = rng(f"sigma-{spec}-{mode}")
        for density in (F(1, 16), F(1, 8), F(1, 4)):
            a = random_nonempty(g, r, density)
            ms = mode_sets(a, mode)
            vs = set(ms.v)
            union = vs
            while True:
                nxt = brute_product(g, union, vs)
                if nxt == union:
                    break
                union = nxt
            assert set(ms.sigma.members) == union


@settings(max_examples=80, deadline=None)
@given(label=st.sampled_from(sorted(ZOO)), data=st.data())
def test_closure_and_join_of_random_seed_masks(label, data):
    g = ZOO[label]
    seed = data.draw(st.integers(0, (1 << g.order) - 1))
    members = [e for e in range(g.order) if seed >> e & 1]
    assert kernels.closure_mask(g, seed) == as_mask(brute_closure(g, members))
    gens = tuple(members[:3])
    x = data.draw(st.integers(0, g.order - 1))
    kmask = as_mask(brute_closure(g, gens))
    want = as_mask(brute_closure(g, gens + (x,)))
    assert kernels.join_mask(g, kmask, gens, x) == want
    # Bounded by a set that contains K: 0 exactly when <K, x> leaves it.
    within = kmask | data.draw(st.integers(0, (1 << g.order) - 1))
    if data.draw(st.booleans()):
        within |= want
    got = kernels.join_mask(g, kmask, gens, x, kernels.mask_to_bools(within, g.order))
    assert got == (0 if want & ~within else want)
