"""The word evaluator and the table of mode words.

sets.eval_words evaluates sign-string words with each shared prefix, and
X^-1, computed once; it is checked against the plain-loop brute_word on
abelian and nonabelian zoo groups.  pipelines.MODE_WORDS and
sets.GROWTH_WORD are the only definition of each mode: mode_sets,
plunnecke_check, croot_sisask and the Bogolyubov pipeline read them, and
the work pins count the products each one forms.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ablab import (
    GroupSet,
    PreconditionError,
    bogolyubov_bounded_exponent,
    build_group,
    croot_sisask,
    eval_word,
    eval_words,
    inverse,
    mode_sets,
    parse_group_spec,
    plunnecke_check,
)
from ablab import kernels
from ablab.pipelines import MODE_WORDS
from ablab.sets import GROWTH_WORD

from conftest import brute_product, brute_word, random_nonempty, rng

SPECS = ["cyclic:12", "ea:2^4", "dihedral:6", "sym:4", "prod:cyclic:2+sym:3"]
ZOO = {spec: build_group(parse_group_spec(spec)) for spec in SPECS}
MODES = sorted(MODE_WORDS)

# The empty word, single letters, and words that share prefixes of every
# length with each other ("+-", "+-+", "+-+-", "+-+-+-"; "++", "+++",
# "++--"; "-+", "-+-+") or differ from one only in the last letter.
WORDS = [
    "",
    "+",
    "-",
    "++",
    "+-",
    "-+",
    "--",
    "+++",
    "+-+",
    "+--",
    "-+-",
    "+-+-",
    "++--",
    "-+-+",
    "--++",
    "+-++",
    "+-+-+-",
]


def prefixes(words) -> set[str]:
    """The distinct prefixes of length two or more: one product each."""
    return {w[:i] for w in words for i in range(2, len(w) + 1)}


@contextmanager
def counting(name: str):
    """Record the arguments of every call of kernels.<name>."""
    calls: list[tuple] = []
    original = getattr(kernels, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    with mock.patch.object(kernels, name, wrapper):
        yield calls


def sets_of(g, label: str) -> list[GroupSet]:
    r = rng(label)
    out = [GroupSet.from_indices(g, [0]), GroupSet.from_indices(g, [g.order - 1])]
    out += [random_nonempty(g, r, d) for d in (F(1, 8), F(1, 3), F(2, 3))]
    return out


@pytest.mark.parametrize("spec", SPECS)
def test_eval_words_matches_brute_word(spec):
    g = ZOO[spec]
    for x in sets_of(g, f"words-{spec}"):
        got = eval_words(x, WORDS)
        assert list(got) == WORDS
        for w in WORDS:
            assert set(got[w]) == brute_word(g, list(x), w), w
            assert eval_word(x, w) == got[w]


@pytest.mark.parametrize("spec", SPECS)
def test_eval_words_forms_each_prefix_once(spec):
    g = ZOO[spec]
    x = random_nonempty(g, rng(f"once-{spec}"), F(1, 3))
    with counting("product_mask") as products, counting("inverse_mask") as inverses:
        eval_words(x, WORDS + WORDS[::-1])
    assert len(products) == len(prefixes(WORDS))
    assert len(inverses) == 1
    with counting("inverse_mask") as inverses:
        eval_words(x, ["", "+", "++", "+++"])
    assert inverses == []


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    words=st.lists(st.text(alphabet="+-", max_size=6), max_size=8),
    data=st.data(),
)
def test_eval_words_property(spec, words, data):
    g = ZOO[spec]
    x = GroupSet(g, data.draw(st.integers(0, (1 << g.order) - 1)))
    with counting("product_mask") as products:
        got = eval_words(x, words)
    assert set(got) == set(words)
    for w in words:
        assert set(got[w]) == brute_word(g, list(x), w), w
    assert len(products) == len(prefixes(words))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("mode", MODES)
def test_mode_sets_against_brute_force(spec, mode):
    g = ZOO[spec]
    for x in sets_of(g, f"mode-{spec}-{mode}"):
        ms = mode_sets(x, mode)
        members = list(x)
        expect_w = set(range(g.order))
        for w in MODE_WORDS[mode]:
            expect_w &= brute_word(g, members, w)
        assert set(ms.w) == expect_w
        for w, s in ms.words.items():
            assert set(s) == brute_word(g, members, w), w
        growth = GROWTH_WORD[mode]
        assert ms.growth_k == F(len(brute_word(g, members, growth)), x.card)
        assert plunnecke_check(x, mode).k == ms.growth_k


@pytest.mark.parametrize("mode", MODES)
def test_mode_sets_forms_each_prefix_once(mode):
    g = ZOO["sym:4"]
    x = random_nonempty(g, rng(f"mode-once-{mode}"), F(1, 4))
    words = ("+-",) + MODE_WORDS[mode] + (GROWTH_WORD[mode],)
    with counting("product_mask") as products:
        mode_sets(x, mode)
    assert len(products) == len(prefixes(words)) == {"tripling": 13, "alternation": 3}[mode]


# Sparse sets, so that V is neither X nor a tripling-mode Y*.  With n = 1
# the alternation ladder never squares its Y*, which there may be V itself.
CS_INPUTS = [("ea:2^4", F(1, 4)), ("dihedral:6", F(1, 6)), ("sym:4", F(1, 8))]


@pytest.mark.parametrize("spec,density", CS_INPUTS)
@pytest.mark.parametrize("mode", MODES)
def test_croot_sisask_forms_v_squared_once(spec, density, mode):
    g = ZOO[spec]
    x = random_nonempty(g, rng(f"vv-{spec}-{mode}"), density)
    v = mode_sets(x, mode).v.mask
    with counting("product_mask") as products:
        _, trace = croot_sisask(x, mode, 1)
    assert trace.sets.v.mask == v
    assert sum(1 for _, a, b in products if a == b == v) == 1


def test_croot_sisask_forms_ell_once_per_letter():
    # The tripling words start "+", "+", "-", "-": |VX| and |VX^-1| are each
    # formed once and shared by the two ladders of their letter.
    g = ZOO["sym:4"]
    x = random_nonempty(g, rng("ell-sym:4-tripling"), F(1, 8))
    xinv = inverse(x)
    v = mode_sets(x, "tripling").v
    with counting("product_mask") as products:
        _, trace = croot_sisask(x, "tripling", 1)
    assert sum(1 for _, a, b in products if (a, b) == (v.mask, x.mask)) == 1
    assert sum(1 for _, a, b in products if (a, b) == (v.mask, xinv.mask)) == 1
    for t, signs in zip(trace.targets, MODE_WORDS["tripling"]):
        letter = list(x if signs[0] == "+" else xinv)
        assert t.ell == F(len(brute_product(g, list(v), letter)), x.card)


@pytest.mark.parametrize("spec,density", CS_INPUTS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m", [2, 3])
def test_bogolyubov_forms_v_to_the_m_once(spec, density, mode, m):
    g = ZOO[spec]
    x = random_nonempty(g, rng(f"vm-{spec}-{mode}"), density)
    v = mode_sets(x, mode).v.mask
    with counting("power_mask") as powers:
        rep = bogolyubov_bounded_exponent(x, mode, m)
    assert sum(1 for _, mask, k in powers if mask == v and k == m) == 1
    assert rep.trace.sets.v.mask == v
    assert rep.sigma_order == rep.trace.sets.sigma.order


def test_bogolyubov_rejects_negative_m():
    x = GroupSet.from_indices(ZOO["cyclic:12"], [0, 1])
    with pytest.raises(PreconditionError):
        bogolyubov_bounded_exponent(x, "tripling", -1)
