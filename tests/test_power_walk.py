"""Group.powers, the one power walk, and Group.cyclic_masks, which walks it
once per cyclic subgroup: every <x> against the brute-force closure and a
closed form, the element orders read from those masks, the number of walks,
and the CLI commands that read them."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from ablab import build_group, parse_group_spec
from ablab.cli import main
from ablab.groups import Group, cyclic_subgroups_inside, subgroups_inside

from conftest import brute_closure

SPECS = [
    "cyclic:1",
    "cyclic:12",
    "cyclic:64",
    "ea:3^3",
    "dihedral:15",
    "sym:4",
    "alt:5",
    "prod:cyclic:4+cyclic:6",
    "prod:cyclic:2+sym:3",
]


def mask_set(mask: int, n: int) -> set[int]:
    return {i for i in range(n) if mask >> i & 1}


@pytest.mark.parametrize("spec", SPECS)
def test_cyclic_masks_match_brute_closure(spec):
    g = build_group(parse_group_spec(spec))
    masks, orders = g.cyclic_masks(), g.element_orders()
    for x in range(g.order):
        expect = brute_closure(g, [x])
        assert mask_set(masks[x], g.order) == expect
        assert orders[x] == len(expect)
        assert g.powers(x) == [g.pow_elem(x, k) for k in range(len(expect))]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["cyclic", "dihedral"]), n=st.integers(1, 200))
def test_cyclic_masks_match_closed_form(family, n):
    """In cyclic(n), <x> is the multiples of gcd(x, n).  In dihedral(n),
    index e*n + i is s^e r^i: a rotation r^i generates the rotations by
    multiples of gcd(i, n), and a reflection has order 2."""
    g = build_group(parse_group_spec(f"{family}:{n}"))
    masks, orders = g.cyclic_masks(), g.element_orders()
    for x in range(g.order):
        if x < n:
            expect = set(range(0, n, math.gcd(x, n)))
        else:
            expect = {0, x}
        assert mask_set(masks[x], g.order) == expect
        assert orders[x] == len(expect)


@pytest.mark.parametrize(
    "spec, walks", [("cyclic:1024", 11), ("ea:2^4", 16), ("sym:4", 17), ("dihedral:15", 19)]
)
def test_one_walk_per_cyclic_subgroup(spec, walks, monkeypatch):
    """Orders, the cyclic subgroups in a region and the whole lattice all
    read one cache, filled by one walk per distinct cyclic subgroup."""
    g = build_group(parse_group_spec(spec))
    calls = []
    walk = Group.powers
    monkeypatch.setattr(Group, "powers", lambda self, x: calls.append(x) or walk(self, x))
    g.exponent()
    full = (1 << g.order) - 1
    cyclic_subgroups_inside(g, full)
    subgroups_inside(g, full)
    assert len(calls) == len(set(g.cyclic_masks())) == walks


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_lists_the_subgroups_of_cyclic_1024():
    code, out, err = run(["group", "--group", "cyclic:1024", "--subgroups", "--max-index", "1024"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["subgroup_count"] == 11
    assert sorted(h["order"] for h in payload["subgroups"]) == [2**i for i in range(11)]


def test_cli_lists_the_subgroups_of_cyclic_1024_without_max_index():
    # The join budget alone bounds the search at any order; this one takes 10 joins.
    code, out, err = run(["group", "--group", "cyclic:1024", "--subgroups"])
    assert (code, err) == (0, "")
    assert json.loads(out)["subgroup_count"] == 11


@pytest.mark.parametrize("nu, k", [("1/100", 480**2.01), ("1/1000", 480**2.001), ("1000", None)])
def test_regularity_reports_k_beyond_the_float_range(nu, k):
    """k = (30/delta)^d = (30 * 4/eps)^(d + nu), here 480^(2 + nu).  Its
    exact power k^(denominator of nu) overflows a float, so k is computed in
    log space, and is null when k itself is beyond the float range.  The run
    exits 0 with nothing on stderr."""
    argv = ["regularity", "--group", "cyclic:8", "--set", "elems:[0,1]", "--eps", "1/4"]
    code, out, err = run(argv + ["--nu", nu])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["vc_dim"] == 2 and report["success"] is True
    if k is None:
        assert report["k"] is None
    else:
        assert math.isclose(report["k"], k, rel_tol=1e-9)

