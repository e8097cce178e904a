"""Golden canonical reports.

Canonical JSON is the compatibility surface of ablab, so every report here is
compared byte for byte with a file committed under tests/golden/.  The CLI
cases run `ablab` in-process; the library cases cover report classes that no
CLI command emits.

After an intended change of a report's format, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from ablab import (
    GroupSet,
    build_group,
    cyclic_group,
    elementary_abelian_group,
    parse_group_spec,
    symmetric_group,
)
from ablab.bohr import round_to_homomorphism
from ablab.cli import main
from ablab.reporting import canonical_dumps
from ablab.sets import plunnecke_check, ruzsa_distance
from ablab.torus import TorusMap
from ablab.vc import haussler_check

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    "diagnose_cyclic8_interval": "diagnose --group cyclic:8 --set interval:0..2",
    "diagnose_ea4_cap_hit": (
        "diagnose --group ea:2^4 --set random:density=1/2,seed=3 --vc-cap 1"
    ),
    "croot_sisask_ea6_tripling": (
        "croot-sisask --group ea:2^6 --set random:density=1/2,seed=7 "
        "--mode tripling --n 8"
    ),
    "croot_sisask_ea5_degenerate": (
        "croot-sisask --group ea:2^5 --set elems:[2,12,14,18,19,25] "
        "--mode tripling --n 8"
    ),
    "croot_sisask_cyclic256_interval_tripling": (
        "croot-sisask --group cyclic:256 --set interval:0..20 --mode tripling --n 1"
    ),
    "bogolyubov_ea6_tripling": (
        "bogolyubov --group ea:2^6 --set random:density=1/2,seed=7 --mode tripling"
    ),
    "bogolyubov_sym4_alternation_normalize": (
        "bogolyubov --group sym:4 --set random:density=1/2,seed=7 "
        "--mode alternation --normalize"
    ),
    "bogolyubov_dihedral64_tripling_normalize": (
        "bogolyubov --group dihedral:64 --set random:density=1/16,seed=3 "
        "--mode tripling --normalize"
    ),
    "bogolyubov_alt6_alternation_proper_ambient": (
        "bogolyubov --group alt:6 --set elems:[0,7,13] --mode alternation"
    ),
    "bogolyubov_ea7_tripling": (
        "bogolyubov --group ea:2^7 --set random:density=1/2,seed=1 --mode tripling"
    ),
    "bogolyubov_ea10_tripling_heuristic": (
        "bogolyubov --group ea:2^10 --set random:density=1/2,seed=1 --mode tripling"
    ),
    "bogolyubov_ea10_random64_heuristic": (
        "bogolyubov --group ea:2^10 --set random:density=1/64,seed=1 --mode tripling"
    ),
    "regularity_cyclic1024_interval_heuristic": (
        "regularity --group cyclic:1024 --set interval:0..300 --eps 1/4 --nu 1"
    ),
    "regularity_sym4_random": (
        "regularity --group sym:4 --set random:density=1/2,seed=1 --eps 1/4 --nu 1"
    ),
    "regularity_ea6_cosets": (
        "regularity --group ea:2^6 "
        "--set cosets:H=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],reps=[0,17] "
        "--eps 1/4 --nu 1"
    ),
    "regularity_ea4_empty": "regularity --group ea:2^4 --set elems:[] --eps 1/4 --nu 1",
    "regularity_cyclic8_small_nu": (
        "regularity --group cyclic:8 --set elems:[0,1] --eps 1/4 --nu 1/1000"
    ),
    "regularity_cyclic8_nu1000": (
        "regularity --group cyclic:8 --set elems:[0,1] --eps 1/4 --nu 1000"
    ),
    "regularity_cyclic8_nu2000": (
        "regularity --group cyclic:8 --set elems:[0,1] --eps 1/4 --nu 2000"
    ),
    "bohr_search_cyclic16_tripling": (
        "bohr-search --group cyclic:16 --set interval:0..3 --mode tripling"
    ),
    "bohr_search_prod4x8_tripling_dim1": (
        "bohr-search --group prod:cyclic:4+cyclic:8 --set elems:[0,1,9] "
        "--mode tripling --n-max 1"
    ),
    "bohr_search_dihedral8_none": (
        "bohr-search --group dihedral:8 --set elems:[2,8] --mode tripling --n-max 1"
    ),
    "saturation_alternating5": (
        "saturation --group alternating:5 --set random:density=5/6,seed=1"
    ),
    "verify_regression_seed1": "verify --suite regression --seed 1",
    "group_sym4_subgroups": "group --group sym:4 --subgroups",
}


def _rounding(rows: list[str], delta: F):
    g = cyclic_group(len(rows))
    f = TorusMap.from_values(g.whole_subgroup(), [[F(v)] for v in rows])
    return round_to_homomorphism(f, delta)


def _rounding_prod4x8() -> object:
    """Two perturbed characters of cyclic(4) x cyclic(8), element 8a + b:
    (3a/4 + b/8, a/2 + 5b/8), so the rounding picks two columns."""
    g = build_group(parse_group_spec("prod:cyclic:4+cyclic:8"))
    wiggle = [F(0), F(1, 50), F(-1, 50), F(0)]
    rows = [
        [F(3 * a, 4) + F(b, 8) + wiggle[x % 4], F(a, 2) + F(5 * b, 8) - wiggle[x % 3]]
        for x in range(32)
        for a, b in [divmod(x, 8)]
    ]
    f = TorusMap.from_values(g.whole_subgroup(), rows)
    return round_to_homomorphism(f, F(1, 5))


def _library_cases() -> dict:
    c8 = cyclic_group(8)
    c16 = cyclic_group(16)
    ea4 = elementary_abelian_group(2, 4)
    s4 = symmetric_group(4)
    return {
        "ruzsa_distance_cyclic8": lambda: ruzsa_distance(
            GroupSet.from_indices(c8, [0, 1]), GroupSet.from_indices(c8, [0, 4])
        ),
        "plunnecke_cyclic16_alternation": lambda: plunnecke_check(
            GroupSet.from_indices(c16, [0, 1, 2]), "alternation"
        ),
        "plunnecke_sym4_tripling": lambda: plunnecke_check(
            GroupSet.from_indices(s4, [0, 1, 5, 9]), "tripling"
        ),
        "haussler_ea4_conclusive": lambda: haussler_check(
            GroupSet.from_indices(ea4, [0, 1, 2, 3, 8, 9, 10, 11]), F(1, 4)
        ),
        "haussler_cyclic8_cap_hit": lambda: haussler_check(
            GroupSet.from_indices(c8, [0, 1]), F(1, 4), cap=1
        ),
        "rounding_cyclic4_found": lambda: _rounding(
            ["0", "1/4", "1/2", "7/10"], F(1, 8)
        ),
        "rounding_prod4x8_two_coordinates": _rounding_prod4x8,
    }


LIBRARY_CASES = sorted(_library_cases())


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_golden(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(CLI_CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_library_report_matches_golden(name):
    text = canonical_dumps(_library_cases()[name]())
    assert text.encode() == (GOLDEN / f"{name}.json").read_bytes()


def _write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, line in CLI_CASES.items():
        code = main(line.split() + ["--out", str(GOLDEN / f"{name}.json")])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
    for name, make in _library_cases().items():
        (GOLDEN / f"{name}.json").write_text(canonical_dumps(make()))


if __name__ == "__main__":
    _write_all()
