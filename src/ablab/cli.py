"""Command-line front end: group/set parsing, pipeline orchestration,
deterministic randomness, and canonical JSON/CSV report emission.

Exit codes: 0 all verifications passed, 2 parse error, 3 budget or cap
exhausted, 4 internal theorem-violation (reproducer dumped).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import bohr as bohr_mod
from . import kernels, pipelines, sets, torus, vc
from .errors import (
    AblabError,
    FeasibilityError,
    SpecSyntaxError,
    TheoremViolationError,
)
from .groups import (
    DEFAULT_SIZE_BUDGET,
    Group,
    _check_budget,
    _lattice_masks,
    build_group,
    enumerate_subgroups,
    parse_group_spec,
    subgroups_inside,
)
from .reporting import canonical_dumps
from .rng import SplitRng
from .sets import GroupSet, parse_fraction, parse_set_spec

_GROUP_CACHE: dict[str, Group] = {}


def get_group(spec_text: str, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    """Build the group once per spec; a cached group still honours budget."""
    if spec_text not in _GROUP_CACHE:
        _GROUP_CACHE[spec_text] = build_group(parse_group_spec(spec_text), budget)
    g = _GROUP_CACHE[spec_text]
    _check_budget(g.order, budget)
    return g


def _emit(args, payload) -> None:
    text = canonical_dumps(payload)
    if args.out and args.out != "-":
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _nonempty_random(g: Group, r: SplitRng, density: Fraction) -> GroupSet:
    mask = r.subset_mask(g.order, density)
    if mask == 0:
        mask = 1 << r.randint(0, g.order - 1)
    return GroupSet(g, mask)


def _run_trials(suite: str, fn, trials: int, rng: SplitRng) -> dict:
    """Run fn(i, stream) for each trial and build the suite's report; fn
    returns None on a pass and a failure record otherwise."""
    results = (fn(i, rng.derive(f"trial-{i}")) for i in range(trials))
    failures = [f for f in results if f]
    return {"suite": suite, "trials": trials, "failures": failures, "pass": not failures}


# --- verify suites ----------------------------------------------------------------


RUZSA_ZOO = [
    "cyclic:13",
    "cyclic:24",
    "cyclic:40",
    "cyclic:64",
    "ea:2^4",
    "ea:2^6",
    "ea:2^8",
    "dihedral:6",
    "dihedral:8",
    "symmetric:4",
]


def suite_ruzsa(rng: SplitRng, trials: int) -> dict:
    groups = [get_group(lbl) for lbl in RUZSA_ZOO]

    def trial(i: int, r: SplitRng):
        g = r.choice(groups)
        xs = [
            _nonempty_random(g, r, Fraction(r.randint(5, 60), 100)) for _ in range(3)
        ]
        if sets.ruzsa_triangle_ok(*xs):
            return None
        return {"trial": i, "group": g.label, "sets": [sorted(s) for s in xs]}

    return _run_trials("ruzsa", trial, trials, rng)


PLUNNECKE_ZOO = [
    "cyclic:16",
    "cyclic:32",
    "ea:2^4",
    "ea:2^5",
    "dihedral:6",
    "symmetric:4",
]


def suite_plunnecke(rng: SplitRng, trials: int) -> dict:
    groups = [get_group(lbl) for lbl in PLUNNECKE_ZOO]

    def trial(i: int, r: SplitRng):
        g = r.choice(groups)
        x = _nonempty_random(g, r, Fraction(r.randint(10, 50), 100))
        mode = "tripling" if r.randint(0, 1) else "alternation"
        try:
            sets.plunnecke_check(x, mode)
        except TheoremViolationError as exc:
            return {"trial": i, "group": g.label, "mode": mode, "detail": exc.reproducer}
        return None

    return _run_trials("plunnecke", trial, trials, rng)


BOHR_ZOO = ["cyclic:36", "cyclic:128", "ea:2^6", "ea:3^4", "prod:cyclic:4+cyclic:8"]
_BOHR_DELTAS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]


def suite_bohr_size(rng: SplitRng, trials: int) -> dict:
    groups = [get_group(lbl) for lbl in BOHR_ZOO]
    char_pool = {g.label: torus.characters(g) for g in groups}

    def trial(i: int, r: SplitRng):
        g = r.choice(groups)
        chars = char_pool[g.label]
        dims = r.randint(1, 3)
        tau = chars.select([r.randint(0, chars.dim - 1) for _ in range(dims)])
        delta = r.choice(_BOHR_DELTAS)
        h = g.whole_subgroup()
        b = bohr_mod.bohr_set(h, tau, delta)
        size_ok = Fraction(b.card) >= delta**dims * g.order
        nest_ok = sets.product(b, b).issubset(bohr_mod.bohr_set(h, tau, 2 * delta))
        if size_ok and nest_ok:
            return None
        return {
            "trial": i,
            "group": g.label,
            "delta": [delta.numerator, delta.denominator],
            "dims": dims,
            "size_ok": size_ok,
            "nest_ok": nest_ok,
        }

    return _run_trials("bohr-size", trial, trials, rng)


LEMMA82_ZOO = ["cyclic:24", "cyclic:32", "ea:2^5", "ea:2^6", "dihedral:8", "symmetric:4"]
_LEMMA82_EPS = [Fraction(1, 4), Fraction(1, 9), Fraction(1, 16)]


def _structured_set(g: Group, r: SplitRng) -> GroupSet:
    k = r.choice([m for m in _lattice_masks(g) if m.bit_count() >= 2])
    mask = 0
    for _, cmask in pipelines.coset_masks(g, k):
        if r.randint(0, 1):
            mask |= cmask
    for _ in range(r.randint(0, 2)):
        mask ^= 1 << r.randint(0, g.order - 1)
    if mask == 0:
        mask = 1 << r.randint(0, g.order - 1)
    return GroupSet(g, mask)


def suite_lemma82(rng: SplitRng, trials: int) -> dict:
    groups = [get_group(lbl) for lbl in LEMMA82_ZOO]
    for g in groups:
        _lattice_masks(g)  # fill the lattice caches, which the oracle then filters

    def trial(i: int, r: SplitRng):
        g = r.choice(groups)
        a = (
            _structured_set(g, r)
            if r.randint(0, 1)
            else _nonempty_random(g, r, Fraction(r.randint(20, 80), 100))
        )
        eps = r.choice(_LEMMA82_EPS)
        stab = vc.stabilizer(a, eps).stabilizer
        masks = sorted(subgroups_inside(g, stab.mask), key=pipelines._largest_first)
        hmask = masks[min(r.randint(0, 2), len(masks) - 1)]
        h = pipelines.Subgroup(g, hmask, verify=False)
        if all(pipelines.coset_decomposition(a, h, eps).flags.values()):
            return None
        return {"trial": i, "group": g.label, "set": sorted(a), "eps": str(eps)}

    return _run_trials("lemma82", trial, trials, rng)


def _low_vc_set(g: Group, r: SplitRng) -> GroupSet:
    gens = r.sample(range(1, g.order), r.randint(4, 6))
    kmask = g.closure(kernels.indices_to_mask(gens, g.order))
    reps = [r.randint(0, g.order - 1) for _ in range(r.randint(1, 2))]
    mask = 0
    for rep in reps:
        mask |= sets.right_translate(GroupSet(g, kmask), rep).mask
    if r.randint(0, 1):
        mask ^= 1 << r.randint(0, g.order - 1)
    if mask == 0:
        mask = 1
    return GroupSet(g, mask)


def suite_haussler(rng: SplitRng, trials: int) -> dict:
    g = get_group("ea:2^8")

    def trial(i: int, r: SplitRng):
        delta = r.choice([Fraction(1, 4), Fraction(1, 8)])
        for _ in range(6):
            a = _low_vc_set(g, r)
            try:
                report = vc.haussler_check(a, delta, cap=4)
            except TheoremViolationError as exc:
                return {"trial": i, "detail": exc.reproducer}
            if report.ok is not None:
                return None
        return {"trial": i, "detail": "no conclusive low-VC set found"}

    return _run_trials("haussler", trial, trials, rng)


def _regression_checks() -> list[tuple[str, bool]]:
    from .groups import abelianization, exponent, normal_core, subgroup_from_indices

    out: list[tuple[str, bool]] = []
    c8 = get_group("cyclic:8")
    c4 = get_group("cyclic:4")
    c6 = get_group("cyclic:6")
    c16 = get_group("cyclic:16")
    d4 = get_group("dihedral:4")
    s3 = get_group("symmetric:3")
    s4 = get_group("symmetric:4")
    a5 = get_group("alternating:5")
    ea22 = get_group("ea:2^2")

    out.append(("exponent dihedral(4) = 4", exponent(d4) == 4))
    out.append(("exponent symmetric(4) = 12", exponent(s4) == 12))
    out.append(("subgroup count cyclic(6) = 4", len(enumerate_subgroups(c6)) == 4))
    out.append(("subgroup count ea(2,2) = 5", len(enumerate_subgroups(ea22)) == 5))
    out.append(("subgroup count symmetric(3) = 6", len(enumerate_subgroups(s3)) == 6))
    out.append(("abelianization symmetric(3) has order 2", abelianization(s3)[0].order == 2))
    out.append(("abelianization alternating(5) trivial", abelianization(a5)[0].order == 1))
    chars8 = torus.characters(c8)
    out.append(
        (
            "characters cyclic(8) are k x/8",
            chars8.dim == 8
            and all(
                chars8.value(x).coords[k] == Fraction(k * x, 8) % 1
                for k in range(8)
                for x in range(8)
            ),
        )
    )
    out.append(
        (
            "bar closure {1,3} in cyclic(8)",
            sorted(sets.bar_closure(GroupSet.from_indices(c8, [1, 3]))) == [0, 1, 3, 5, 7],
        )
    )
    rz = sets.ruzsa_distance(
        GroupSet.from_indices(c8, [0, 1]), GroupSet.from_indices(c8, [0, 4])
    )
    out.append(("ruzsa cross set {0,1,4,5}", rz.cross == 4))
    gp = sets.growth_profile(GroupSet.from_indices(c8, [0, 1, 2]))
    out.append(("tripling of {0,1,2} in cyclic(8) = 7/3", gp.tripling == Fraction(7, 3)))
    cover = sets.covering_number(
        GroupSet.from_indices(c8, range(6)),
        GroupSet.from_indices(c8, [0, 1]),
        GroupSet.full(c8),
        exact=True,
    )
    out.append(("exact covering {0..5} by {0,1} = 3", cover == 3))
    tau = chars8.select([1])
    bset = bohr_mod.bohr_set(c8.whole_subgroup(), tau, Fraction(1, 4))
    out.append(("bohr set cyclic(8) delta=1/4 = {0,1,7}", sorted(bset) == [0, 1, 7]))
    f = torus.TorusMap.from_values(
        c4.whole_subgroup(),
        [[Fraction(0)], [Fraction(1, 4)], [Fraction(1, 2)], [Fraction(7, 10)]],
    )
    out.append(("hom defect example = 1/10", torus.hom_defect(f) == Fraction(1, 10)))
    out.append(
        (
            "torus distance max(1/4,2/5) = 2/5",
            torus.torus_distance(
                torus.TorusVec((Fraction(0), Fraction(0))),
                torus.TorusVec((Fraction(1, 4), Fraction(2, 5))),
            )
            == Fraction(2, 5),
        )
    )
    out.append(
        ("vc of {0,1} in cyclic(4) = 2", vc.vc_dimension(GroupSet.from_indices(c4, [0, 1])).value == 2)
    )
    w = GroupSet.from_indices(c6, [0, 2, 3, 4])
    best = pipelines.largest_subgroup_inside(w, c6.whole_subgroup())
    out.append(("largest subgroup in {0,2,3,4} of cyclic(6)", sorted(best.subgroup.members) == [0, 2, 4]))
    h = subgroup_from_indices(c8, [0, 4])
    prof = vc.stabilizer(h.members, Fraction(1, 8))
    out.append(("stabilizer of a subgroup at small eps is itself", prof.stabilizer.mask == h.mask))
    k12 = get_group("cyclic:12")
    hsub = subgroup_from_indices(k12, [0, 3, 6, 9])
    y, trace = pipelines.croot_sisask(hsub.members, "alternation", 4)
    out.append(("almost-periodicity on a subgroup returns it", y.mask == hsub.mask))
    cert = sets.plunnecke_check(GroupSet.from_indices(c16, [0, 1, 2]), "alternation")
    word3 = sets.eval_word(GroupSet.from_indices(c16, [0, 1, 2]), "+-+-+-")
    out.append(
        (
            "alternation example: k=7/3 and |(XX^-1)^3| = 13",
            cert.k == Fraction(7, 3) and word3.card == 13,
        )
    )
    core = normal_core(s3, subgroup_from_indices(s3, [0, 1]))
    out.append(("normal core of order-2 subgroup of symmetric(3) is trivial", core.order == 1))
    ea24 = get_group("ea:2^4")
    half = enumerate_subgroups(ea24, max_index=2)
    ksub = [s for s in half if s.index == 2][0]
    rep = pipelines.regularity_decompose(ksub.members, Fraction(1, 5), Fraction(1))
    out.append(
        (
            "regularity on an index-2 subgroup records delta = 1/12000",
            rep.delta_exact == Fraction(1, 12000) and rep.success,
        )
    )
    return out


def suite_regression(rng: SplitRng, trials: int) -> dict:
    checks = _regression_checks()

    def trial(i: int, r: SplitRng):
        name, ok = checks[i]
        return None if ok else {"check": name}

    return _run_trials("regression", trial, len(checks), rng)


SUITES = {
    "ruzsa": (suite_ruzsa, 1000),
    "plunnecke": (suite_plunnecke, 200),
    "bohr-size": (suite_bohr_size, 100),
    "lemma82": (suite_lemma82, 100),
    "haussler": (suite_haussler, 50),
    "regression": (suite_regression, 1),
}


# --- command handlers ---------------------------------------------------------------


def cmd_group(args) -> int:
    g = get_group(args.group, args.size_budget)
    payload = {
        "label": g.label,
        "order": g.order,
        "exponent": g.exponent(),
        "abelian": g.is_abelian,
        "signature": g.signature,
    }
    if args.subgroups:
        subs = enumerate_subgroups(g, max_index=args.max_index)
        payload["subgroups"] = subs
        payload["subgroup_count"] = len(subs)
    _emit(args, payload)
    return 0


def cmd_diagnose(args) -> int:
    g = get_group(args.group, args.size_budget)
    a = parse_set_spec(g, args.set)
    payload: dict = {"group": g.label, "set": a}
    payload["growth"] = sets.growth_profile(a)
    payload["vc"] = vc.vc_dimension(a, args.vc_cap)
    eps = parse_fraction(args.eps)
    payload["stabilizer"] = vc.stabilizer(a, eps)
    _emit(args, payload)
    return 0


def cmd_croot_sisask(args) -> int:
    g = get_group(args.group, args.size_budget)
    a = parse_set_spec(g, args.set)
    y, trace = pipelines.croot_sisask(a, args.mode, args.n)
    _emit(args, {"y": y, "trace": trace})
    return 0


def cmd_bogolyubov(args) -> int:
    g = get_group(args.group, args.size_budget)
    a = parse_set_spec(g, args.set)
    report = pipelines.bogolyubov_bounded_exponent(a, args.mode, args.m, normalize=args.normalize)
    _emit(args, report)
    return 0 if report.all_verified else 3


def cmd_regularity(args) -> int:
    g = get_group(args.group, args.size_budget)
    a = parse_set_spec(g, args.set)
    report = pipelines.regularity_decompose(
        a, parse_fraction(args.eps), parse_fraction(args.nu), vc_cap=args.vc_cap
    )
    # Open the CSV first, so an unwritable path stops the run before any report.
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as fh:
        _emit(args, report)
        if fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=["rep", "in_a", "out_a", "exceptional", "sparse_ok", "dense_ok"],
            )
            writer.writeheader()
            writer.writerows(report.table)
    return 0 if report.success else 3


def cmd_bohr_search(args) -> int:
    g = get_group(args.group, args.size_budget)
    a = parse_set_spec(g, args.set)
    ms = pipelines.mode_sets(a, args.mode)
    grid = [parse_fraction(tok) for tok in args.deltas.split(",")]
    witness = bohr_mod.bohr_witness_search(
        ms.w, ms.sigma, args.n_max, grid, max_maps=args.budget or None
    )
    payload = {
        "container_card": ms.w.card,
        "sigma_order": ms.sigma.order,
        "found": witness is not None,
        "witness": witness,
    }
    _emit(args, payload)
    return 0


def cmd_saturation(args) -> int:
    g = get_group(args.group, args.size_budget)
    a = parse_set_spec(g, args.set)
    b = parse_set_spec(g, args.set_b) if args.set_b else None
    c = parse_set_spec(g, args.set_c) if args.set_c else None
    report = pipelines.dense_saturation_check(a, b, c)
    _emit(args, report)
    return 0


def cmd_verify(args) -> int:
    fn, default_trials = SUITES[args.suite]
    trials = args.trials if args.trials else default_trials
    rng = SplitRng.from_seed(args.seed).derive(f"suite:{args.suite}")
    report = fn(rng, trials)
    report["seed"] = args.seed
    _emit(args, report)
    return 0 if report["pass"] else 4


# --- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a bad command line as one parse-error line, not usage text."""
        raise SpecSyntaxError(message)


def _int_at_least(low: int):
    """argparse type for an integer option whose smallest valid value is low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_NONNEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call; each parse_args starts a fresh namespace."""
    parser = _Parser(
        prog="ablab",
        description="Exact additive-combinatorics laboratory for finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_set=True):
        p.add_argument("--group", required=True, help="group spec, e.g. cyclic:8 or ea:2^6")
        if with_set:
            p.add_argument("--set", required=True, help="set literal, e.g. interval:0..2")
        p.add_argument("--size-budget", type=_POSITIVE, default=DEFAULT_SIZE_BUDGET)
        p.add_argument("--out", default="-")

    p = sub.add_parser("group", help="build and inspect a group")
    common(p, with_set=False)
    p.add_argument("--subgroups", action="store_true")
    p.add_argument("--max-index", type=_POSITIVE, default=None)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("diagnose", help="growth profile, VC dimension, stabilizer")
    common(p)
    p.add_argument("--eps", default="1/4")
    p.add_argument("--vc-cap", type=_NONNEGATIVE, default=vc.DEFAULT_VC_CAP)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("croot-sisask", help="almost-periodicity search")
    common(p)
    p.add_argument("--mode", choices=["tripling", "alternation"], default="tripling")
    p.add_argument("--n", type=_POSITIVE, default=8)
    p.set_defaults(func=cmd_croot_sisask)

    p = sub.add_parser("bogolyubov", help="subgroup witness inside W(A)")
    common(p)
    p.add_argument("--mode", choices=["tripling", "alternation"], default="tripling")
    p.add_argument("--m", type=_NONNEGATIVE, default=4)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_bogolyubov)

    p = sub.add_parser("regularity", help="stabilizer-based regularity decomposition")
    common(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--vc-cap", type=_NONNEGATIVE, default=vc.DEFAULT_VC_CAP)
    p.add_argument("--csv", default=None, help="write the per-coset table as CSV")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("bohr-search", help="Bohr witness inside W(A)")
    common(p)
    p.add_argument("--mode", choices=["tripling", "alternation"], default="tripling")
    p.add_argument("--n-max", type=_POSITIVE, default=2)
    p.add_argument("--deltas", default="1/2,1/4,1/8")
    p.add_argument("--budget", type=_NONNEGATIVE, default=4096,
                   help="most character maps to try, counted before the search; 0: no limit")
    p.set_defaults(func=cmd_bohr_search)

    p = sub.add_parser("saturation", help="product-saturation measurements")
    common(p)
    p.add_argument("--set-b", default=None)
    p.add_argument("--set-c", default=None)
    p.set_defaults(func=cmd_saturation)

    p = sub.add_parser("verify", help="run an exact-theorem suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--trials", type=_NONNEGATIVE, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if value == []:  # argparse reads "--opt=--" as an empty list
                raise SpecSyntaxError(f"--{name.replace('_', '-')} needs a value")
        return args.func(args)
    except SpecSyntaxError as exc:
        print(f"ablab: parse error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"ablab: budget/cap exhausted: {exc}", file=sys.stderr)
        return 3
    except TheoremViolationError as exc:
        print(f"ablab: internal theorem violation: {exc}", file=sys.stderr)
        sys.stderr.write(canonical_dumps(exc.reproducer))
        return 4
    except (AblabError, OSError) as exc:  # OSError: an unwritable --out or --csv
        print(f"ablab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
