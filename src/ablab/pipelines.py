"""Constructive pipelines: almost-periodicity search, subgroup discovery
inside symmetric sets, bounded-exponent Bogolyubov witnesses, and the
stabilizer-based regularity decomposition.

Every postcondition that a pipeline reports is re-verified from scratch in
exact arithmetic before the report is emitted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar

import numpy as np

from . import kernels
from .errors import (
    EmptySetError,
    FeasibilityError,
    GroupMismatchError,
    PreconditionError,
    TheoremViolationError,
)
from .groups import (
    UNBOUNDED_ENUMERATION_LIMIT,
    Group,
    Subgroup,
    core_within,
    coset_walk,
    cyclic_subgroups_inside,
    subgroups_inside,
)
from .kernels import bools_to_mask, mask_indices
from .reporting import OMIT, as_key, card, digest
from .rng import SplitRng
from .sets import (
    GROWTH_WORD,
    GroupSet,
    bar_closure,
    covering_number,
    eval_words,
    inverse,
    power,
    product,
)
from .vc import DEFAULT_VC_CAP, stabilizer_by_threshold, vc_dimension

# --- mode bookkeeping ---------------------------------------------------------


# The words of A whose intersection is each mode's containment target W(A):
# A A^-1 A A^-1, A^2 A^-2, A^-1 A A^-1 A and A^-2 A^2 under small tripling,
# (A A^-1)^2 = V^2 under small alternation.
MODE_WORDS = {
    "tripling": ("+-+-", "++--", "-+-+", "--++"),
    "alternation": ("+-+-",),
}


@dataclass(frozen=True, kw_only=True)
class ModeSets:
    """The standard sets attached to a base set in one of the two modes.

    words holds A A^-1, the mode's words and its growth word, keyed by sign
    string; w is the intersection of the mode's words and sigma = <V>.
    """

    mode: str
    base: GroupSet
    v: GroupSet
    w: GroupSet
    words: dict[str, GroupSet]
    sigma: Subgroup
    growth_k: Fraction


def mode_sets(a: GroupSet, mode: str) -> ModeSets:
    if a.card == 0:
        raise EmptySetError("mode_sets needs a nonempty set")
    if mode not in MODE_WORDS:
        raise ValueError(f"unknown mode {mode!r}")
    g = a.group
    growth = GROWTH_WORD[mode]
    words = eval_words(a, ("+-",) + MODE_WORDS[mode] + (growth,))
    v = words["+-"] if mode == "alternation" else bar_closure(a)
    w = GroupSet.full(g)
    for signs in MODE_WORDS[mode]:
        w &= words[signs]
    # V is symmetric and contains 1, so the union of the powers V^k is <V>.
    sigma = Subgroup(g, g.closure(v.mask), verify=False)
    return ModeSets(
        mode=mode,
        base=a,
        v=v,
        w=w,
        words=words,
        sigma=sigma,
        growth_k=Fraction(words[growth].card, a.card),
    )


# --- almost-periodicity search -------------------------------------------------


def _ladder_json(ladder: tuple[tuple[Fraction, Fraction], ...]) -> list[dict]:
    return [{"t": t, "f_estimate": f} for t, f in ladder]


@dataclass(frozen=True, kw_only=True)
class CSTargetTrace:
    label: str
    ell: Fraction
    ladder: tuple[tuple[Fraction, Fraction], ...] = field(
        metadata=as_key("ladder", _ladder_json)
    )
    chosen_t: Fraction | None = None
    chosen_b: GroupSet | None = field(default=None, metadata=as_key("b_card", card))
    threshold: Fraction | None = None
    y_star: GroupSet | None = field(default=None, metadata=as_key("y_star_card", card))
    power_checked: int
    accepted: bool


@dataclass(frozen=True, kw_only=True)
class CSTrace:
    mode: str
    verified_n: int
    y: GroupSet
    w: GroupSet = field(metadata=as_key("w_card", card))
    covering_count: int
    degenerate: bool
    targets: tuple[CSTargetTrace, ...]
    sets: ModeSets = field(metadata=OMIT)


def _greedy_b(x: GroupSet, z: GroupSet, size: int) -> GroupSet:
    """Grow B inside X minimizing |BZ|, one element at a time."""
    g = x.group
    xs = x.indices()
    rows = np.concatenate([r for _, r in kernels.translate_rows(g, z.bools, xs)])
    covered = np.zeros(g.order, dtype=bool)
    avail = np.ones(len(xs), dtype=bool)
    sentinel = np.iinfo(np.int64).max
    mask = 0
    for _ in range(size):
        gains = np.where(avail, (rows & ~covered).sum(axis=1), sentinel)
        pick = int(np.argmin(gains))
        avail[pick] = False
        covered |= rows[pick]
        mask |= 1 << int(xs[pick])
    return GroupSet(g, mask)


def _ystar(v2: GroupSet, b: GroupSet, thr: Fraction, card_x: int) -> GroupSet:
    """{g in V^2 : |gB intersect B| >= thr * |X|}, exact integer comparison."""
    g = v2.group
    bb = b.bools
    out = 0
    for block, rows in kernels.translate_rows(g, bb, v2.indices()):
        counts = (rows & bb).sum(axis=1)
        hit = counts * thr.denominator >= thr.numerator * card_x
        out |= kernels.indices_to_mask(block[hit], g.order)
    return GroupSet(g, out)


def _cs_target(
    label: str,
    signs: str,
    letters: dict[str, GroupSet],
    ms: ModeSets,
    ell: Fraction,
    v2: GroupSet,
    n_pow: int,
) -> CSTargetTrace:
    """Walk the t-ladder t <- t^2/(2 ell) of one word of the mode until some
    Y* in V^2 has its n_pow-th power inside the word, where ell = |VX|/|X|
    for the set X of the word's first letter (X for "+", X^-1 for "-").  The
    rung of size ceil(t |X|) takes B = X while that size reaches |X|, and
    otherwise grows B inside X greedily (`_greedy_b`) to keep |BZ| small,
    where Z is the set of the word's second letter.  That is the only B rule,
    so the ladder is a function of the input alone."""
    x, z, w = letters[signs[0]], letters[signs[1]], ms.words[signs]
    card = x.card
    t = Fraction(1)
    t_min = Fraction(1, card)
    ladder: list[tuple[Fraction, Fraction]] = []
    chosen: dict = {}
    while t >= t_min and len(ladder) < 32:
        size = (t.numerator * card + t.denominator - 1) // t.denominator
        b = x if size >= card else _greedy_b(x, z, size)
        f_est = Fraction(product(b, z).card, card)
        theta = t * t / (2 * ell)
        ladder.append((t, f_est))
        ys = _ystar(v2, b, theta, card)
        if power(ys, n_pow).issubset(w):
            chosen = {"chosen_t": t, "chosen_b": b, "threshold": theta, "y_star": ys}
            break
        t = theta
    return CSTargetTrace(
        label=label,
        ell=ell,
        ladder=tuple(ladder),
        power_checked=n_pow,
        accepted=bool(chosen),
        **chosen,
    )


def croot_sisask(x: GroupSet, mode: str, n: int) -> tuple[GroupSet, CSTrace]:
    """Symmetric Y containing 1 with Y^n inside the mode's containment target.

    One t-ladder runs per word of the mode, each with the greedy B rule of
    `_cs_target`; nothing is drawn at random.  The returned containment is
    re-verified by direct power computation; when no ladder rung verifies,
    the identity singleton is returned and flagged degenerate (always valid,
    never silently wrong).
    """
    if x.card == 0:
        raise EmptySetError("croot_sisask needs a nonempty set")
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    ms = mode_sets(x, mode)
    g = x.group
    letters = {"+": x, "-": inverse(x)}
    v2 = product(ms.v, ms.v)
    alternation = mode == "alternation"
    n_pow = n if alternation else 4 * n
    words = MODE_WORDS[mode]
    ells = {
        s: Fraction(product(ms.v, letters[s]).card, x.card) for s in sorted({w[0] for w in words})
    }
    targets = tuple(
        _cs_target(
            "alt" if alternation else f"pi{i}",
            signs,
            letters,
            ms,
            ells[signs[0]],
            v2,
            n_pow,
        )
        for i, signs in enumerate(words, 1)
    )
    if not all(t.accepted for t in targets):
        y = GroupSet(g, 1)
    elif alternation:
        y = targets[0].y_star
    else:
        inter = GroupSet.full(g)
        for t in targets:
            inter &= product(t.y_star, t.y_star)
        y = product(inter, inter)
    degenerate = y.card <= 1
    if not power(y, n).issubset(ms.w):
        raise TheoremViolationError(
            "croot_sisask containment re-check failed",
            reproducer={"group": g.label, "set": sorted(x), "mode": mode, "n": n},
        )
    if not (0 in y and y.is_symmetric):
        raise TheoremViolationError(
            "croot_sisask produced a non-symmetric Y",
            reproducer={"group": g.label, "set": sorted(x), "mode": mode, "n": n},
        )
    trace = CSTrace(
        mode=mode,
        verified_n=n,
        y=y,
        w=ms.w,
        covering_count=v2.card if degenerate else covering_number(v2, y, v2),
        degenerate=degenerate,
        targets=targets,
        sets=ms,
    )
    return y, trace


# --- subgroup discovery inside symmetric sets -----------------------------------


@dataclass(frozen=True, kw_only=True)
class SubgroupWitness:
    subgroup: Subgroup
    container: GroupSet = field(metadata=as_key("container_digest", digest))
    index: int
    cover_count: int | None
    normalized: bool
    method: str


def _largest_first(m: int) -> tuple[int, int]:
    return -m.bit_count(), m


# Closures the heuristic subgroup search tries, drawn from one fixed stream
# made fresh on every call, so its answer depends on the region alone.
HEURISTIC_TRIES = 200


def _heuristic_masks(g: Group, region: int) -> list[int]:
    rng = SplitRng.from_seed(0).derive("subgroup-oracle")
    found = cyclic_subgroups_inside(g, region)
    # The region holds 0, so xW = W puts x in W: its symmetry group lies in
    # it.  W is symmetric, so its right stabilizer is its left one.
    found.add(stabilizer_by_threshold(GroupSet(g, region), 0).mask)
    pool = sorted(found, key=_largest_first)
    region_elems = [int(i) for i in mask_indices(region, g.order)]
    for _ in range(HEURISTIC_TRIES):
        base = rng.choice(pool[: min(8, len(pool))])
        x = rng.choice(region_elems)
        if base >> x & 1:
            continue
        k = g.closure(base | (1 << x))
        if not k & ~region and k not in found:
            found.add(k)
            pool = sorted(found, key=_largest_first)
    return sorted(found, key=_largest_first)


def _oracle_region(w: GroupSet, ambient: Subgroup) -> int:
    """The region mask the subgroup oracle searches, after checking that w
    contains 0, is symmetric and lies inside the ambient subgroup."""
    if not 0 in w:
        raise PreconditionError("container must contain the identity")
    if not w.is_symmetric:
        raise PreconditionError("container must be symmetric")
    if w.mask & ~ambient.mask:
        raise PreconditionError("container must lie inside the ambient subgroup")
    return w.mask


def subgroup_candidates_inside(w: GroupSet, ambient: Subgroup) -> tuple[list[int], str]:
    """Candidate subgroup masks inside w, largest first, plus the method
    flag: "exhaustive" (every subgroup inside w) for ambients of order <=
    UNBOUNDED_ENUMERATION_LIMIT whose search fits SUBGROUP_JOIN_BUDGET
    joins, else "heuristic" (the cyclic subgroups, w's symmetry group and
    HEURISTIC_TRIES closures from a fixed stream, so a function of w).  The
    list search is the oracle's fallback: largest_subgroup_inside answers a
    w that is itself a subgroup without it, at any order."""
    g = w.group
    region = _oracle_region(w, ambient)
    if ambient.order <= UNBOUNDED_ENUMERATION_LIMIT:
        try:
            return sorted(subgroups_inside(g, region), key=_largest_first), "exhaustive"
        except FeasibilityError:
            pass
    return _heuristic_masks(g, region), "heuristic"


def largest_subgroup_inside(w: GroupSet, ambient: Subgroup) -> SubgroupWitness:
    """Largest subgroup of the ambient contained in w, ties broken by the
    least mask.

    method "exhaustive" means proven largest.  A region closed under
    products is itself a subgroup (it is finite, symmetric and holds 0), so
    at any order it is the answer with no search; otherwise it is the first
    of subgroup_candidates_inside, which is "exhaustive" when the search
    fits its order limit and join budget and "heuristic" (best found by
    HEURISTIC_TRIES closures from a fixed stream) when not.
    """
    g = w.group
    region = _oracle_region(w, ambient)
    if kernels.product_mask(g, region, region) == region:
        best, method = region, "exhaustive"
    else:
        masks, method = subgroup_candidates_inside(w, ambient)
        best = masks[0]
    sub = Subgroup(g, best)
    if best & ~w.mask:
        raise TheoremViolationError(
            "oracle returned a subgroup escaping its container",
            reproducer={"group": g.label, "container": sorted(w)},
        )
    return SubgroupWitness(
        subgroup=sub,
        container=w,
        index=ambient.order // sub.order,
        cover_count=None,
        normalized=False,
        method=method,
    )


# --- Bogolyubov witnesses for bounded exponent ------------------------------------


@dataclass(frozen=True, kw_only=True)
class BogolyubovReport:
    mode: str
    m: int
    growth_k: Fraction
    witness: SubgroupWitness
    trace: CSTrace
    sigma_order: int
    sigma_is_vm: bool
    h_in_w: bool
    h_in_double: bool
    normal_in_sigma: bool | None

    @property
    def all_verified(self) -> bool:
        return self.h_in_w and self.h_in_double


def bogolyubov_bounded_exponent(
    a: GroupSet,
    mode: str,
    m: int = 4,
    normalize: bool = False,
) -> BogolyubovReport:
    """Find a subgroup inside the mode's containment target W(A).

    Runs the almost-periodicity search (n=4) for its trace/covering data and
    the mode's sets, then the subgroup oracle directly on W, whose answer
    depends on W alone; with normalize, the subgroup is replaced by the
    intersection of its sigma-conjugates and re-verified.
    """
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    _, trace = croot_sisask(a, mode, 4)
    ms = trace.sets
    witness = largest_subgroup_inside(ms.w, ms.sigma)
    sub = witness.subgroup
    normal_flag: bool | None = None
    if normalize:
        sub = core_within(sub, ms.sigma)
        normal_flag = core_within(sub, ms.sigma) == sub
    vm = power(ms.v, m)
    witness = replace(
        witness,
        subgroup=sub,
        index=ms.sigma.order // sub.order,
        cover_count=covering_number(vm, sub.members, ms.sigma.members),
        normalized=normalize,
    )
    return BogolyubovReport(
        mode=mode,
        m=m,
        growth_k=ms.growth_k,
        witness=witness,
        trace=trace,
        sigma_order=ms.sigma.order,
        sigma_is_vm=vm.mask == ms.sigma.mask,
        h_in_w=sub.members.issubset(ms.w),
        # (A A^-1)^2, a word of both modes.
        h_in_double=sub.members.issubset(ms.words["+-+-"]),
        normal_in_sigma=normal_flag,
    )


# --- coset decomposition -----------------------------------------------------------


def coset_masks(g: Group, hmask: int) -> list[tuple[int, int]]:
    """(representative, right coset bitmask) pairs, reps in increasing index order."""
    return [(x, bools_to_mask(c)) for x, c in coset_walk(g, hmask)]


@dataclass(frozen=True, kw_only=True)
class CosetDecomposition:
    """The right cosets of H split by A: D, |A symdiff D| / |G|, Z, one table
    row per coset, and the four coset postconditions."""

    d_set: GroupSet
    defect: Fraction
    z: GroupSet
    table: list[dict]
    flags: dict[str, bool]


def coset_decomposition(a: GroupSet, h: Subgroup, eps: Fraction) -> CosetDecomposition:
    """D, Z, the per-coset table and their postconditions, from one walk over
    the right cosets C of H.  C lies in D when 2 |C∩A| >= |H| and in Z when
    |C∩A| |C\\A| exceeds sqrt(eps) |H|^2; off Z it should be sparse
    (|C∩A|^4 <= eps |H|^4) or dense (|C\\A|^4 <= eps |H|^4).  Every
    comparison is raised to integer powers, so each is exact.

    The dichotomy_off_z flag follows from Z's definition: with a = |C∩A|/|H|
    and b = |C\\A|/|H|, a coset off Z has min(a, b)^2 <= ab <= sqrt(eps), so
    the flag checks the code, not the lemma.  The lemma's content is z_bound,
    4 |Z|^2 < eps |G|^2, which holds when H lies in Stab_eps(A)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if h.parent != a.group:
        raise GroupMismatchError("subgroup belongs to a different group")
    g = a.group
    n = g.order
    hord = h.order
    num, den = eps.numerator, eps.denominator
    bound = num * hord**4
    cosets = coset_masks(g, h.mask)
    dmask = zmask = 0
    table = []
    for rep, cmask in cosets:
        cin = (cmask & a.mask).bit_count()
        cout = hord - cin
        if 2 * cin >= hord:
            dmask |= cmask
        exceptional = (cin * cout) ** 2 * den > bound
        if exceptional:
            zmask |= cmask
        table.append(
            {
                "rep": rep,
                "in_a": cin,
                "out_a": cout,
                "exceptional": exceptional,
                "sparse_ok": cin**4 * den <= bound,
                "dense_ok": cout**4 * den <= bound,
            }
        )
    off = (a.mask ^ dmask).bit_count()
    flags = {
        "d_union_of_right_cosets": all((cmask & dmask) in (0, cmask) for _, cmask in cosets),
        "structure_defect_le_eps": off * den <= num * n,
        "z_bound": 4 * zmask.bit_count() ** 2 * den < num * n**2,
        "dichotomy_off_z": all(
            row["sparse_ok"] or row["dense_ok"] for row in table if not row["exceptional"]
        ),
    }
    return CosetDecomposition(
        d_set=GroupSet(g, dmask),
        defect=Fraction(off, n),
        z=GroupSet(g, zmask),
        table=table,
        flags=flags,
    )


# --- the regularity pipeline ---------------------------------------------------------


# The largest exact power the regularity pipeline forms, in bits.
POWER_BIT_BUDGET = 1 << 24


def _power(base: int | Fraction, exp: int) -> int | Fraction:
    """base^exp for exp >= 0, formed only when exp times the bit length of
    base (of the longer of its numerator and denominator) is at most
    POWER_BIT_BUDGET: FeasibilityError, before any work, when it is not."""
    size = exp * max(x.bit_length() for x in base.as_integer_ratio())
    if size > POWER_BIT_BUDGET:
        shown = size if size.bit_length() <= 64 else f"over 2^{size.bit_length() - 1}"
        raise FeasibilityError(
            f"regularity needs an exact power of {shown} bits,"
            f" over the budget of {POWER_BIT_BUDGET} bits"
        )
    return base**exp


def _delta_power(eps: Fraction, nu: Fraction, d: int) -> tuple[Fraction, Fraction, int]:
    """(dpow, kpow, E) with delta^E = dpow and k^vb = kpow, for
    delta = (eps/4)^((d+nu)/d) / 30^(nu/d), k = (30/delta)^d = (120/eps)^(d+nu)
    and E = d vb.  kpow = (120/eps)^(E+va) is formed first, so a nu whose k
    outgrows POWER_BIT_BUDGET stops before any other work on it."""
    va, vb = nu.numerator, nu.denominator
    e = d * vb
    kpow = _power(120 / eps, e + va)
    return _power(eps / 4, e + va) / _power(30, va), kpow, e


def _floor_delta_times(dpow: Fraction, e: int, scale: int) -> int:
    """floor(delta * scale) where delta = dpow^(1/e), by integer bisection."""
    lo, hi = 0, scale
    target = dpow * _power(scale, e)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _power(mid, e) <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _tripling_steps_exhausted(t: int, p: Fraction, n: int) -> bool:
    """3^(t p) >= n, in integers.  Each tripling step grows |B| by more
    than 3^p from |B| >= 1, and |B| <= n, so no group of order n allows a
    t-th step once this holds."""
    return _power(3, t * p.numerator) >= _power(n, p.denominator)


def _root_float(x: Fraction, r: int) -> float | None:
    """x^(1/r) as a positive x's float root, for display only.  Computed in
    log space when x itself overflows a float or falls below the normal
    float range; None when the root overflows too."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if sys.float_info.min <= f < math.inf:
        return f ** (1.0 / r)
    log_root = (math.log(x.numerator) - math.log(x.denominator)) / r
    try:
        return math.exp(log_root)
    except OverflowError:
        return None


@dataclass(frozen=True, kw_only=True)
class RegularityReport:
    eps: Fraction
    nu: Fraction
    group_label: str = field(metadata=as_key("group"))
    group_order: int
    exponent: int
    set_digest: str
    d: int = field(metadata=as_key("vc_dim"))
    delta_float: float = field(metadata=as_key("delta"))
    delta_exact: Fraction | None
    stab_threshold: int
    k_float: float | None = field(metadata=as_key("k"))
    p: Fraction
    t: int
    s: GroupSet = field(metadata=as_key("s_card", card))
    b: GroupSet = field(metadata=as_key("b_card", card))
    subgroup: Subgroup
    index: int
    method: str
    retries: int = 0  # kept for the format: the oracle rejects no candidate
    cover_count: int | None
    d_set: GroupSet = field(metadata=as_key("structure"))
    structure_defect: Fraction
    z: GroupSet
    z_density: Fraction
    table: list[dict]
    flags: dict[str, bool]

    json_computed: ClassVar[dict[str, str]] = {"success": "success"}

    @property
    def success(self) -> bool:
        return all(self.flags.values())


def _trivial_regularity_report(
    a: GroupSet, eps: Fraction, nu: Fraction
) -> RegularityReport:
    # d = 0 means all translates coincide, i.e. A is empty or the whole group.
    g = a.group
    h = g.whole_subgroup()
    dec = coset_decomposition(a, h, eps)
    flags = dict.fromkeys(("haussler", "escalation_bounded", "h_in_b4", "h_in_stab_eps"), True)
    return RegularityReport(
        eps=eps,
        nu=nu,
        group_label=g.label,
        group_order=g.order,
        exponent=g.exponent(),
        set_digest=a.digest(),
        d=0,
        delta_float=0.0,
        delta_exact=Fraction(0),
        stab_threshold=2 * g.order,
        k_float=1.0,
        p=Fraction(0),
        t=0,
        s=GroupSet.full(g),
        b=GroupSet.full(g),
        subgroup=h,
        index=1,
        method="trivial",
        cover_count=1,
        d_set=dec.d_set,
        structure_defect=dec.defect,
        z=dec.z,
        z_density=Fraction(dec.z.card, g.order),
        table=[],
        flags=flags | dec.flags,
    )


def _rational_text(q: Fraction) -> str:
    """str(q), or a note of its size where Python's int-to-string digit
    limit refuses to write it."""
    try:
        return str(q)
    except ValueError:
        return f"(a rational of over {sys.get_int_max_str_digits()} digits)"


def regularity_decompose(
    a: GroupSet,
    eps: Fraction,
    nu: Fraction,
    vc_cap: int = DEFAULT_VC_CAP,
) -> RegularityReport:
    """Stabilizer-based regularity decomposition with verified postconditions.

    Pipeline: d = vc_dimension(A); delta from (eps, nu, d); S = Stab_delta(A);
    escalate B = S^(3^t) until |B^3| <= 3^p |B|; H is the oracle's largest
    subgroup inside the symmetric region B^4 ∩ Stab_eps(A); then split G
    into structured cosets D and exceptional cosets Z.  Every reported
    inequality is re-checked exactly.  PreconditionError when delta > 30
    (large eps), where k = (30/delta)^d < 1 and no stabilizer can meet the
    packing bound.
    """
    eps = Fraction(eps)
    nu = Fraction(nu)
    if eps <= 0 or nu <= 0:
        raise PreconditionError("eps and nu must be positive rationals")
    g = a.group
    n = g.order
    vc = vc_dimension(a, vc_cap)
    if vc.cap_hit:
        raise FeasibilityError(
            f"vc_dimension hit the cap ({vc_cap}); pipeline needs a conclusive d"
        )
    d = vc.value
    if d == 0:
        return _trivial_regularity_report(a, eps, nu)
    vb = nu.denominator
    dpow, kpow, e = _delta_power(eps, nu, d)
    if kpow < 1:
        raise PreconditionError(
            f"eps = {_rational_text(eps)} too large: delta > 30 makes the packing bound"
            f" (30/delta)^{d} < 1"
        )
    threshold = _floor_delta_times(dpow, e, n)
    p = Fraction(d) * (d + nu) / nu
    # The translates vc_dimension gathered serve Stab_delta(A) and Stab_eps(A).
    s = stabilizer_by_threshold(a, threshold)
    haussler_ok = _power(s.card, vb) * kpow >= _power(n, vb)
    if not haussler_ok:
        raise TheoremViolationError(
            "stabilizer smaller than the packing bound guarantees",
            reproducer={"group": g.label, "set": sorted(a), "threshold": threshold},
        )
    b = s
    t = 0
    while True:
        b3 = power(b, 3)
        grown = _power(b3.card, p.denominator)
        if grown <= _power(3, p.numerator) * _power(b.card, p.denominator):
            break
        b = b3
        t += 1
        if _tripling_steps_exhausted(t, p, n):
            raise TheoremViolationError(
                "tripling escalation failed to terminate within its bound",
                reproducer={"group": g.label, "set": sorted(a)},
            )
    # t <= log_{3^p} k, checked with integer exponents only
    t_bounded = _power(kpow, p.denominator) >= _power(3, t * p.numerator * vb)
    w = power(b, 4)
    stab_eps = stabilizer_by_threshold(a, eps.numerator * n // eps.denominator)
    witness = largest_subgroup_inside(w & stab_eps, g.whole_subgroup())
    sub = witness.subgroup
    dec = coset_decomposition(a, sub, eps)
    flags = {
        "haussler": bool(haussler_ok),
        "escalation_bounded": bool(t_bounded),
        "h_in_b4": not sub.mask & ~w.mask,
        "h_in_stab_eps": not sub.mask & ~stab_eps.mask,
    }
    return RegularityReport(
        eps=eps,
        nu=nu,
        group_label=g.label,
        group_order=n,
        exponent=g.exponent(),
        set_digest=a.digest(),
        d=d,
        delta_float=_root_float(dpow, e),
        delta_exact=dpow if e == 1 else None,
        stab_threshold=threshold,
        k_float=_root_float(kpow, vb),
        p=p,
        t=t,
        s=s,
        b=b,
        subgroup=sub,
        index=sub.index,
        method=witness.method,
        cover_count=covering_number(b, sub.members, GroupSet.full(g)) if b.card else None,
        d_set=dec.d_set,
        structure_defect=dec.defect,
        z=dec.z,
        z_density=Fraction(dec.z.card, n),
        table=dec.table,
        flags=flags | dec.flags,
    )


# --- saturation checks -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class SaturationReport:
    group_label: str = field(metadata=as_key("group"))
    group_order: int
    sizes: dict[str, int]
    equalities: dict[str, bool]


def dense_saturation_check(
    a: GroupSet,
    b: GroupSet | None = None,
    c: GroupSet | None = None,
) -> SaturationReport:
    """Which of the four quadruple-product sets of A equal G (and ABC = G).

    Pure measurement; nothing is asserted.
    """
    if a.card == 0 or (b is not None and b.card == 0) or (c is not None and c.card == 0):
        raise EmptySetError("saturation check needs nonempty sets")
    if (b is None) != (c is None):
        raise PreconditionError("provide both B and C or neither")
    g = a.group
    # The names of the tripling-mode words, in MODE_WORDS order.
    names = ("(AA^-1)^2", "A^2A^-2", "(A^-1A)^2", "A^-2A^2")
    words = eval_words(a, MODE_WORDS["tripling"])
    sizes: dict[str, int] = {"A": a.card}
    eqs: dict[str, bool] = {}
    for name, signs in zip(names, MODE_WORDS["tripling"], strict=True):
        ws = words[signs]
        sizes[name] = ws.card
        eqs[name] = ws.card == g.order
    if b is not None and c is not None:
        abc = product(product(a, b), c)
        sizes["B"] = b.card
        sizes["C"] = c.card
        sizes["ABC"] = abc.card
        eqs["ABC"] = abc.card == g.order
    return SaturationReport(
        group_label=g.label, group_order=g.order, sizes=sizes, equalities=eqs
    )
