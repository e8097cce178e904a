"""VC dimension of translate families, epsilon-stabilizers, packing bound.

The VC dimension of a set A in a group is the VC dimension of the family of
left translates {gA}.  The shattering search is exact and depth-first: it
walks sorted candidate sets in lexicographic order, extends only shattered
ones, and stops at the cap.  Its budget counts the shattered candidate sets
found at each depth (its "level" is the set size).

The search is anchored at the identity.  The family is closed under left
multiplication, since h(gA) = (hg)A, so hx lies in gA iff x lies in
(h^-1 g)A: the traces of the family on hX are its traces on X.  Hence X is
shattered iff hX is, every shattered set has a translate x^-1 X that holds
element 0, and only candidates containing 0 need to be searched.  That
divides the candidates at every depth by about |G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import FeasibilityError, PreconditionError, TheoremViolationError
from .reporting import as_key, digest, jsonable
from .sets import GroupSet

DEFAULT_VC_CAP = 6
# Shattered candidate sets containing the identity that the VC search may
# find at one depth.
VC_STATE_BUDGET = 2_000_000


@dataclass(frozen=True, kw_only=True)
class VcResult:
    """value is exact when cap_hit is False, otherwise a lower bound (>= cap)."""

    value: int = field(metadata=as_key("vc_dim"))
    cap_hit: bool
    witness: tuple[int, ...]


def vc_dimension(a: GroupSet, cap: int = DEFAULT_VC_CAP) -> VcResult:
    """Largest d <= cap such that some d-element set is shattered by {gA}.

    Depth-first search over sorted tuples that start at (0,), in preorder,
    which is lexicographic order: the first tuple reached at each length is
    the smallest shattered one, and the smallest shattered set of each
    length contains 0 (module docstring).  Shattering is hereditary, so only
    shattered tuples are extended, and only by their later siblings.  A
    subtree is skipped when it cannot beat the longest tuple found: a tuple
    of length k inside a shattered set of length l splits the rows into 2^k
    classes of at least 2^(l-k) rows each.  The search returns as soon as it
    reaches min(cap, floor(log2 r)), r the number of distinct translates.
    FeasibilityError when more than VC_STATE_BUDGET shattered candidate sets
    are found at one depth.
    """
    n = a.group.order
    width = a.translates.shape[1]  # words per row; np.unique sees each as one void
    rows = np.unique(a.translates.view(f"V{8 * width}")).view(np.uint64).reshape(-1, width)
    if len(rows) <= 1 or cap < 1:
        return VcResult(value=0, cap_hit=len(rows) > 1, witness=())
    top = min(cap, len(rows).bit_length() - 1)  # 2^d traces need 2^d rows
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=n)  # bits[i, w]: is w in translate i
    # {0} is shattered: A is neither empty nor all of G, so some translate
    # holds the identity and some does not.
    best, found = (0,), [0] * (top + 1)

    def extend(x: tuple[int, ...], pat: np.ndarray, cand: np.ndarray) -> bool:
        """Search below the shattered tuple x, whose traces pat classify the
        rows, extending it by points of cand; True once a tuple of length
        top is reached."""
        nonlocal best
        k = len(x)
        sizes = np.bincount(pat, minlength=1 << k)
        if sizes.min() < 1 << (len(best) + 1 - k):
            return False  # no shattered superset of x is longer than best
        # x + (w,) is shattered iff every class holds rows with and without
        # w: reduce each class, one run of the sorted rows, over all w.
        order = np.argsort(pat, kind="stable")
        starts = np.cumsum(sizes) - sizes
        block = rows[order]
        mixed = np.bitwise_or.reduceat(block, starts) & ~np.bitwise_and.reduceat(block, starts)
        ok = np.unpackbits(np.bitwise_and.reduce(mixed).view(np.uint8), count=n).view(bool)
        # Every shattered x + (w,) counts, searched or not.
        found[k + 1] += int(np.count_nonzero(ok[x[-1] + 1 :]))
        if found[k + 1] > VC_STATE_BUDGET:
            raise FeasibilityError(
                f"shattering search exceeded {VC_STATE_BUDGET} candidate sets"
                f" containing the identity at level {k + 1}"
            )
        kids = cand[ok[cand]]
        if len(best) == k and len(kids):
            best = x + (int(kids[0]),)
            if k + 1 == top:
                return True
        # A child longer than best needs 2^(len(best)-k) rows in each of its
        # classes, the halves of x's classes.  Screen the kids on the small
        # classes, where most fail; the check on entry covers the others.
        need = 1 << (len(best) - k)
        for p in np.argsort(sizes, kind="stable") if need > 1 else ():
            if sizes[p] >= 8 * need:
                break
            ones = bits[order[starts[p] : starts[p] + sizes[p], None], kids].sum(axis=0)
            kids = kids[(ones >= need) & (ones <= sizes[p] - need)]
            if not len(kids):
                return False
        for i, w in enumerate(kids):
            if extend(x + (int(w),), pat | bits[:, w].astype(np.intp) << k, kids[i + 1 :]):
                return True
        return False

    if top > 1:
        extend((0,), bits[:, 0].astype(np.intp), np.arange(1, n))
    return VcResult(value=len(best), cap_hit=len(best) == cap, witness=best)


# --- stabilizers -------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class StabilizerProfile:
    base: GroupSet = field(metadata=as_key("set_digest", digest))
    epsilon: Fraction
    stabilizer: GroupSet
    side: str = "left"  # kept for the format: every stabilizer here is left-sided
    density: Fraction


def stabilizer_by_threshold(a: GroupSet, threshold: int) -> GroupSet:
    """{x : |xA symdiff A| <= threshold} with an integer threshold.
    Inverting, then multiplying on the left by x, gives
    |Ax symdiff A| = |x^-1 A^-1 symdiff A^-1| = |xA^-1 symdiff A^-1|, so the
    right stabilizer of A is the left one of A^-1."""
    counts = kernels.translate_diff_counts(a.translates)
    return GroupSet(a.group, kernels.bools_to_mask(counts <= threshold))


def stabilizer(a: GroupSet, epsilon: Fraction) -> StabilizerProfile:
    """Exact epsilon-stabilizer {x : |xA symdiff A| <= epsilon |G|}: the counts
    are integers, so the threshold floor(epsilon |G|) is exact."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise PreconditionError("epsilon must be nonnegative")
    n = a.group.order
    stab = stabilizer_by_threshold(a, epsilon.numerator * n // epsilon.denominator)
    return StabilizerProfile(
        base=a, epsilon=epsilon, stabilizer=stab, density=Fraction(stab.card, n)
    )


# --- packing bound --------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class HausslerReport:
    delta: Fraction
    d: int = field(metadata=as_key("vc_dim"))
    cap_hit: bool
    k: Fraction | None
    stabilizer_size: int
    group_order: int
    ok: bool | None


def haussler_check(
    a: GroupSet, delta: Fraction, cap: int = DEFAULT_VC_CAP
) -> HausslerReport:
    """Check |Stab_delta(A)| >= |G| / (30/delta)^d in exact rational arithmetic.

    Inconclusive (ok=None) when the VC search hits the cap; a conclusive
    failure would contradict the packing bound and raises TheoremViolationError.
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise PreconditionError("delta must be in (0, 1]")
    vc = vc_dimension(a, cap)
    prof = stabilizer(a, delta)
    k = None if vc.cap_hit else (Fraction(30) / delta) ** vc.value
    ok = None if k is None else prof.stabilizer.card * k >= a.group.order
    report = HausslerReport(
        delta=delta,
        d=vc.value,
        cap_hit=vc.cap_hit,
        k=k,
        stabilizer_size=prof.stabilizer.card,
        group_order=a.group.order,
        ok=ok,
    )
    if ok is False:
        raise TheoremViolationError(
            "packing-bound check failed (internal inconsistency)",
            reproducer={
                "group": a.group.label,
                "set": sorted(a),
                "delta": [delta.numerator, delta.denominator],
                "report": jsonable(report),
            },
        )
    return report
