"""VC dimension of translate families, epsilon-stabilizers, packing bound.

The VC dimension of a set A in a group is the VC dimension of the family of
left translates {gA}.  The shattering search is exact: level-by-level over
candidate base sets, pruning any set with an unshattered prefix.

The search is anchored at the identity.  The family is closed under left
multiplication, since h(gA) = (hg)A, so hx lies in gA iff x lies in
(h^-1 g)A: the traces of the family on hX are its traces on X.  Hence X is
shattered iff hX is, every shattered set has a translate x^-1 X that holds
element 0, and only candidates containing 0 need to be searched.  That
divides the candidates at every level by about |G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import FeasibilityError, PreconditionError, TheoremViolationError
from .reporting import as_key, digest, jsonable
from .sets import GroupSet, inverse

DEFAULT_VC_CAP = 6
# Candidate sets containing the identity one level of the VC search may keep.
VC_STATE_BUDGET = 2_000_000


@dataclass(frozen=True, kw_only=True)
class VcResult:
    """value is exact when cap_hit is False, otherwise a lower bound (>= cap)."""

    value: int = field(metadata=as_key("vc_dim"))
    cap_hit: bool
    witness: tuple[int, ...]


def _distinct_translate_rows(a: GroupSet) -> np.ndarray:
    n = a.group.order
    rows = np.empty((n, n), dtype=bool)
    for block, r in kernels.translate_rows(a.group, a.bools, np.arange(n)):
        rows[block] = r
        del r  # free the block before the next gather and np.unique
    return np.unique(rows, axis=0)


def vc_dimension(a: GroupSet, cap: int = DEFAULT_VC_CAP) -> VcResult:
    """Largest d <= cap such that some d-element set is shattered by {gA}.

    Exact level-wise search over candidate sets that contain the identity:
    a candidate is only extended if it is itself shattered, and extensions
    are vectorized over all new points at once.  Restricting to the identity
    loses nothing, because X is shattered iff hX is (module docstring), and
    the witness is unchanged: candidates are sorted tuples in lexicographic
    order, and the lexicographically smallest shattered set contains 0.
    FeasibilityError when one level keeps more than VC_STATE_BUDGET
    candidate sets.
    """
    g = a.group
    n = g.order
    rows = _distinct_translate_rows(a)
    d_count = len(rows)
    if d_count <= 1:
        return VcResult(value=0, cap_hit=False, witness=())
    if cap < 1:
        return VcResult(value=0, cap_hit=True, witness=())
    # Bit-packed copies: extension checks reduce whole byte blocks at once.
    packed_one = np.packbits(rows, axis=1)
    packed_zero = np.packbits(~rows, axis=1)
    cols = rows.astype(np.int8)  # column reads without per-survivor casts
    nbytes = packed_one.shape[1]
    # {0} is shattered: A is neither empty nor all of G, so some translate
    # holds the identity and some does not.
    survivors: list[tuple[int, ...]] = [(0,)]
    for level in range(2, cap + 1):
        if d_count < (1 << level):
            return VcResult(value=level - 1, cap_hit=False, witness=survivors[0])
        new_survivors: list[tuple[int, ...]] = []
        for x in survivors:
            pat = cols[:, x[0]].copy()
            for i, c in enumerate(x[1:], 1):
                pat |= cols[:, c] << i
            # Most restrictive (smallest) class first: dead extensions
            # short-circuit after one or two reductions.
            sizes = np.bincount(pat, minlength=1 << len(x))
            okp = np.full(nbytes, 0xFF, dtype=np.uint8)
            for p in np.argsort(sizes, kind="stable"):
                sel = pat == p
                okp &= np.bitwise_or.reduce(packed_one[sel], axis=0)
                okp &= np.bitwise_or.reduce(packed_zero[sel], axis=0)
                if not okp.any():
                    break  # no extension of x is shattered
            else:
                ok = np.unpackbits(okp, count=n).astype(bool)
                ok[: x[-1] + 1] = False
                new_survivors.extend(x + (int(w),) for w in np.flatnonzero(ok))
                if len(new_survivors) > VC_STATE_BUDGET:
                    raise FeasibilityError(
                        f"shattering search exceeded {VC_STATE_BUDGET} candidate sets"
                        f" containing the identity at level {level}"
                    )
        if not new_survivors:
            return VcResult(value=level - 1, cap_hit=False, witness=survivors[0])
        survivors = new_survivors
    return VcResult(value=cap, cap_hit=True, witness=survivors[0])


# --- stabilizers -------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class StabilizerProfile:
    base: GroupSet = field(metadata=as_key("set_digest", digest))
    epsilon: Fraction
    stabilizer: GroupSet
    side: str
    density: Fraction


def stabilizer_by_threshold(a: GroupSet, threshold: int, side: str = "left") -> GroupSet:
    """{x : |xA symdiff A| <= threshold} (|Ax symdiff A| when side="right")
    with an integer threshold.  Inverting, then multiplying on the left by
    x, gives |Ax symdiff A| = |x^-1 A^-1 symdiff A^-1| = |xA^-1 symdiff A^-1|,
    so the right stabilizer of A is the left one of A^-1."""
    if side == "right":
        return stabilizer_by_threshold(inverse(a), threshold)
    counts = kernels.translate_diff_counts(a.group, a.mask)
    return GroupSet(a.group, kernels.bools_to_mask(counts <= threshold))


def stabilizer(a: GroupSet, epsilon: Fraction, side: str = "left") -> StabilizerProfile:
    """Exact epsilon-stabilizer {x : |xA symdiff A| <= epsilon |G|}: the counts
    are integers, so the threshold floor(epsilon |G|) is exact."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise PreconditionError("epsilon must be nonnegative")
    n = a.group.order
    stab = stabilizer_by_threshold(a, epsilon.numerator * n // epsilon.denominator, side)
    return StabilizerProfile(
        base=a, epsilon=epsilon, stabilizer=stab, side=side, density=Fraction(stab.card, n)
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
