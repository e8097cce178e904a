"""Bohr neighborhoods, approximate homomorphisms, and witness searches.

A (delta, n)-Bohr neighborhood in H is the strict sublevel set
{x in H : d(0, tau(x)) < delta} of an exact homomorphism tau: H -> T^n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    FeasibilityError,
    GroupMismatchError,
    NotExactError,
    PreconditionError,
    TheoremViolationError,
)
from .groups import Subgroup, commutator_subgroup
from .kernels import indices_to_mask
from .reporting import OMIT, as_key, digest
from .sets import GroupSet
from .torus import TorusMap, characters, trivial_map


def _sublevel_mask(
    elems: np.ndarray, dev: np.ndarray, den: int, bound: Fraction, n: int
) -> int:
    """Mask of the elems[i] (indices below n) with dev[i] / den < bound,
    exact comparison: an integer dev is below bound * den iff it is below
    c = ceil(bound * den), formed in Python integers.  dev <= den / 2, so
    clamping c to den + 1 keeps the int64 comparison exact."""
    c = min(-(-bound.numerator * den // bound.denominator), den + 1)
    return indices_to_mask(elems[dev < c], n)


def _sup_sublevel_set(f: TorusMap, bound: Fraction) -> GroupSet:
    """{x : d(f(x), 0) < bound} in the sup metric."""
    if f.dim == 0:
        return f.domain.members
    dev = np.minimum(f.nums, f.den - f.nums).max(axis=1)  # numerators over f.den
    g = f.domain.parent
    return GroupSet(g, _sublevel_mask(f.elems, dev, f.den, bound, g.order))


def bohr_set(
    h: Subgroup, tau: TorusMap, delta: Fraction
) -> GroupSet:
    """{x in H : d(0, tau(x)) < delta} for an exact homomorphism tau."""
    delta = Fraction(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if tau.domain != h:
        raise GroupMismatchError("tau is not defined on the given subgroup")
    if not tau.is_exact:
        raise NotExactError("bohr_set needs an exact homomorphism")
    return _sup_sublevel_set(tau, delta)


def approx_bohr_set(
    h: Subgroup, f: TorusMap, eps: Fraction
) -> GroupSet:
    """Sublevel set of an arbitrary map with f(1)=0; no homomorphism required."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if f.domain != h:
        raise GroupMismatchError("f is not defined on the given subgroup")
    if not f.maps_identity_to_zero():
        raise PreconditionError("f must send the identity to 0")
    return _sup_sublevel_set(f, eps)


# --- rounding approximate homomorphisms to exact ones ------------------------


@dataclass(frozen=True, kw_only=True)
class RoundingResult:
    found: bool
    tau: TorusMap | None = field(metadata=OMIT)
    bohr: GroupSet | None
    best_distance: Fraction


def round_to_homomorphism(f: TorusMap, delta: Fraction) -> RoundingResult:
    """Search for an exact homomorphism tau with sup_x d(tau(x), f(x)) <= 2 delta.

    Every coordinate of f is compared with every character of H, and tau takes
    the nearest character in each.  On success returns tau and
    B = bohr_set(tau, delta), after verifying B is contained in the 3*delta
    sublevel set of f.  On failure reports the best sup distance found: since
    the scan is complete, found=False means no product of characters lies
    within 2 delta of f.  Absence is a value, not an error.
    """
    delta = Fraction(delta)
    if f.defect() >= delta:
        raise PreconditionError("f must be a delta-homomorphism (defect < delta)")
    h = f.domain
    chars = characters(h)
    m = math.lcm(chars.den, f.den)
    scaled = chars.nums * (m // chars.den)
    picks: list[int] = []
    best_each: list[Fraction] = []
    for j in range(f.dim):
        diff = (scaled - f.nums[:, j, None] * (m // f.den)) % m
        np.minimum(diff, m - diff, out=diff)
        sup = diff.max(axis=0)  # each character's sup distance to coordinate j, over m
        pick = int(np.argmin(sup))
        best_each.append(Fraction(int(sup[pick]), m))
        picks.append(pick)
    best_overall = max(best_each, default=Fraction(0))
    if best_overall > 2 * delta:
        return RoundingResult(found=False, tau=None, bohr=None, best_distance=best_overall)
    tau = chars.select(picks)
    bohr = bohr_set(h, tau, delta)
    target = approx_bohr_set(h, f, 3 * delta)
    if not bohr.issubset(target):
        raise TheoremViolationError(
            "rounded Bohr set escapes the approximate Bohr set",
            reproducer={"domain": h.to_json(), "delta": [delta.numerator, delta.denominator]},
        )
    return RoundingResult(found=True, tau=tau, bohr=bohr, best_distance=best_overall)


# --- witness search -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class BohrWitness:
    subgroup: Subgroup
    tau: TorusMap = field(metadata=OMIT)
    delta: Fraction
    dim: int
    bohr: GroupSet
    container: GroupSet = field(metadata=as_key("container_digest", digest))
    size_bound_ok: bool


def _verify_size_bound(h: Subgroup, delta: Fraction, dim: int, bohr: GroupSet) -> bool:
    return Fraction(bohr.card) >= delta**dim * h.order


def bohr_witness_search(
    container: GroupSet,
    h: Subgroup,
    n_max: int,
    delta_grid: Sequence[Fraction],
    max_maps: int | None = None,
) -> BohrWitness | None:
    """Largest Bohr set of H inside the container over products of characters.

    Character products are enumerated in graded order (fewest coordinates
    first, lexicographic within a grade); the delta grid is scanned from the
    largest value down, so the first fit per map is its largest fit.  Before
    the character table is formed, FeasibilityError if the sum of C(r, d)
    over d <= n_max, for the r = |H/[H,H]| - 1 nontrivial characters,
    exceeds max_maps."""
    if h.parent != container.group:
        raise GroupMismatchError("subgroup and container live over different groups")
    grid = sorted({Fraction(d) for d in delta_grid}, reverse=True)
    if not grid or grid[-1] <= 0:
        raise PreconditionError("delta grid must be positive")
    if 0 not in container:
        return None
    best: BohrWitness | None = None

    def consider(tau: TorusMap, delta: Fraction, dim: int, bohr: GroupSet) -> None:
        nonlocal best
        ok = _verify_size_bound(h, delta, dim, bohr)
        if not ok:
            raise TheoremViolationError(
                "Bohr size bound failed for an exact homomorphism",
                reproducer={"subgroup": h.to_json(), "delta": str(delta)},
            )
        best = BohrWitness(
            subgroup=h, tau=tau, delta=delta, dim=dim, bohr=bohr,
            container=container, size_bound_ok=ok,
        )

    if h.members.issubset(container):
        tau = trivial_map(h, 1)
        consider(tau, grid[0], 1, bohr_set(h, tau, grid[0]))
        return best
    derived = commutator_subgroup(h)
    r = h.order // derived.order - 1  # the nontrivial characters
    top = min(n_max, r)
    maps = sum(math.comb(r, dim) for dim in range(1, top + 1))
    if max_maps is not None and maps > max_maps:
        raise FeasibilityError(
            f"Bohr witness search needs {maps} character maps at --n-max {n_max},"
            f" over its budget of {max_maps}"
        )
    chars = characters(h, derived)
    # One row per nontrivial character (column 0 is the trivial one); each
    # value's distance to 0 is min(x, den - x), taken in place.
    devs = chars.nums.T[1:].copy()
    np.subtract(chars.den, devs, out=devs, where=devs > chars.den // 2)
    elems = h.element_indices()
    for dim in range(1, top + 1):
        for combo in itertools.combinations(range(r), dim):
            dev = devs[combo[0]]
            for c in combo[1:]:
                dev = np.maximum(dev, devs[c])
            for delta in grid:
                mask = _sublevel_mask(elems, dev, chars.den, delta, h.parent.order)
                if mask & ~container.mask:
                    continue
                bohr = GroupSet(container.group, mask)
                if best is None or bohr.card > best.bohr.card:
                    consider(chars.select([c + 1 for c in combo]), delta, dim, bohr)
                break  # largest fitting delta found for this map
    return best
