"""Exact rational arithmetic on the n-torus and maps from subgroups into it.

Torus coordinates are Fractions in [0,1).  A TorusMap keeps all values over a
single common denominator so pair scans vectorize as integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .groups import (
    Group,
    Subgroup,
    abelian_basis,
    abelian_coordinates,
    commutator_subgroup,
    member_products,
    quotient_by,
)
from .kernels import indices_to_mask

DEFAULT_DENOMINATOR_LIMIT = 10**6


@dataclass(frozen=True)
class TorusVec:
    """Point of the n-torus with exact rational coordinates in [0,1)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(Fraction(c) % 1 for c in self.coords)
        )

    @classmethod
    def zero(cls, n: int) -> "TorusVec":
        return cls((Fraction(0),) * n)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "TorusVec") -> "TorusVec":
        if self.dim != other.dim:
            raise DimensionMismatchError("torus dimensions differ")
        return TorusVec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "TorusVec":
        return TorusVec(tuple(-c for c in self.coords))

    def to_json(self) -> list[list[int]]:
        return [[c.numerator, c.denominator] for c in self.coords]


def circle_distance(a: Fraction, b: Fraction) -> Fraction:
    """Distance to the nearest integer of a-b (arclength on the unit circle)."""
    d = (a - b) % 1
    return min(d, 1 - d)


def torus_distance(u: TorusVec, v: TorusVec) -> Fraction:
    """Invariant metric on the torus: the max over coordinates."""
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dimensions {u.dim} vs {v.dim}")
    per = [circle_distance(a, b) for a, b in zip(u.coords, v.coords)]
    return max(per, default=Fraction(0))


class TorusMap:
    """Map from a subgroup H into the n-torus, tabulated per element.

    nums[i, j] / den is coordinate j of the value at the i-th member of H in
    increasing parent-index order.
    """

    def __init__(self, domain: Subgroup, den: int, nums: np.ndarray):
        nums = np.asarray(nums, dtype=np.int64)
        if nums.ndim != 2 or nums.shape[0] != domain.order:
            raise PreconditionError("value table must have one row per element")
        if den < 1:
            raise PreconditionError("denominator must be positive")
        self.domain = domain
        self.den = int(den)
        self.nums = np.mod(nums, den)
        self.nums.setflags(write=False)
        self._elems = domain.element_indices()
        self._defect: Fraction | None = None

    @classmethod
    def from_values(
        cls,
        domain: Subgroup,
        rows: Sequence[Sequence[Fraction]],
    ) -> "TorusMap":
        rows = [[Fraction(c) % 1 for c in row] for row in rows]
        if len({len(r) for r in rows}) > 1:
            raise DimensionMismatchError("rows have mixed dimensions")
        den = 1
        for row in rows:
            for c in row:
                den = math.lcm(den, c.denominator)
                if den > DEFAULT_DENOMINATOR_LIMIT:
                    raise PreconditionError(
                        f"common denominator exceeds limit {DEFAULT_DENOMINATOR_LIMIT}"
                    )
        nums = np.array(
            [[int(c * den) for c in row] for row in rows], dtype=np.int64
        ).reshape(len(rows), -1)
        return cls(domain, den, nums)

    @property
    def dim(self) -> int:
        return int(self.nums.shape[1])

    @property
    def elems(self) -> np.ndarray:
        return self._elems

    def position(self, x: int) -> int:
        i = int(np.searchsorted(self._elems, x))
        if i >= len(self._elems) or self._elems[i] != x:
            raise PreconditionError(f"element {x} is not in the domain subgroup")
        return i

    def select(self, cols: Sequence[int]) -> "TorusMap":
        """The map onto the listed coordinates, in the given order; a
        coordinate may be listed more than once."""
        return TorusMap(self.domain, self.den, self.nums[:, list(cols)])

    def value(self, x: int) -> TorusVec:
        row = self.nums[self.position(x)]
        return TorusVec(tuple(Fraction(int(v), self.den) for v in row))

    def maps_identity_to_zero(self) -> bool:
        return not self.nums[0].any()

    def defect(self) -> Fraction:
        """Worst-case d(f(xy), f(x)+f(y)) over all pairs, as an exact rational."""
        if self._defect is None:
            if not self.maps_identity_to_zero():
                raise PreconditionError("map must send the identity to 0")
            h = self.domain.order
            worst = 0
            step = max(1, (1 << 22) // max(h, 1))
            for i in range(0, h, step):
                rows = member_products(self.domain, i, i + step).astype(np.int64)
                for col in self.nums.T:
                    diff = (col[i : i + step, None] + col[None, :] - col[rows]) % self.den
                    np.minimum(diff, self.den - diff, out=diff)
                    worst = max(worst, int(diff.max(initial=0)))
            self._defect = Fraction(worst, self.den)
        return self._defect

    @property
    def is_exact(self) -> bool:
        return self.defect() == 0

    def kernel_mask(self) -> int:
        rows_zero = ~self.nums.any(axis=1)
        return indices_to_mask(self._elems[rows_zero], self.domain.parent.order)

    def image(self) -> list[TorusVec]:
        uniq = np.unique(self.nums, axis=0)
        return [
            TorusVec(tuple(Fraction(int(v), self.den) for v in row)) for row in uniq
        ]

    def to_json(self) -> dict:
        rows = []
        for row in self.nums:
            frs = [Fraction(int(v), self.den) for v in row]
            rows.append([[f.numerator, f.denominator] for f in frs])
        return {
            "domain": self.domain.to_json(),
            "dim": self.dim,
            "values": rows,
        }

    def __repr__(self) -> str:
        return (
            f"TorusMap(dim={self.dim}, den={self.den}, "
            f"|H|={self.domain.order} of {self.domain.parent.label})"
        )


def hom_defect(f: TorusMap) -> Fraction:
    """Homomorphism defect; f is a delta-homomorphism iff hom_defect(f) < delta."""
    return f.defect()


def trivial_map(domain: Subgroup, dim: int = 1) -> TorusMap:
    return TorusMap(domain, 1, np.zeros((domain.order, dim), dtype=np.int64))


def characters(h: Subgroup | Group, derived: Subgroup | None = None) -> TorusMap:
    """The full dual of H/[H,H] lifted to H, as one exact map whose column j
    is character j; derived is [H,H] when the caller has formed it.

    Columns follow itertools.product over the abelian_basis orders, so
    column 0 is the trivial character; there are |H/[H,H]| columns and
    distinct columns differ on some element.  The table is one integer
    product of each element's abelian coordinates with the index grid.
    """
    dom = h.whole_subgroup() if isinstance(h, Group) else h
    if derived is None:
        derived = commutator_subgroup(dom)
    ab, proj = quotient_by(dom, derived.mask)
    basis = abelian_basis(ab)
    orders = [m for _, m in basis]
    den = math.lcm(*orders)
    # Index j of a basis element of order m scales to j * den / m.
    grid = itertools.product(*(range(0, den, den // m) for m in orders))
    coords = abelian_coordinates(ab, basis)[proj]
    # Formed one row per character, so each column of nums is contiguous.
    return TorusMap(dom, den, (np.array(list(grid), dtype=np.int64) @ coords.T).T)
