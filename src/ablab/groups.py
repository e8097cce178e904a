"""Finite groups as dense Cayley tables with 0-based element indices.

Element 0 is always the identity.  Groups are immutable after construction;
lazy caches (cyclic subgroups, orders, subgroup lattice) are computed
idempotently, so concurrent readers are safe.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    FeasibilityError,
    GroupConstructionError,
    GroupMismatchError,
    PreconditionError,
    SizeBudgetError,
)
from .kernels import (
    bools_to_mask,
    closure_mask,
    indices_to_mask,
    inverse_mask,
    join_mask,
    mask_indices,
    mask_to_bools,
    masks_to_rows,
    product_mask,
    rows_to_masks,
)

DEFAULT_SIZE_BUDGET = 4096
# Largest ambient order in which the subgroup oracle lists the subgroups of a
# region; a region that is itself a subgroup is answered at any order.
UNBOUNDED_ENUMERATION_LIMIT = 512
# Coset joins one subgroup search may compute before it gives up.
SUBGROUP_JOIN_BUDGET = 200_000
# Table cells one batch of the subgroup search gathers.  A cell costs about
# ten bytes of index and entry, and the children a batch pushes grow with
# it: at 1 << 23 cells the ea(2,8) lattice search, which exhausts the join
# budget, peaked at 227 MB of RSS, and at this size at 50 MB.
_SEARCH_BATCH_CELLS = 1 << 16
# Table cells hashed at a time by Group.signature.
_SIGNATURE_BLOCK_CELLS = 1 << 16
# Table cells compared at a time by the associativity check: 256 KB of
# uint16, small enough to stay in cache and for malloc to reuse the same
# heap memory for every block's temporaries.  Blocks of 2 MB and up are
# given fresh mmaps, which fault in every page of every block, unless an
# earlier large free has raised malloc's mmap threshold.
_TABLE_CHECK_CELLS = 1 << 17


def _index_dtype(n: int):
    return np.uint16 if n <= 0xFFFF else np.uint32


class Group:
    """A finite group given by its multiplication table."""

    def __init__(
        self,
        mult: np.ndarray | Sequence[Sequence[int]],
        label: str,
        family: dict[str, Any] | None = None,
    ):
        table = np.ascontiguousarray(np.asarray(mult))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupConstructionError("multiplication table must be square")
        n = int(table.shape[0])
        if n == 0:
            raise GroupConstructionError("group must be nonempty")
        # Unsigned tables, as every builder makes, cannot hold negatives.
        if (table.dtype.kind != "u" and table.min() < 0) or table.max() >= n:
            raise GroupConstructionError("table entries out of range")
        table = table.astype(_index_dtype(n), copy=False)
        self.order = n
        self.mult = table
        self.label = label
        self.family = family or {}
        self.inv = _derive_inverses(table)
        _validate_table(self)
        self.mult.setflags(write=False)
        self.inv.setflags(write=False)
        self._cyclic_masks: list[int] | None = None
        self._orders: np.ndarray | None = None
        self._exponent: int | None = None
        self._is_abelian: bool | None = None
        self._signature: str | None = None
        self._lattice: list[int] | None = None
        self._whole: "Subgroup" | None = None

    # --- basic arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def invert(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    def pow_elem(self, x: int, k: int) -> int:
        if k < 0:
            x, k = int(self.inv[x]), -k
        acc, base = 0, x
        while k:
            if k & 1:
                acc = int(self.mult[acc, base])
            base = int(self.mult[base, base])
            k >>= 1
        return acc

    # --- cached invariants --------------------------------------------------

    def powers(self, x: int) -> list[int]:
        """[1, x, x^2, ..., x^(m-1)] for x of order m: the one power walk."""
        out = [0]
        p = x
        while p:
            out.append(p)
            p = int(self.mult[p, x])
        return out

    def cyclic_masks(self) -> list[int]:
        """masks[x] = bitmask of <x>.  One power walk per cyclic subgroup: x
        in increasing order, skipping any x already covered, and <x> is
        assigned to every generator x^k with gcd(k, m) = 1 (gcd(0, 1) = 1
        covers the identity)."""
        if self._cyclic_masks is None:
            masks = [0] * self.order
            for x in range(self.order):
                if not masks[x]:
                    pows = self.powers(x)
                    mask = sum(1 << y for y in pows)
                    for k, y in enumerate(pows):
                        if math.gcd(k, len(pows)) == 1:
                            masks[y] = mask
            self._cyclic_masks = masks
        return self._cyclic_masks

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            orders = np.array([m.bit_count() for m in self.cyclic_masks()], dtype=np.int64)
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = math.lcm(*map(int, self.element_orders()))
        return self._exponent

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            self._is_abelian = bool(np.array_equal(self.mult, self.mult.T))
        return self._is_abelian

    @property
    def signature(self) -> str:
        if self._signature is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self.order.to_bytes(4, "little"))
            # The table as little-endian u32, a block of rows at a time.  One
            # reused buffer: a fresh pair of arrays per block slowed the large
            # gathers that follow at order 4096.
            step = min(self.order, max(1, _SIGNATURE_BLOCK_CELLS // self.order))
            buf = np.empty((step, self.order), dtype="<u4")
            for i in range(0, self.order, step):
                rows = buf[: min(step, self.order - i)]
                rows[...] = self.mult[i : i + step]
                h.update(rows)
            self._signature = h.hexdigest()
        return self._signature

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.order == other.order and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"

    def closure(self, seed_mask: int) -> int:
        """Subgroup generated by seed_mask."""
        return closure_mask(self, seed_mask)

    def whole_subgroup(self) -> "Subgroup":
        if self._whole is None:
            self._whole = Subgroup(self, (1 << self.order) - 1, verify=False)
        return self._whole


def _derive_inverses(table: np.ndarray) -> np.ndarray:
    """inv[x] = the first y with xy = 0, refused unless also yx = 0.

    One argmin pass over the table, then two gathers of n cells.  The zeros
    in a row are not counted: _validate_table then proves the table
    associative with identity 0, and an associative table in which every x
    has a two-sided inverse is a group, where xy = 0 has the one solution
    y = x^-1.  So a row with a second 0 passes here and is refused there.
    """
    # Kept in intp: numpy gathers through inv without converting the indices.
    inv = table.argmin(axis=1)
    x = np.arange(table.shape[0])
    if table[x, inv].any():
        raise GroupConstructionError("some element has no (or multiple) inverses")
    if table[inv, x].any():
        raise GroupConstructionError("inverses are not two-sided")
    return inv


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays of one shape are equal: the associativity check's
    one comparison."""
    return bool((a == b).all())


def _table_rows(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx], read in place when idx is a run of consecutive indices."""
    lo = int(idx[0])
    if idx.tolist() == list(range(lo, lo + len(idx))):
        return table[lo : lo + len(idx)]
    return table[idx]


def _validate_table(g: Group) -> None:
    """Exact group check of g.mult, whose entries are in range and in which
    every x has some y with xy = 0 = yx (_derive_inverses): element 0 is a
    two-sided identity, and a coset-walk tree plus generator commutation
    proves associativity.  Neither step assumes that rows are permutations;
    a group's are, so a table that passes is a group.

    Write L_x for row x and R_x for column x, the maps z -> xz and z -> zx.
    Generators are picked as in a subgroup search: each is the least element
    not reached yet.  The reached set K, at first {0}, grows by join_mask's
    coset walk.  From each coset C of the walk (K itself first, where only
    the new generator is tried) and each generator s for which (head of C)*s
    is not reached yet, it adds the coset C*s = {cs : c in C}, read from the
    column of s; in a group that is the right coset K(rs), r the head of C.
    Every element x = cs of an added coset has the parent c, reached before
    x.  Three checks follow, and each holds in every group:

    (b) an added coset is |K| elements not reached before, so every x != 0
        is checked once and each join at least doubles K;
    (c) s(wt) = (sw)t for every w and all generators s, t: L_s and R_t
        commute;
    (a) L_x = L_c o L_s for every x = cs with parent c.

    Let P be the monoid generated by the L_s, and Q the one generated by
    the R_t.  Along the walk, (a) puts every L_x in P.  By (c), P commutes
    with Q.  Q moves 0 to every x: write L_x = L_s1 o ... o L_sk; then
    x = L_x(0), and moving each L_s past the R's by (c), with L_s(0) = s =
    R_s(0), gives x = R_sk o ... o R_s1 (0).  So two members of P that agree
    at 0 agree everywhere: p(q(0)) = q(p(0)).  L_x o L_y and L_xy lie in P
    and both send 0 to xy, so x(yz) = (xy)z for all x, y, z.  This is the
    argument that a transitive permutation group with a transitive
    centralizer is regular (Dixon and Mortimer, Permutation Groups, 1996,
    section 4.2).  It does not use (b), which bounds the work.

    The rows of (a) for one generator s share row s as one column
    permutation, so each generator costs one np.take per block: n - 1 rows
    in all, plus |S|^2 n cells for (c), compared one generator s at a time
    so that no temporary holds more than |S| n cells.
    """
    table = g.mult
    n = g.order
    identity = np.arange(n, dtype=table.dtype).tobytes()
    if not (table[0].tobytes() == identity and table[:, 0].tobytes() == identity):
        raise GroupConstructionError("element 0 is not a two-sided identity")
    gens: list[int] = []
    gen_cols: list[list[int]] = []  # gen_cols[e][r] = r * gens[e]
    xs: list[list[int]] = []  # xs[e][i] = ps[e][i] * gens[e]
    ps: list[list[int]] = []
    reached, kelems, y = {0}, [0], 0
    while len(reached) < n:
        while y in reached:
            y += 1
        gens.append(y)
        gen_cols.append(table[:, y].tolist())
        xs.append([])
        ps.append([])
        # Cosets list their elements in K's order, so coset j's element i is
        # the parent of element i of every coset added from it.
        cosets = [kelems]
        j, first = 0, len(gens) - 1
        while j < len(cosets):
            base = cosets[j]
            for e in range(first if j == 0 else 0, len(gens)):
                col = gen_cols[e]
                if col[base[0]] in reached:
                    continue
                coset = list(map(col.__getitem__, base))
                before = len(reached)
                reached.update(coset)
                if len(reached) - before != len(coset):  # (b)
                    raise GroupConstructionError(
                        f"associativity fails: the coset of {coset[0]} over the"
                        f" {len(kelems)} elements reached meets an element twice"
                    )
                xs[e] += coset
                ps[e] += base
                cosets.append(coset)
            j += 1
        kelems = list(itertools.chain.from_iterable(cosets))
    # (c): [t, w] = s(wt) against (sw)t, for one generator s at a time.
    rows, cols = table[gens], table.T[gens]
    for row in rows:
        if not _same(np.take(row, cols), np.take(cols, row, axis=1)):
            raise GroupConstructionError(
                "associativity fails: some generators s, t have s(wt) != (sw)t"
            )
    # (a): the rows x != 0, grouped by generator, a block at a time.
    order = np.array(list(itertools.chain.from_iterable(xs)), dtype=np.intp)
    parents = np.array(list(itertools.chain.from_iterable(ps)), dtype=np.intp)
    ends = list(itertools.accumulate(map(len, xs)))
    step = max(1, _TABLE_CHECK_CELLS // n)
    for i in range(0, len(order), step):
        j = min(i + step, len(order))
        xrows, prows = _table_rows(table, order[i:j]), _table_rows(table, parents[i:j])
        lo = i
        for e in range(len(gens)):
            hi = min(ends[e], j)
            if lo < hi:
                seg = slice(lo - i, hi - i)
                # np.take gathers columns much faster than fancy indexing.
                composed = np.take(prows[seg], rows[e], axis=1)
                if not _same(xrows[seg], composed):
                    k = lo + np.flatnonzero((xrows[seg] != composed).any(axis=1))[0]
                    raise GroupConstructionError(
                        f"associativity fails: row {order[k]} is not row"
                        f" {parents[k]} followed by row {gens[e]}"
                    )
                lo = hi


# --- builders ---------------------------------------------------------------


def _check_budget(order: int, budget: int) -> None:
    if order > budget:
        raise SizeBudgetError(f"group of order {order} exceeds budget {budget}")


def _cyclic_windows(n: int, dtype) -> np.ndarray:
    """The n + 1 windows w[k] = (k, k+1, ..., k+n-1) mod n, views of one
    array of 2n entries: w[i][j] = (i + j) mod n, w[n - i][j] = (j - i) mod n."""
    r = np.arange(n, dtype=dtype)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([r, r]), n)


def _product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table of the direct product of the groups with tables a and b:
    (a1, b1)(a2, b2) = (a1 a2, b1 b2), with index (a1 a2) n2 + b1 b2 < n1 n2.
    Formed in place in the product's index dtype."""
    n1, n2 = len(a), len(b)
    out = np.empty((n1, n2, n1, n2), dtype=_index_dtype(n1 * n2))
    out[...] = a[:, None, :, None]
    out *= n2
    out += b[None, :, None, :]
    return out.reshape(n1 * n2, n1 * n2)


def cyclic_group(n: int, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    if n < 1:
        raise GroupConstructionError("cyclic order must be positive")
    _check_budget(n, budget)
    table = _cyclic_windows(n, _index_dtype(n))[:n]
    return Group(table, f"cyclic({n})", {"kind": "cyclic", "n": n})


def elementary_abelian_group(p: int, k: int, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    if k < 1:
        raise GroupConstructionError("k must be positive")
    if p > budget or (p >= 2 and k > budget.bit_length()):
        # p^k >= max(p, 2^k) exceeds the budget; p^k itself may be too big to form
        raise SizeBudgetError(f"group ea({p},{k}) exceeds budget {budget}")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise GroupConstructionError("p must be prime")
    n = p**k
    _check_budget(n, budget)
    if p == 2:
        r = np.arange(n, dtype=_index_dtype(n))
        table = r[:, None] ^ r[None, :]
    else:
        # Index sum(d_i p^i) is the digit vector d; the top digit is the
        # first factor of C_p x ea(p, k-1).
        cp = _cyclic_windows(p, _index_dtype(p))[:p]
        table = cp
        for _ in range(k - 1):
            table = _product_table(cp, table)
    return Group(table, f"ea({p},{k})", {"kind": "ea", "p": p, "k": k})


def dihedral_group(n: int, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    """Symmetries of the regular n-gon, order 2n; index e*n+i is s^e r^i."""
    if n < 1:
        raise GroupConstructionError("dihedral parameter must be positive")
    _check_budget(2 * n, budget)
    size = 2 * n
    # s^e r^i s^f r^j = s^(e+f) r^(j +- i), with - when f = 1: four blocks,
    # each r^(i+j) or r^(j-i), shifted by n where e + f = 1.
    windows = _cyclic_windows(n, _index_dtype(size))
    plus, minus = windows[:n], windows[n:0:-1]
    table = np.empty((size, size), dtype=windows.dtype)
    table[:n, :n] = plus
    np.add(minus, n, out=table[:n, n:])
    np.add(plus, n, out=table[n:, :n])
    table[n:, n:] = minus
    return Group(table, f"dihedral({n})", {"kind": "dihedral", "n": n})


def _perm_group(perms: list[tuple[int, ...]], label: str, family: dict) -> Group:
    """Group of the listed permutations; index i is perms[i], i*j is p_i o p_j."""
    p = np.array(perms, dtype=np.int64).reshape(len(perms), -1)
    m = p.shape[1]
    radix = m ** np.arange(m)
    index = np.full(m**m, -1, dtype=np.int64)
    index[p @ radix] = np.arange(len(perms))
    # p[:, p][i, j, t] = p_i(p_j(t))
    table = index[p[:, p] @ radix]
    return Group(table, label, family)


def symmetric_group(n: int, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    if not 1 <= n <= 5:
        raise GroupConstructionError("symmetric(n) supported for 1 <= n <= 5")
    _check_budget(math.factorial(n), budget)
    perms = list(itertools.permutations(range(n)))
    return _perm_group(perms, f"symmetric({n})", {"kind": "symmetric", "n": n})


def _perm_sign(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inversions % 2 else 1


def alternating_group(n: int, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    if not 1 <= n <= 6:
        raise GroupConstructionError("alternating(n) supported for 1 <= n <= 6")
    order = max(1, math.factorial(n) // 2)
    _check_budget(order, budget)
    perms = [p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1]
    return _perm_group(perms, f"alternating({n})", {"kind": "alternating", "n": n})


def direct_product_group(factors: Sequence[Group], budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    if not factors:
        raise GroupConstructionError("direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    g = factors[0]
    for h in factors[1:]:
        _check_budget(g.order * h.order, budget)
        g = Group(
            _product_table(g.mult, h.mult),
            f"{g.label}x{h.label}",
            {"kind": "product", "factors": [g.family, h.family]},
        )
    return g


def group_from_cayley_file(path: str | Path, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    """Format: first line n, then n lines of n space-separated indices."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in path
        raise GroupConstructionError(f"cannot read Cayley file: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GroupConstructionError("empty Cayley file")
    try:
        n = int(lines[0])
        rows = [[int(tok) for tok in ln.split()] for ln in lines[1 : n + 1]]
    except ValueError as exc:
        raise GroupConstructionError(f"malformed Cayley file: {exc}") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise GroupConstructionError("Cayley file has wrong shape")
    _check_budget(n, budget)
    return Group(np.asarray(rows), f"cayley({Path(path).name})", {"kind": "cayley"})


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group description; build with build_group."""

    kind: str
    params: tuple = ()

    def __str__(self) -> str:
        if self.kind == "product":
            return "prod:" + "+".join(str(p) for p in self.params)
        if self.kind == "ea":
            return f"ea:{self.params[0]}^{self.params[1]}"
        return f"{self.kind}:{self.params[0]}"


_FAMILY_BUILDERS = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "symmetric": symmetric_group,
    "alternating": alternating_group,
}

_KIND_ALIASES = {
    "cyclic": "cyclic",
    "c": "cyclic",
    "ea": "ea",
    "elementary_abelian": "ea",
    "dihedral": "dihedral",
    "d": "dihedral",
    "symmetric": "symmetric",
    "sym": "symmetric",
    "alternating": "alternating",
    "alt": "alternating",
    "prod": "product",
    "product": "product",
    "cayley": "cayley",
}


def parse_group_spec(text: str) -> GroupSpec:
    """Parse literals like cyclic:8, ea:2^6, dihedral:4, sym:4, alt:5,
    prod:cyclic:2+ea:2^2, cayley:<path>."""
    from .errors import SpecSyntaxError

    text = text.strip()
    head, sep, body = text.partition(":")
    kind = _KIND_ALIASES.get(head)
    if not sep or kind is None:
        raise SpecSyntaxError(f"unknown group family {head!r}", text, 0)
    if kind == "product":
        parts = body.split("+")
        if not all(parts):
            raise SpecSyntaxError("empty factor in product spec", text)
        return GroupSpec("product", tuple(parse_group_spec(p) for p in parts))
    if kind == "cayley":
        return GroupSpec("cayley", (body,))
    if kind == "ea":
        m = body.split("^")
        if len(m) != 2:
            raise SpecSyntaxError("ea wants p^k", text, len(head) + 1)
        try:
            return GroupSpec("ea", (int(m[0]), int(m[1])))
        except ValueError as exc:
            raise SpecSyntaxError(f"bad ea parameters: {exc}", text) from exc
    try:
        return GroupSpec(kind, (int(body),))
    except ValueError as exc:
        raise SpecSyntaxError(f"bad {kind} parameter: {exc}", text) from exc


def build_group(spec: GroupSpec, budget: int = DEFAULT_SIZE_BUDGET) -> Group:
    if spec.kind == "ea":
        return elementary_abelian_group(*spec.params, budget=budget)
    if spec.kind == "product":
        return direct_product_group(
            [build_group(s, budget) for s in spec.params], budget
        )
    if spec.kind == "cayley":
        return group_from_cayley_file(spec.params[0], budget)
    builder = _FAMILY_BUILDERS.get(spec.kind)
    if builder is None:
        raise GroupConstructionError(f"unknown group family {spec.kind!r}")
    return builder(spec.params[0], budget=budget)


# --- subgroups ---------------------------------------------------------------


class Subgroup:
    """A verified subgroup of a parent group, stored as a member bitmask."""

    __slots__ = ("parent", "mask")

    def __init__(self, parent: Group, mask: int, verify: bool = True):
        if verify:
            if not mask & 1:
                raise PreconditionError("subgroup must contain the identity")
            if inverse_mask(parent, mask) != mask:
                raise PreconditionError("set is not closed under inverses")
            if product_mask(parent, mask, mask) != mask:
                raise PreconditionError("set is not closed under products")
        self.parent = parent
        self.mask = mask

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @property
    def members(self):
        from .sets import GroupSet

        return GroupSet(self.parent, self.mask)

    def element_indices(self) -> np.ndarray:
        return mask_indices(self.mask, self.parent.order)

    @property
    def is_normal(self) -> bool:
        return core_within(self, self.parent.whole_subgroup()) == self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.parent.order, self.mask))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index} of {self.parent.label})"

    def to_json(self) -> dict:
        return {
            "group": self.parent.label,
            "order": self.order,
            "index": self.index,
            "elems": [int(x) for x in self.element_indices()],
        }


def elements_mask(g: Group, indices: Iterable[int]) -> int:
    """Bitmask of the listed elements of g; ValueError for an index out of
    range."""
    idx = [int(i) for i in indices]
    for i in idx:
        if not 0 <= i < g.order:
            raise ValueError(f"element {i} out of range for {g.label}")
    return indices_to_mask(idx, g.order)


def subgroup_from_indices(parent: Group, indices: Iterable[int]) -> Subgroup:
    return Subgroup(parent, elements_mask(parent, indices))


# --- derived structure --------------------------------------------------------


def exponent(g: Group) -> int:
    """Least r with x^r = 1 for all x (the lcm of element orders)."""
    return g.exponent()


def commutator_subgroup(h: Subgroup | Group) -> Subgroup:
    """[H,H], read from the parent's table; {1} when the parent is abelian.
    It is generated by the commutators [x, s] = x^-1 s^-1 x s of H's members
    x with H's greedy generators s (each the least member outside what the
    earlier ones generate): by [xz, s] = [x, s]^z [z, s] they generate a
    normal subgroup of H, and modulo it every s is central and H abelian."""
    h = h.whole_subgroup() if isinstance(h, Group) else h
    g = h.parent
    if g.is_abelian:
        return Subgroup(g, 1, verify=False)
    elems, gens, k = h.element_indices(), [], 1
    for x in elems.tolist():
        if not k >> x & 1:
            k = join_mask(g, k, tuple(gens), x)
            gens.append(x)
    comms = g.mult[g.mult[np.ix_(g.inv[elems], g.inv[gens])], g.mult[np.ix_(elems, gens)]]
    return Subgroup(g, g.closure(indices_to_mask(comms, g.order)), verify=False)


def member_products(h: Subgroup, lo: int, hi: int) -> np.ndarray:
    """Rows lo to hi of H's own table, read in place when H is the whole
    group: [i, j] is the position of xy among H's members in increasing
    order, for the (lo + i)-th member x and the j-th member y."""
    g = h.parent
    if h.order == g.order:
        return g.mult[lo:hi]
    elems = h.element_indices()
    pos = np.zeros(g.order, dtype=np.intp)
    pos[elems] = np.arange(len(elems))
    return pos[g.mult[np.ix_(elems[lo:hi], elems)]]


def coset_walk(g: Group, hmask: int) -> Iterator[tuple[int, np.ndarray]]:
    """(representative, membership array) for each right coset Hx of the
    subgroup mask, representatives in increasing index order.  Hx is read
    from row x: z is in Hx iff x z^-1 is in H."""
    hbits = mask_to_bools(hmask, g.order)
    seen = np.zeros(g.order, dtype=bool)
    for x in range(g.order):
        if not seen[x]:
            coset = hbits[g.mult[x][g.inv]]
            seen |= coset
            yield x, coset


def quotient_by(
    h: Subgroup | Group, normal_mask: int, verify: bool = True
) -> tuple[Group, np.ndarray]:
    """H/N for a subgroup mask N normal in H, and the projection of H's
    members in increasing order.  The cosets Nx are walked among them in
    the parent's table; coset i has the i-th least representative, its
    least member.  verify checks that the projection respects every
    product in H.  A whole group modulo {1} is the group itself."""
    h = h.whole_subgroup() if isinstance(h, Group) else h
    g, m = h.parent, h.order
    if m == g.order and normal_mask == 1:
        return g, np.arange(m)
    elems, nelems = h.element_indices(), mask_indices(normal_mask, g.order)
    lift = np.full(g.order, -1, dtype=np.intp)
    reps: list[int] = []
    for x in elems.tolist():
        if lift[x] < 0:
            lift[g.mult[nelems, x]] = len(reps)
            reps.append(x)
    proj = lift[elems]
    table = lift[g.mult[np.ix_(reps, reps)]]
    if verify:
        step = max(1, (1 << 22) // m)
        for i in range(0, m, step):
            block = proj[member_products(h, i, i + step)]
            if not np.array_equal(block, table[np.ix_(proj[i : i + step], proj)]):
                raise GroupConstructionError(
                    "quotient map is not well defined (subgroup not normal?)"
                )
    return Group(table, f"{g.label}|H{m}/N{nelems.size}", {"kind": "quotient"}), proj


def abelianization(h: Subgroup | Group) -> tuple[Group, np.ndarray]:
    """H/[H,H] and the projection of H's members in increasing order."""
    return quotient_by(h, commutator_subgroup(h).mask)


def abelian_basis(g: Group) -> list[tuple[int, int]]:
    """Independent generators (element, order) with G = prod of the cyclics.

    Peels a maximal-order element, recurses on the quotient, and corrects each
    lifted generator so its order matches its order in the quotient.
    """
    if not g.is_abelian:
        raise PreconditionError("abelian_basis requires an abelian group")
    if g.order == 1:
        return []
    orders = g.element_orders()
    a = int(np.argmax(orders))
    n1 = int(orders[a])
    if n1 == g.order:
        return [(a, n1)]
    q, proj = quotient_by(g, g.cyclic_masks()[a], verify=False)
    apows = g.powers(a)
    apos = {e: i for i, e in enumerate(apows)}
    out = [(a, n1)]
    for bq, m in abelian_basis(q):
        b0 = int(np.flatnonzero(proj == bq)[0])
        c = apos[g.pow_elem(b0, m)]
        if c % m != 0:
            raise GroupConstructionError("basis lift failed; group is not abelian?")
        shift = apows[(n1 - (c // m)) % n1]
        b = int(g.mult[b0, shift])
        if g.pow_elem(b, m) != 0:
            raise GroupConstructionError("corrected basis element has wrong order")
        out.append((b, m))
    total = math.prod(m for _, m in out)
    if total != g.order:
        raise GroupConstructionError("basis orders do not multiply to |G|")
    return out


def abelian_coordinates(g: Group, basis: list[tuple[int, int]]) -> np.ndarray:
    """Coordinate table: coords[x] = exponents of x in the given basis."""
    coords = np.zeros((g.order, len(basis)), dtype=np.int64)
    elems = np.zeros(1, dtype=np.intp)  # the products of the earlier basis powers
    for k, (b, m) in enumerate(basis):
        bpows = g.powers(b)
        if len(bpows) != m:
            raise GroupConstructionError(f"basis element {b} does not have order {m}")
        prods = g.mult[np.ix_(elems, bpows)]  # row i: elems[i] b^j for each j
        coords[prods] = coords[elems][:, None]
        coords[prods, k] = np.arange(m)
        elems = prods.ravel()
    if len(np.unique(elems)) != len(elems):
        raise GroupConstructionError("basis does not enumerate the group")
    return coords


# --- subgroup enumeration ------------------------------------------------------


def cyclic_subgroups_inside(g: Group, region: int) -> set[int]:
    """Masks of the cyclic subgroups of G inside the region mask."""
    return {m for m in g.cyclic_masks() if not m & ~region}


def subgroups_inside(g: Group, region: int) -> list[int]:
    """Masks of every subgroup of G inside the region mask, by (order, mask).

    Filters G's cached lattice, else generates each subgroup exactly once
    (orderly generation: Read 1978, McKay 1998).  A subgroup L has one
    greedy generating sequence x1 < x2 < ..., where xi is the least element
    of L outside K = <x1, ..., x(i-1)>; the search follows only these
    sequences.  From K it tries each x above the last generator and outside
    K whose <x> lies inside the region, skips x unless x is the least
    element of its coset Kx and of <x> - K (both sets lie in <K, x> - K),
    and accepts <K, x> iff it stays inside the region and x is the least
    element of <K, x> - K.  An increasing sequence with that property at
    every step is greedy for the subgroup it ends in: an element y < xi of
    L outside <x1, ..., x(i-1)> would first enter at some later step j,
    against xj < y.  So no subgroup is reached twice.

    Nodes (K, gens) leave the stack in batches (_pop_batch), and one gather
    per subgroup order in a batch reads the cosets Kx of all its pairs
    (K, x) to keep those with x = min(Kx).  Two kinds of pair need no join:
    - K lies in <x>: then <K, x> = <x>, read from the cyclic cache.
    - x^2 is in K and xKx^-1 = K, tested on the generators s of K as
      x s x^-1 in K.  Then Kx = xK, so KxKx = KKx^2 = K and K u Kx is
      closed under products: it is <K, x>, K has index 2 in it, and
      x = min(Kx) is its least element outside K.  (Conversely, K of index
      2 is normal in <K, x>, and x^2 in Kx would put x in K.)  These
      subgroups are built in bulk and kept iff they lie in the region.
    Every other pair calls join_mask, abandoned as soon as a coset leaves
    the region or holds an element below x outside K.

    Each pair that passes the min and cyclic tests counts one join, whether
    or not join_mask runs.  Those pairs depend only on their node, and the
    nodes are the subgroups found, each exactly once, so the count does not
    depend on the order of the traversal: FeasibilityError iff it exceeds
    SUBGROUP_JOIN_BUDGET.  A whole-group search fills the cache.  A region
    without the identity holds no subgroup."""
    if not region & 1:
        return []
    if g._lattice is not None:
        return [m for m in g._lattice if not m & ~region]
    n = g.order
    mult = g.mult
    item, inv, abelian = mult.item, g.inv.tolist(), g.is_abelian
    cyclics = g.cyclic_masks()
    eligible = bools_to_mask(np.array([not c & ~region for c in cyclics]))
    inside = mask_to_bools(region, n)
    found = [1]
    stack: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    joins = 0
    while stack:
        batch = _pop_batch(stack, eligible, n)
        if not batch:
            continue
        rows = masks_to_rows([node[1] for node in batch] + [node[3] for node in batch], n)
        kbits, cand_bits = rows[: len(batch)], rows[len(batch) :]
        pair_node, pair_x = cand_bits.nonzero()
        least = _coset_minima(mult, batch, kbits, pair_node, pair_x)
        children, index2, joined = [], [], []
        for j, x in zip(pair_node[least].tolist(), pair_x[least].tolist()):
            kmask, gens = batch[j][1], batch[j][2]
            if cyclics[x] & ~kmask & ((1 << x) - 1):
                continue
            joins += 1
            if not kmask & ~cyclics[x]:
                children.append((cyclics[x], j, x))
            elif kmask >> item(x, x) & 1 and (
                abelian or _normalizes(item, x, inv[x], kmask, gens)
            ):
                index2.append((j, x))
            else:
                joined.append((j, x))
        if joins > SUBGROUP_JOIN_BUDGET:
            raise FeasibilityError(
                f"subgroup search exceeded {SUBGROUP_JOIN_BUDGET} coset"
                f" joins after finding {len(found)} subgroups"
            )
        children += _index2_children(g, kbits, inside, index2)
        for j, x in joined:
            within = inside.copy()
            within[:x] = kbits[j, :x]
            k = join_mask(g, batch[j][1], batch[j][2], x, within)
            if k:
                children.append((k, j, x))
        for k, j, x in children:
            found.append(k)
            stack.append((k, batch[j][2] + (x,)))
    found.sort(key=lambda m: (m.bit_count(), m))
    if region == (1 << n) - 1:
        g._lattice = found
    return found


def _pop_batch(
    stack: list[tuple[int, tuple[int, ...]]], eligible: int, n: int
) -> list[tuple[int, int, tuple[int, ...], int, int]]:
    """Pop subgroups_inside's next batch of nodes (K, gens) off the stack.

    The candidates of K are the eligible x above its last generator and
    outside K.  A node costs n cells for its bit rows plus |K| per
    candidate, for its cosets, and the batch stops before the node that
    would take it past _SEARCH_BATCH_CELLS, but holds at least one node.
    Nodes without candidates are dropped.  Returns (|K|, K, gens,
    candidates, number of candidates) for each node, sorted by |K|."""
    batch: list[tuple[int, int, tuple[int, ...], int, int]] = []
    cells = 0
    while stack:
        kmask, gens = stack[-1]
        lo = gens[-1] + 1 if gens else 1
        cand = eligible >> lo << lo & ~kmask
        m, c = kmask.bit_count(), cand.bit_count()
        if batch and cells + n + m * c > _SEARCH_BATCH_CELLS:
            break
        stack.pop()
        if cand:
            batch.append((m, kmask, gens, cand, c))
            cells += n + m * c
    batch.sort(key=lambda node: node[0])
    return batch


def _coset_minima(
    mult: np.ndarray,
    batch: list[tuple[int, int, tuple[int, ...], int, int]],
    kbits: np.ndarray,
    pair_node: np.ndarray,
    pair_x: np.ndarray,
) -> np.ndarray:
    """Indices i of the pairs (K, x) = (batch[pair_node[i]], pair_x[i])
    with x = min(Kx), in increasing order.  kbits holds the nodes' bit
    rows.  One gather per subgroup order m reads the (m, pairs) matrix of
    table cells k * n + x, whose column i is the coset Kx."""
    n = mult.shape[0]
    table = mult.ravel()
    offsets = kbits.nonzero()[1] * n  # row offsets of the nodes' elements, node by node
    least = []
    r0 = p0 = c0 = 0
    for m, same_order in itertools.groupby(batch, key=lambda node: node[0]):
        nodes = list(same_order)
        r1, p1 = r0 + len(nodes), p0 + sum(node[4] for node in nodes)
        c1 = c0 + len(nodes) * m
        xs = pair_x[p0:p1]
        cosets = offsets[c0:c1].reshape(-1, m).T.take(pair_node[p0:p1] - r0, axis=1)
        cosets += xs
        least.append(p0 + (table[cosets].min(axis=0) == xs).nonzero()[0])
        r0, p0, c0 = r1, p1, c1
    return np.concatenate(least)


def _normalizes(item, x: int, xinv: int, kmask: int, gens: tuple[int, ...]) -> bool:
    """Whether x K x^-1 = K for the subgroup K (kmask) generated by gens,
    read with the table's item method: it holds iff x s x^-1 is in K for
    every generator s."""
    for s in gens:
        if not kmask >> item(item(x, s), xinv) & 1:
            return False
    return True


def _index2_children(
    g: Group, kbits: np.ndarray, inside: np.ndarray, pairs: list[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """(K u Kx, j, x) for each pair (j, x) whose K u Kx lies inside the
    region, where K has the bit row kbits[j]: z is in Kx iff x z^-1 is in
    K, as K is closed under inverses, so Kx is read off row x of the table.
    The rows are built and packed _SEARCH_BATCH_CELLS cells at a time."""
    n = g.order
    flat = kbits.ravel()
    out = []
    step = max(1, _SEARCH_BATCH_CELLS // n)
    for s in range(0, len(pairs), step):
        chunk = pairs[s : s + step]
        j, x = np.array(chunk).T
        cells = g.mult.take(x, axis=0).take(g.inv, axis=1).astype(np.intp)
        cells += (j * n)[:, None]  # cell x z^-1 of kbits[j]
        grown = kbits[j] | flat.take(cells)
        keep = (grown <= inside).all(axis=1).tolist()
        out += [(k, *jx) for k, jx, ok in zip(rows_to_masks(grown), chunk, keep) if ok]
    return out


def _lattice_masks(g: Group) -> list[int]:
    return subgroups_inside(g, (1 << g.order) - 1)


def enumerate_subgroups(
    g: Group,
    max_index: int | None = None,
) -> list[Subgroup]:
    """All subgroups (optionally restricted to index <= max_index).

    The cached lattice of subgroups_inside, which reaches each subgroup
    once, at any order: FeasibilityError once the search exceeds
    SUBGROUP_JOIN_BUDGET joins.  max_index does not prune the search: it
    filters the finished lattice.
    """
    masks = _lattice_masks(g)
    subs = [Subgroup(g, m, verify=False) for m in masks]
    if max_index is not None:
        subs = [h for h in subs if h.index <= max_index]
    return subs


def core_within(h: Subgroup, over: Subgroup) -> Subgroup:
    """Intersection of the conjugates a H a^-1 for a in `over`: for H inside
    `over`, the largest subgroup of H that is normal in `over`."""
    g = h.parent
    hbits = mask_to_bools(h.mask, g.order)
    core = hbits.copy()
    for a in over.element_indices():
        core &= hbits[g.mult[g.mult[g.inv[a]], a]]
    return Subgroup(g, bools_to_mask(core), verify=False)


def normal_core(g: Group, h: Subgroup) -> Subgroup:
    """Largest normal subgroup of G contained in H (intersection of conjugates)."""
    if h.parent is not g and h.parent != g:
        raise GroupMismatchError("subgroup belongs to a different group")
    return core_within(h, g.whole_subgroup())
