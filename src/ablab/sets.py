"""Exact product-set arithmetic on subsets of a finite group.

A GroupSet is an immutable bit vector over a fixed group.  All cardinality
comparisons are exact integer (or Fraction) arithmetic; floating point only
ever appears in display-only fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import ClassVar, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import (
    CoverageError,
    EmptySetError,
    GroupMismatchError,
    SpecSyntaxError,
    TheoremViolationError,
)
from .groups import Group, Subgroup, elements_mask
from .reporting import as_key, jsonable
from .rng import SplitRng


class GroupSet:
    """Immutable subset of a fixed finite group, stored as an int bitmask."""

    __slots__ = ("group", "mask", "_bools", "_translates")

    def __init__(self, group: Group, mask: int):
        if mask < 0 or mask >> group.order:
            raise ValueError("bitmask does not fit the group order")
        self.group = group
        self.mask = mask
        self._bools: np.ndarray | None = None
        self._translates: np.ndarray | None = None

    @classmethod
    def from_indices(cls, group: Group, indices) -> "GroupSet":
        return cls(group, elements_mask(group, indices))

    @classmethod
    def empty(cls, group: Group) -> "GroupSet":
        return cls(group, 0)

    @classmethod
    def full(cls, group: Group) -> "GroupSet":
        return cls(group, (1 << group.order) - 1)

    # --- plumbing -----------------------------------------------------------

    @property
    def card(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.card

    @property
    def bools(self) -> np.ndarray:
        if self._bools is None:
            b = kernels.mask_to_bools(self.mask, self.group.order)
            b.setflags(write=False)
            self._bools = b
        return self._bools

    @property
    def translates(self) -> np.ndarray:
        """Row g is gA, packed (kernels.translate_words); gathered once."""
        if self._translates is None:
            self._translates = kernels.translate_words(self.group, self.bools)
            self._translates.setflags(write=False)
        return self._translates

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bools)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.group.order and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.indices())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSet):
            return NotImplemented
        return self.group == other.group and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.group.order, self.mask))

    def _require_same(self, other: "GroupSet") -> None:
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatchError(
                f"sets over different groups: {self.group.label} vs {other.group.label}"
            )

    def __or__(self, other: "GroupSet") -> "GroupSet":
        self._require_same(other)
        return GroupSet(self.group, self.mask | other.mask)

    def __and__(self, other: "GroupSet") -> "GroupSet":
        self._require_same(other)
        return GroupSet(self.group, self.mask & other.mask)

    def __sub__(self, other: "GroupSet") -> "GroupSet":
        self._require_same(other)
        return GroupSet(self.group, self.mask & ~other.mask)

    def __xor__(self, other: "GroupSet") -> "GroupSet":
        self._require_same(other)
        return GroupSet(self.group, self.mask ^ other.mask)

    def issubset(self, other: "GroupSet") -> bool:
        self._require_same(other)
        return not self.mask & ~other.mask

    @property
    def is_symmetric(self) -> bool:
        return kernels.inverse_mask(self.group, self.mask) == self.mask

    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(self.group.signature.encode())
        h.update(self.mask.to_bytes((self.group.order + 7) // 8, "little"))
        return h.hexdigest()

    def to_json(self) -> dict:
        out: dict = {"card": self.card, "digest": self.digest()}
        if self.card <= 512:
            out["elems"] = [int(i) for i in self.indices()]
        else:
            nbytes = (self.group.order + 7) // 8
            out["hex"] = self.mask.to_bytes(nbytes, "little").hex()
        return out

    def __repr__(self) -> str:
        if self.card <= 12:
            return f"GroupSet({sorted(self)} in {self.group.label})"
        return f"GroupSet(card={self.card} in {self.group.label})"


# --- core operations -----------------------------------------------------------


def product(x: GroupSet, y: GroupSet) -> GroupSet:
    """Exact product set {x*y : x in X, y in Y}."""
    x._require_same(y)
    return GroupSet(x.group, kernels.product_mask(x.group, x.mask, y.mask))


def inverse(x: GroupSet) -> GroupSet:
    return GroupSet(x.group, kernels.inverse_mask(x.group, x.mask))


def power(x: GroupSet, k: int) -> GroupSet:
    """k-fold product set; power(x, 0) is the identity singleton."""
    return GroupSet(x.group, kernels.power_mask(x.group, x.mask, k))


def bar_closure(x: GroupSet) -> GroupSet:
    """X together with its inverses and the identity."""
    return GroupSet(
        x.group, x.mask | kernels.inverse_mask(x.group, x.mask) | 1
    )


def left_translate(g: int, x: GroupSet) -> GroupSet:
    _, rows = next(kernels.translate_rows(x.group, x.bools, np.array([g])))
    return GroupSet(x.group, kernels.bools_to_mask(rows[0]))


def right_translate(x: GroupSet, g: int) -> GroupSet:
    """Xg = (g^-1 X^-1)^-1."""
    return inverse(left_translate(x.group.invert(g), inverse(x)))


def eval_words(x: GroupSet, words: Sequence[str]) -> dict[str, GroupSet]:
    """Product sets of sign-string words, e.g. "+-+" = X X^-1 X, keyed by
    word and evaluated left to right; the empty word is the identity.  A
    prefix that several words share is computed once, and so is X^-1."""
    prefixes = {"": GroupSet(x.group, 1), "+": x}
    if any("-" in w for w in words):
        prefixes["-"] = inverse(x)
    for w in words:
        for i in range(2, len(w) + 1):
            if w[:i] not in prefixes:
                prefixes[w[:i]] = product(prefixes[w[: i - 1]], prefixes[w[i - 1]])
    return {w: prefixes[w] for w in words}


def eval_word(x: GroupSet, signs: str) -> GroupSet:
    """Product set of the word given by a sign string."""
    return eval_words(x, (signs,))[signs]


# The word whose size over |A| is the growth constant k of each mode:
# |A^3| <= K|A| (small tripling) and |A A^-1 A| <= K|A| (small alternation).
GROWTH_WORD = {"tripling": "+++", "alternation": "+-+"}


# --- growth diagnostics -----------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class GrowthProfile:
    base: GroupSet = field(metadata=as_key("set"))
    doubling: Fraction
    tripling: Fraction
    alternation: Fraction


def growth_profile(x: GroupSet) -> GrowthProfile:
    if x.card == 0:
        raise EmptySetError("growth profile of the empty set")
    words = eval_words(x, ("++", "+++", "+-+"))
    c = x.card
    return GrowthProfile(
        base=x,
        doubling=Fraction(words["++"].card, c),
        tripling=Fraction(words["+++"].card, c),
        alternation=Fraction(words["+-+"].card, c),
    )


@dataclass(frozen=True, kw_only=True)
class RuzsaDistance:
    """|XY^-1| together with |X| and |Y|; inequality tests stay in integers."""

    cross: int
    nx: int
    ny: int

    json_computed: ClassVar[dict[str, str]] = {"log": "value"}

    @property
    def value(self) -> float:
        return math.log(self.cross / math.sqrt(self.nx * self.ny))


def ruzsa_distance(x: GroupSet, y: GroupSet) -> RuzsaDistance:
    if x.card == 0 or y.card == 0:
        raise EmptySetError("Ruzsa distance needs nonempty sets")
    cross = product(x, inverse(y)).card
    return RuzsaDistance(cross=cross, nx=x.card, ny=y.card)


def ruzsa_triangle_ok(x: GroupSet, y: GroupSet, z: GroupSet) -> bool:
    """Triangle inequality in integer form: |XZ^-1| |Y| <= |XY^-1| |YZ^-1|."""
    xz = product(x, inverse(z)).card
    xy = product(x, inverse(y)).card
    yz = product(y, inverse(z)).card
    return xz * y.card <= xy * yz


# --- covering numbers ---------------------------------------------------------


def _translate_parts(x: GroupSet, y: GroupSet, pool: GroupSet) -> list[tuple[int, int]]:
    """(g, mask of gY intersect X) for g in the pool, dropping empty parts."""
    parts = []
    for block, rows in kernels.translate_rows(x.group, y.bools, pool.indices()):
        rows &= x.bools
        keep = rows.any(axis=1)
        for gi, row in zip(block[keep], rows[keep]):
            parts.append((int(gi), kernels.bools_to_mask(row)))
    return parts


def covering_number(
    x: GroupSet, y: GroupSet, translate_pool: GroupSet, exact: bool = False
) -> int:
    """Number of pool-translates gY needed to cover X.

    Greedy by default (largest new coverage, ties to the smallest translating
    element); exact mode runs branch and bound and is feasible when the answer
    is small (about twenty translates).
    """
    if x.card == 0:
        raise EmptySetError("cannot cover the empty set (nothing to do)")
    if y.card == 0:
        raise EmptySetError("cannot cover with translates of the empty set")
    x._require_same(y)
    x._require_same(translate_pool)
    parts = _translate_parts(x, y, translate_pool)
    union = 0
    for _, m in parts:
        union |= m
    if union != x.mask:
        raise CoverageError("x is not covered by pool-translates of y")
    greedy = _greedy_cover(x.mask, parts)
    if not exact:
        return greedy
    return _exact_cover(x.mask, parts, upper=greedy)


def _greedy_cover(universe: int, parts: list[tuple[int, int]]) -> int:
    remaining = universe
    count = 0
    while remaining:
        best_gain = 0
        best_mask = 0
        for _, m in parts:
            gain = (m & remaining).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_mask = m
        remaining &= ~best_mask
        count += 1
    return count


def _exact_cover(universe: int, parts: list[tuple[int, int]], upper: int) -> int:
    # Dominated-part pruning: keep only maximal distinct coverage masks.
    masks = sorted({m for _, m in parts}, key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in masks:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    coverers: dict[int, list[int]] = {}
    for e in range(universe.bit_length()):
        if universe >> e & 1:
            coverers[e] = [m for m in kept if m >> e & 1]
    best = upper
    max_size = max(m.bit_count() for m in kept)

    def dfs(remaining: int, used: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, used)
            return
        lb = used + -(-remaining.bit_count() // max_size)
        if lb >= best:
            return
        # Branch on the uncovered element with the fewest options.
        e = min(
            (e for e in coverers if remaining >> e & 1),
            key=lambda e: sum(1 for m in coverers[e] if m & remaining),
        )
        options = sorted(
            (m for m in coverers[e]), key=lambda m: -(m & remaining).bit_count()
        )
        for m in options:
            dfs(remaining & ~m, used + 1)

    dfs(universe, 0)
    return best


# --- product-growth certificates ------------------------------------------------

# (word, proven exponent, base word or None for X itself).  Each bound
# |word(X)| <= k^e |base(X)| is derived from the Ruzsa triangle inequality
# |UV^-1| <= |UW^-1| |WV^-1| / |W| plus translate monotonicity.
TRIPLING_WORDS: list[tuple[str, int, str | None]] = [
    ("++", 1, None),
    ("+++", 1, None),
    ("+-", 2, None),
    ("-+", 2, None),
    ("++-", 2, None),
    ("-++", 2, None),
    ("+-+", 3, None),
    ("-+-", 3, None),
    ("++--", 2, None),
    ("--++", 2, None),
    ("+-+-", 4, None),
    ("-+-+", 4, None),
    ("++++", 4, None),
    ("+-+-+-", 8, None),
]

ALTERNATION_WORDS: list[tuple[str, int, str | None]] = [
    ("+-", 1, None),
    ("-+", 1, None),
    ("+-+", 1, None),
    ("+-+-", 2, "+-"),
    ("+-+-+-", 4, "+-+"),
    ("+-+-+-", 5, None),
]


@dataclass(frozen=True, kw_only=True)
class PlunneckeEntry:
    word: str
    bound_exponent: int
    base_word: str | None = field(metadata=as_key("base_word", lambda w: w or "X"))
    base_size: int
    size: int
    ok: bool
    measured_exponent: float | None


@dataclass(frozen=True, kw_only=True)
class PlunneckeCertificate:
    mode: str
    k: Fraction
    base_size: int
    entries: tuple[PlunneckeEntry, ...]
    all_ok: bool


def plunnecke_check(x: GroupSet, mode: str = "tripling") -> PlunneckeCertificate:
    """Verify product-growth bounds for a fixed word list by exact counting.

    k is the size of the mode's growth word over |X|: |X^3|/|X| in tripling
    mode, |X X^-1 X|/|X| in alternation mode.  The bounds are theorems, so a
    failed entry raises TheoremViolationError with a reproducer payload.
    """
    if x.card == 0:
        raise EmptySetError("plunnecke_check needs a nonempty set")
    if mode not in GROWTH_WORD:
        raise ValueError(f"unknown mode {mode!r}")
    table = TRIPLING_WORDS if mode == "tripling" else ALTERNATION_WORDS
    growth = GROWTH_WORD[mode]
    # "+" is X itself, the base of an entry whose base word is None.
    words = eval_words(
        x, [growth, "+"] + [w for w, _, _ in table] + [b for _, _, b in table if b]
    )
    k = Fraction(words[growth].card, x.card)
    entries = []
    for word, exp, base in table:
        size = words[word].card
        base_size = words[base or "+"].card
        ok = size * k.denominator**exp <= k.numerator**exp * base_size
        measured = None
        if k > 1 and size > x.card:
            measured = math.log(size / x.card) / math.log(float(k))
        entries.append(
            PlunneckeEntry(
                word=word, bound_exponent=exp, base_word=base, base_size=base_size,
                size=size, ok=ok, measured_exponent=measured,
            )
        )
    cert = PlunneckeCertificate(
        mode=mode, k=k, base_size=x.card, entries=tuple(entries),
        all_ok=all(e.ok for e in entries),
    )
    if not cert.all_ok:
        raise TheoremViolationError(
            "product-growth bound failed (internal inconsistency)",
            reproducer={
                "group": x.group.label,
                "set": sorted(x),
                "mode": mode,
                "failed": [jsonable(e) for e in entries if not e.ok],
            },
        )
    return cert


# --- set literals ----------------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecSyntaxError(f"bad rational {text!r}: {exc}") from exc


_RANDOM_RE = re.compile(r"^density=([^,]+),seed=(-?\d+)$")
_INTERVAL_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_COSETS_RE = re.compile(r"^H=\[([^\]]*)\],reps=\[([^\]]*)\]$")


def _int(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise SpecSyntaxError(f"bad integer: {exc}", text) from exc


def _parse_index_list(body: str, text: str) -> list[int]:
    return [_int(tok, text) for tok in body.split(",")] if body.strip() else []


def _literal_set(group: Group, items: list, text: str) -> GroupSet:
    """The set of the listed element indices of the group."""
    for i in items:
        if type(i) is not int or not 0 <= i < group.order:
            raise SpecSyntaxError(f"{i!r} is not an element index of {group.label}", text)
    return GroupSet.from_indices(group, items)


def parse_set_spec(group: Group, text: str) -> GroupSet:
    """Parse a set literal over the given group.

    Grammar: elems:[i,...] | random:density=p,seed=s | interval:a..b |
    hamming:r | cosets:H=[...],reps=[...] | file:<path>.
    """
    text = text.strip()
    head, sep, body = text.partition(":")
    if not sep:
        raise SpecSyntaxError("set literal needs 'kind:...'", text, 0)
    if head == "elems":
        if not (body.startswith("[") and body.endswith("]")):
            raise SpecSyntaxError("elems wants a bracketed list", text, len(head) + 1)
        return _literal_set(group, _parse_index_list(body[1:-1], text), text)
    if head == "random":
        m = _RANDOM_RE.match(body)
        if not m:
            raise SpecSyntaxError("random wants density=<frac>,seed=<int>", text, len(head) + 1)
        density = parse_fraction(m.group(1))
        if not 0 <= density <= 1:
            raise SpecSyntaxError("density must be in [0,1]", text)
        seed = _int(m.group(2), text)
        stream = SplitRng.from_seed(seed).derive("set-literal")
        return GroupSet(group, stream.subset_mask(group.order, density))
    if head == "interval":
        if group.family.get("kind") != "cyclic":
            raise SpecSyntaxError("interval literals need a cyclic group", text)
        m = _INTERVAL_RE.match(body)
        if not m:
            raise SpecSyntaxError("interval wants a..b", text, len(head) + 1)
        a, b = _int(m.group(1), text), _int(m.group(2), text)
        n = group.order
        a %= n
        b %= n
        span = (b - a) % n
        return GroupSet.from_indices(group, [(a + i) % n for i in range(span + 1)])
    if head == "hamming":
        fam = group.family
        if fam.get("kind") != "ea" or fam.get("p") != 2:
            raise SpecSyntaxError("hamming literals need ea(2,k)", text)
        r = _int(body, text)
        return GroupSet.from_indices(
            group, [i for i in range(group.order) if i.bit_count() <= r]
        )
    if head == "cosets":
        m = _COSETS_RE.match(body)
        if not m:
            raise SpecSyntaxError("cosets wants H=[...],reps=[...]", text, len(head) + 1)
        hset = _literal_set(group, _parse_index_list(m.group(1), text), text)
        sub = Subgroup(group, hset.mask)  # verifies closure
        mask = 0
        for rep in _parse_index_list(m.group(2), text):
            if not 0 <= rep < group.order:
                raise SpecSyntaxError(f"rep {rep} out of range", text)
            mask |= right_translate(GroupSet(group, sub.mask), rep).mask
        return GroupSet(group, mask)
    if head == "file":
        try:
            data = json.loads(Path(body).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, NUL in path
            raise SpecSyntaxError(f"cannot read set file: {exc}", text) from exc
        if not isinstance(data, list):
            raise SpecSyntaxError("set file must hold a JSON list of indices", text)
        return _literal_set(group, data, text)
    raise SpecSyntaxError(f"unknown set literal kind {head!r}", text, 0)

