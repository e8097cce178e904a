"""Low-level bit-vector kernels over a group's multiplication table.

Sets are integer bitmasks (bit i <=> element i).  Heavy operations go through
numpy gathers of translate rows, as bools or packed to words; all exact.
"""

from __future__ import annotations

import numpy as np

# Cap on the cells of one translate-row block; keeps peak memory modest.
_CHUNK_CELLS = 1 << 23
# Cells of the first block of a product's translate gather; later blocks
# double.  Groups of order up to 91 gather every product in one block.
_FIRST_BLOCK_CELLS = 1 << 12


def mask_to_bools(mask: int, n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def bools_to_mask(bits: np.ndarray) -> int:
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def masks_to_rows(masks: list[int], n: int) -> np.ndarray:
    """(len(masks), n) bool matrix whose row i is the indicator of masks[i]."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8)
    rows = raw.reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def rows_to_masks(rows: np.ndarray) -> list[int]:
    """Bitmasks of the rows of a 2-d bool matrix, packed in one call."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    raw, nbytes = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def mask_indices(mask: int, n: int) -> np.ndarray:
    return np.flatnonzero(mask_to_bools(mask, n))


def indices_to_mask(idx: np.ndarray, n: int) -> int:
    """Bitmask of the element indices idx, all below n."""
    bits = np.zeros(n, dtype=bool)
    bits[idx] = True
    return bools_to_mask(bits)


def inverse_mask(group, mask: int) -> int:
    if mask == 0:
        return 0
    bits = mask_to_bools(mask, group.order)
    return bools_to_mask(bits[group.inv])


def translate_rows(group, bits: np.ndarray, elems: np.ndarray):
    """Yield (block, rows) over consecutive blocks of elems, where bits is the
    indicator of a set S and rows[i] is the indicator of the left translate
    g*S for g = block[i]:  z is in gS iff g^-1 z is in S.  A block holds at
    most _CHUNK_CELLS cells."""
    step = max(1, _CHUNK_CELLS // group.order)
    for i in range(0, len(elems), step):
        block = elems[i : i + step]
        yield block, bits[group.mult[group.inv[block]]]


def product_mask(group, xmask: int, ymask: int) -> int:
    """Exact product set XY, in any group.

    z is in XY iff X meets zY^-1, a set of |Y| elements, so XY = G when
    |X| + |Y| > |G| (pigeonhole).  Otherwise XY is the union of the left
    translates xY over the smaller operand; when |X| > |Y| it is the inverse
    of Y^-1 X^-1, so right translates are never gathered.  The translates
    are gathered in blocks that double in size, the first of
    max(1, _FIRST_BLOCK_CELLS // |G|) rows, and the gather stops once the
    union is G.  A product that fills G then costs about log2 |G| rows, and
    none costs more rows than the smaller operand's size."""
    if xmask == 0 or ymask == 0:
        return 0
    n = group.order
    xcard, ycard = xmask.bit_count(), ymask.bit_count()
    if xcard + ycard > n:
        return (1 << n) - 1
    xbits, ybits = mask_to_bools(xmask, n), mask_to_bools(ymask, n)
    flip = xcard > ycard
    if flip:
        xbits, ybits = ybits[group.inv], xbits[group.inv]
    xs = np.flatnonzero(xbits)
    out = np.zeros(n, dtype=bool)
    start, size = 0, max(1, _FIRST_BLOCK_CELLS // n)
    while start < len(xs) and not out.all():
        for _, rows in translate_rows(group, ybits, xs[start : start + size]):
            out |= rows.any(axis=0)
        start, size = start + size, 2 * size
    return bools_to_mask(out[group.inv] if flip else out)


def power_mask(group, mask: int, k: int) -> int:
    """k-fold product set; k = 0 gives the identity singleton."""
    if k < 0:
        raise ValueError("power exponent must be nonnegative")
    if k == 0:
        return 1
    result = None
    base = mask
    while k:
        if k & 1:
            result = base if result is None else product_mask(group, result, base)
        k >>= 1
        if k:
            base = product_mask(group, base, base)
    return result


def join_mask(
    group, kmask: int, gens: tuple[int, ...], x: int, within: np.ndarray | None = None
) -> int:
    """<K, x> for the subgroup K (bitmask kmask) generated by gens, by
    Dimino's coset joins: a union of right cosets Kr grown from r = x.  Each
    product rs with s in gens + (x,) that falls outside the union adds its
    coset K(rs) with one gather mult[K, rs].  The union then contains K and
    is closed under right multiplication by every generator of <K, x>, so
    it is that subgroup.  Given the indicator array `within` of a set that
    contains K, returns 0 as soon as a coset leaves that set, since <K, x>
    then does too."""
    if kmask >> x & 1:
        return kmask
    mult = group.mult
    cols = mult.T  # cols[r][k] = k * r, without copying the table
    bits = mask_to_bools(kmask, group.order)
    kidx = bits.nonzero()[0]
    span = np.asarray(gens + (x,))
    reps: list[int] = []

    def add_coset(r: int) -> bool:
        # The table holds uint16; scattering through intp indices is much faster.
        coset = cols[r][kidx].astype(np.intp)
        if within is not None and not within[coset].all():
            return False
        bits[coset] = True
        reps.append(r)
        return True

    if not add_coset(x):
        return 0
    for r in reps:
        for rs in mult[r][span].tolist():
            if not bits[rs] and not add_coset(rs):
                return 0
    return bools_to_mask(bits)


def closure_mask(group, seed_mask: int) -> int:
    """Subgroup generated by the elements of seed_mask: join_mask folded over
    the seed elements that the subgroup so far does not cover."""
    kmask, gens = 1, ()
    for x in mask_indices(seed_mask, group.order).tolist():
        if not kmask >> x & 1:
            kmask = join_mask(group, kmask, gens, x)
            gens += (x,)
    return kmask


def translate_words(group, bits: np.ndarray) -> np.ndarray:
    """(n, ceil(n/64)) uint64 matrix: row g packs gS (np.packbits order), zero-padded."""
    n = group.order
    words = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    for block, rows in translate_rows(group, bits, np.arange(n)):
        words.view(np.uint8)[block, : (n + 7) // 8] = np.packbits(rows, axis=1)
        del rows  # free the block before the next gather
    return words


def translate_diff_counts(words: np.ndarray) -> np.ndarray:
    """|gA symdiff A| for every g, from A's translate_words (row 0 is A)."""
    return np.bitwise_count(words ^ words[0]).sum(axis=1)
