"""Low-level bit-vector kernels over a group's multiplication table.

Sets are integer bitmasks (bit i <=> element i).  Heavy operations go through
numpy boolean gathers on cached table rows; everything is exact.
"""

from __future__ import annotations

import numpy as np

# Cap on rows materialized per gather; keeps peak memory modest.
_CHUNK_CELLS = 1 << 23


def mask_to_bools(mask: int, n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


def bools_to_mask(bits: np.ndarray) -> int:
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def mask_indices(mask: int, n: int) -> np.ndarray:
    return np.flatnonzero(mask_to_bools(mask, n))


def inverse_mask(group, mask: int) -> int:
    if mask == 0:
        return 0
    bits = mask_to_bools(mask, group.order)
    return bools_to_mask(bits[group.inv])


def left_translate_mask(group, g: int, mask: int) -> int:
    """{g*y : y in set}:  z is a member iff g^-1 z is."""
    if mask == 0:
        return 0
    bits = mask_to_bools(mask, group.order)
    return bools_to_mask(bits[group.mult[group.inv[g]]])


def right_translate_mask(group, mask: int, g: int) -> int:
    """{x*g : x in set}:  z is a member iff z g^-1 is."""
    if mask == 0:
        return 0
    bits = mask_to_bools(mask, group.order)
    return bools_to_mask(bits[group.mult_t[group.inv[g]]])


def _gather_any(table: np.ndarray, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """OR of bits[table[r]] over the given rows, chunked."""
    n = table.shape[1]
    out = np.zeros(n, dtype=bool)
    step = max(1, _CHUNK_CELLS // n)
    for i in range(0, len(rows), step):
        chunk = table[rows[i : i + step]]
        out |= bits[chunk].any(axis=0)
    return out


def product_mask(group, xmask: int, ymask: int) -> int:
    """Exact product set {x*y}; iterates the smaller operand."""
    if xmask == 0 or ymask == 0:
        return 0
    n = group.order
    cx = xmask.bit_count()
    cy = ymask.bit_count()
    if cx <= cy:
        xs = mask_indices(xmask, n)
        ybits = mask_to_bools(ymask, n)
        out = _gather_any(group.mult, group.inv[xs], ybits)
    else:
        ys = mask_indices(ymask, n)
        xbits = mask_to_bools(xmask, n)
        out = _gather_any(group.mult_t, group.inv[ys], xbits)
    return bools_to_mask(out)


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


def cyclic_mask(group, x: int) -> int:
    """Bitmask of the cyclic subgroup generated by x."""
    mask = 1
    p = x
    while p != 0:
        mask |= 1 << p
        p = int(group.mult[p, x])
    return mask


def closure_mask(group, seed_mask: int) -> int:
    """Subgroup generated by the elements of seed_mask."""
    if seed_mask in (0, 1):
        return 1
    fam = group.family
    if fam.get("kind") == "ea" and fam.get("p") == 2:
        return _gf2_span(group.order, seed_mask)
    m = seed_mask | inverse_mask(group, seed_mask) | 1
    while True:
        nm = product_mask(group, m, m) | m
        if nm == m:
            return m
        m = nm


def _gf2_span(n: int, seed_mask: int) -> int:
    # In ea(2,k) element indices are coordinate vectors and mult is XOR.
    basis: list[int] = []
    mask = seed_mask
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    elems = [0]
    span = 1
    for b in basis:
        add = [e ^ b for e in elems]
        for e in add:
            span |= 1 << e
        elems += add
    return span


def translate_diff_counts(group, mask: int, side: str = "left") -> np.ndarray:
    """|gA symdiff A| for every g (or |Ag symdiff A| when side="right")."""
    n = group.order
    bits = mask_to_bools(mask, n)
    table = group.mult if side == "left" else group.mult_t
    counts = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // n)
    for i in range(0, n, step):
        rows = table[group.inv[np.arange(i, min(n, i + step))]]
        counts[i : i + step] = (bits[rows] ^ bits[None, :]).sum(axis=1)
    return counts


def symmetry_group_mask(group, mask: int, side: str = "left") -> int:
    """{g : g*S == S} (a subgroup; contained in S whenever 1 in S)."""
    counts = translate_diff_counts(group, mask, side)
    return bools_to_mask(counts == 0)
