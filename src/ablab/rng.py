"""Deterministic splittable randomness.

A counter-based generator built on BLAKE2b.  Streams are derived by label, so
adding a new consumer never perturbs the draws seen by existing ones, and the
same (seed, label path) always yields the same stream on every platform.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

_U64 = 1 << 64


class SplitRng:
    """Counter-based PRNG keyed by a 32-byte state; split by label."""

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("SplitRng key must be 32 bytes")
        self._key = key
        self._counter = 0
        self._pool: list[int] = []

    @classmethod
    def from_seed(cls, seed: int) -> "SplitRng":
        raw = (seed & (_U64 - 1)).to_bytes(8, "little")
        return cls(hashlib.blake2b(raw, digest_size=32).digest())

    def derive(self, label: str) -> "SplitRng":
        """Child stream; independent of draws made from this stream."""
        h = hashlib.blake2b(label.encode("utf-8"), digest_size=32, key=self._key)
        return SplitRng(h.digest())

    def _refill(self) -> None:
        block = hashlib.blake2b(
            self._counter.to_bytes(8, "little"), digest_size=32, key=self._key
        ).digest()
        self._counter += 1
        self._pool = [
            int.from_bytes(block[i : i + 8], "little") for i in range(0, 32, 8)
        ]

    def next_u64(self) -> int:
        if not self._pool:
            self._refill()
        return self._pool.pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via rejection sampling."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = _U64 - (_U64 % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def bernoulli(self, p: Fraction) -> bool:
        return self.next_u64() * p.denominator < p.numerator * _U64

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def sample(self, seq, k: int) -> list:
        """k distinct items, order-stable partial Fisher-Yates."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample larger than population")
        for i in range(k):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def subset_mask(self, n: int, density: Fraction) -> int:
        """Random bit vector of length n, each bit set with probability density."""
        mask = 0
        for i in range(n):
            if self.bernoulli(density):
                mask |= 1 << i
        return mask
