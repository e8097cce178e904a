"""Deterministic splittable randomness.

A counter-based generator built on BLAKE2b.  Streams are derived by label, so
adding a new consumer never perturbs the draws seen by existing ones, and the
same (seed, label path) always yields the same stream on every platform.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from .kernels import bools_to_mask

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

    def _block(self) -> bytes:
        """The next 32-byte block: four little-endian u64 draws, which
        next_u64 pops last first."""
        block = hashlib.blake2b(
            self._counter.to_bytes(8, "little"), digest_size=32, key=self._key
        ).digest()
        self._counter += 1
        return block

    def _refill(self) -> None:
        block = self._block()
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
        """Random bit vector of length n, each bit set with probability
        density: bit i is bernoulli(density) on the i-th next_u64 draw.  The
        draws past the pool come a block at a time and are compared in numpy
        with ceil(num * 2^64 / den), since an integer u has u den < num 2^64
        iff u is below that ceiling."""
        head = self._pool[: -n - 1 : -1]  # what next_u64 would pop first
        del self._pool[len(self._pool) - len(head) :]
        rest = n - len(head)
        blocks = -(-rest // 4)
        raw = b"".join(self._block() for _ in range(blocks))
        words = np.frombuffer(raw, dtype="<u8").reshape(blocks, 4)
        if blocks:
            self._pool = words[-1, : 4 * blocks - rest].tolist()
        draws = np.concatenate(
            [np.array(head, dtype=np.uint64), words[:, ::-1].ravel()[:rest]]
        )
        limit = -(-density.numerator * _U64 // density.denominator)
        if limit <= 0:
            return 0
        if limit >= _U64:
            return (1 << n) - 1
        return bools_to_mask(draws < np.uint64(limit))
