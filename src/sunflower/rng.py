"""Deterministic counter-based random generator.

Stream word i is defined platform-independently as

    SHA-256(seed as 8 big-endian bytes || block as 8 big-endian bytes)

split into four big-endian 64-bit words (block = i // 4).  The same seed
therefore replays the same stream on any machine, which keeps randomized
searches and generated test families reproducible.  Only the few methods
the package needs are provided; all are built on rejection sampling so the
distribution is exact.
"""

from __future__ import annotations

from typing import MutableSequence, Sequence, TypeVar

# The interpreter's built-in SHA-256: hashlib would load OpenSSL's _hashlib
# for the same digests.
try:
    from _sha2 import sha256
except ImportError:  # before Python 3.12
    from _sha256 import sha256

T = TypeVar("T")

_WORD = 1 << 64


class CounterRng:
    """Deterministic RNG; same (seed, call sequence) gives same outputs."""

    __slots__ = ("seed", "_block", "_buffer")

    def __init__(self, seed: int):
        if not 0 <= seed < _WORD:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self._block = 0
        self._buffer: list[int] = []

    def _next_word(self) -> int:
        if not self._buffer:
            digest = sha256(
                self.seed.to_bytes(8, "big")
                + self._block.to_bytes(8, "big")).digest()
            self._block += 1
            self._buffer = [int.from_bytes(digest[i:i + 8], "big")
                            for i in (24, 16, 8, 0)]
        return self._buffer.pop()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("range must be positive")
        # largest multiple of n below 2^64; reject words above it
        limit = (_WORD // n) * n
        while True:
            w = self._next_word()
            if w < limit:
                return w % n

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k distinct elements, order of selection."""
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(items)
        out = []
        for i in range(k):
            j = self.randrange(n - i)
            out.append(pool[j])
            pool[j] = pool[n - 1 - i]
        return out
