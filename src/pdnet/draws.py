"""numpy ``Generator`` draws replayed from PCG64 outputs drawn in bulk.

``np.random.default_rng(seed)`` is a ``Generator`` over a PCG64 bit
generator, and each of its ``random()`` and bounded ``integers`` calls is
a fixed function of the bit generator's 64-bit outputs. Drawing those
outputs in one ``random_raw`` call and applying that function gives the
same values without a Python call per draw.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


def coins(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of a PCG64 generator for each of its 64-bit
    outputs ``words``: the top 53 bits times 2^-53."""
    return (words >> np.uint64(11)) * 2.0 ** -53


class RewireStream:
    """The draws Watts-Strogatz rewiring makes on
    ``np.random.default_rng(seed)``, served from PCG64 outputs drawn in
    bulk: ``count`` coins, one per ring edge, each followed by a bounded
    integer when it falls below ``theta``.

    A coin takes one output (``coins``); the hits among the outputs are
    found with one mask, and ``next_hit`` steps from one to the next.
    ``integers`` reproduces numpy's bounded draw: 32-bit halves, the low
    half of an output first and the high half kept for the next half
    asked for (coins do not touch it), and Lemire's multiply-then-reject.
    Outputs are drawn as many at a time as coins remain, at least one,
    and again whenever they run out.
    """

    def __init__(self, seed: int, count: int, theta: float):
        self._bits = np.random.default_rng(seed).bit_generator
        self._theta = theta
        self._count = count
        self._drawn = 0
        self._high: int | None = None
        self._refill()

    def _refill(self) -> None:
        self._words = self._bits.random_raw(max(self._count - self._drawn, 1))
        self._hits = np.flatnonzero(coins(self._words) < self._theta).tolist()
        self._pos = 0

    def next_hit(self) -> int | None:
        """Draw coins up to the next one below theta and return its index
        among all coins; None once every coin is drawn."""
        # a draw holds no more outputs than coins remain, so the outputs
        # from _pos up to the next hit are all coins
        while self._drawn < self._count:
            if self._pos == len(self._words):
                self._refill()
            h = bisect_left(self._hits, self._pos)
            stop = self._hits[h] + 1 if h < len(self._hits) else len(self._words)
            self._drawn += stop - self._pos
            self._pos = stop
            if h < len(self._hits):
                return self._drawn - 1
        return None

    def _uint32(self) -> int:
        if self._high is not None:
            low, self._high = self._high, None
            return low
        if self._pos == len(self._words):
            self._refill()
        word = int(self._words[self._pos])
        self._pos += 1
        self._high = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, bound: int) -> int:
        """``Generator.integers(bound)`` for 1 <= bound <= 2^32; bound 1
        draws nothing."""
        if bound == 1:
            return 0
        threshold = 2 ** 32 % bound
        m = self._uint32() * bound
        while m & 0xFFFFFFFF < threshold:
            m = self._uint32() * bound
        return m >> 32
