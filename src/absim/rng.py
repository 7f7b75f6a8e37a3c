"""Counter-based random stream derivation.

One master seed drives a whole run. Every consumer (user placement, each
training episode) gets its own numpy Generator built from a Philox counter
block::

    Philox(key=master_seed, counter=[purpose, index, 0, 0])

Streams are therefore independent of each other and of how many values any
other stream has consumed, which keeps runs reproducible and makes it safe
to fan independent episodes or seeds out to worker threads.
"""

from __future__ import annotations

import functools

import numpy as np

# Purpose codes partition the counter space. Append new ones, never renumber.
PURPOSE_USER_PLACEMENT = 1
PURPOSE_EPISODE = 2

SEED_END = 1 << 64  # Philox key and counter words: larger ones would alias


def derive_stream(master_seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for (purpose, index) under the given master seed."""
    if not 0 <= master_seed < SEED_END:
        raise ValueError(f"master seed must be in [0, 2^64), got {master_seed}")
    if not (0 <= purpose < SEED_END and 0 <= index < SEED_END):
        raise ValueError("purpose and index must be in [0, 2^64)")
    # uint64: a plain list holding a word >= 2^63 would pass through float64
    counter = np.array([purpose, index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=master_seed, counter=counter))


class Draws:
    """rng.random() and rng.integers(n), value for value, through the ctypes
    interface of rng's bit generator, without numpy's per-call overhead.

    random() is numpy's own next_double, for Philox (u >> 11) * 2**-53 of
    one 64-bit word u. integers(n), 1 <= n <= 2**32, is numpy's
    buffered_bounded_lemire_uint32 (Lemire, ACM TOMACS 2019) with its
    rejection loop, over numpy's own next_uint32, whose half-word buffer
    (a fresh word's low half first, its high half kept for the next call)
    stays in the bit generator's state. n == 1 draws nothing. Both read the
    stream that rng reads, one value at a time, so calls on rng itself in
    between (standard_exponential) see the same stream and rng's state is
    always current. Not thread-safe: the calls bypass the bit generator's lock.
    """

    __slots__ = ("random", "_next_uint32", "_bitgen")

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator  # alive while its state's address is used
        c = self._bitgen.ctypes
        self.random = functools.partial(c.next_double, c.state)
        self._next_uint32 = functools.partial(c.next_uint32, c.state)

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            m = self._next_uint32() * n
            # a low half below 2**32 % n would bias m >> 32; 2**32 % n < n, so a
            # low half of at least n needs no modulo
            low = m & 0xFFFFFFFF
            if low >= n or low >= 0x100000000 % n:
                return m >> 32
