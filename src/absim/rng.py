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
