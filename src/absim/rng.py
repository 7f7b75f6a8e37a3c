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

_MASK64 = (1 << 64) - 1


def derive_stream(master_seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for (purpose, index) under the given master seed."""
    if purpose < 0 or index < 0:
        raise ValueError("purpose and index must be non-negative")
    bits = np.random.Philox(key=master_seed & _MASK64,
                            counter=[purpose & _MASK64, index & _MASK64, 0, 0])
    return np.random.Generator(bits)
