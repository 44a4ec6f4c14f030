"""Deterministic random-number substreams.

All randomness in the package is derived from a named 64-bit seed. Independent
substreams (per trial, per frame, per optimizer restart) are obtained by
feeding the seed together with integer stream identifiers into a
``numpy.random.SeedSequence``, so results never depend on execution order,
chunking, or thread count.
"""

import numpy as np

from .errors import InvalidArgument
from .linalg import is_int

_MASK64 = (1 << 64) - 1


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *ids)."""
    if not is_int(seed):
        raise InvalidArgument(f"seed must be an integer, got {seed!r}")
    entropy = [int(seed) & _MASK64] + [int(i) & _MASK64 for i in ids]
    return np.random.default_rng(np.random.SeedSequence(entropy))
