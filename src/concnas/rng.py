"""Seeded random streams.

Every stochastic routine in the package draws from a PCG64 generator so
that a (seed, purpose) pair maps to one reproducible stream on any
platform.  Streams are split by feeding the integer key path into
``numpy.random.SeedSequence``: ``substream(seed, a, b)`` hashes the words
``[seed, a, b]``, so distinct key paths give independent streams and the
same path always gives the same one.  The graph generators draw from
``substream(seed)``, the path of the seed alone.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Key-path constants for the second substream word.  Keep values stable:
# changing them changes every derived sample.
KEY_STAGING = 1
KEY_PARTITION = 2
KEY_SAMPLE = 3

def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for (seed, *path); stable under call order."""
    words = [seed & _MASK64] + [k & _MASK64 for k in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

def derived_seed(seed: int, *path: int) -> int:
    """64-bit seed hashed from (seed, *path), for handing to other APIs."""
    words = [seed & _MASK64] + [k & _MASK64 for k in path]
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1, dtype=np.uint64)[0])

def sample_seed(master_seed: int, index: int) -> int:
    """64-bit per-sample seed used by sweeps, derived from the master seed."""
    return derived_seed(master_seed, KEY_SAMPLE, index)
