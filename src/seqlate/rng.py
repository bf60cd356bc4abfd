"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit seed through named
substreams.  The derivation is: hash the label with SHA-256, take the first
8 bytes as a little-endian integer, and seed a SeedSequence with the triple
(seed, label_key, index).  Two substreams with different labels or indices
are statistically independent, and the mapping is stable across platforms
and processes.
"""

import functools
import hashlib

import numpy as np

from .errors import InvalidConfig


@functools.lru_cache(maxsize=64)
def _label_key(label: str) -> int:
    """First 8 bytes of the label's SHA-256 as a little-endian integer."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


def substream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Return the generator for (seed, label, index).

    Parameters
    ----------
    seed : int
        Master seed, 0 <= seed < 2**64.
    label : str
        Purpose of the stream, e.g. "unit" or "chain".
    index : int
        Position within the labelled family, e.g. a unit or chain index.
    """
    if not 0 <= int(seed) < 2 ** 64:
        raise InvalidConfig(f"seed: must be a 64-bit unsigned integer, got {seed}")
    if index < 0:
        raise InvalidConfig(f"index: must be non-negative, got {index}")
    ss = np.random.SeedSequence([int(seed), _label_key(label), int(index)])
    return np.random.default_rng(ss)
