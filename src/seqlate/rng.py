"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit seed through named
substreams.  The derivation is: hash the label with SHA-256, take the first
8 bytes as a little-endian integer, and seed a SeedSequence with the triple
(seed, label_key, index).  Two substreams with different labels or indices
are statistically independent, and the mapping is stable across platforms
and processes.

substream returns the generator default_rng(SeedSequence([seed, label_key,
index])) returns, without building that SeedSequence: the state words it
would hand PCG64 are hashed as it hashes them, with array arithmetic for
_BLOCK consecutive indices at once, and the last block is cached, so a run
of calls over consecutive indices costs about one PCG64 construction each.
The generator's seed_seq holds those words only; it cannot spawn.
"""

import functools
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidConfig

# indices whose state words are hashed at once
_BLOCK = 2048
# SeedSequence's hash constants: the pool's, generate_state's and the mix's
_POOL, _STATE, _MIX = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED), (0xCA01F9DD, 0x4973F715)


def _words(n: int) -> list:
    """The 32-bit words of a non-negative integer, least significant first."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hash of uint32 arrays: each call xors in a constant,
    multiplies by the next and folds the high half into the low."""
    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal init
        x, init = init, init * mult & 0xFFFFFFFF
        v = (v ^ np.uint32(x)) * np.uint32(init)
        return v ^ v >> np.uint32(16)
    return hash_


@functools.lru_cache(maxsize=1)
def _state_words(seed: int, label: str, block: int) -> np.ndarray:
    """Read-only (_BLOCK, 4) uint64: row j is what SeedSequence([seed, key,
    block * _BLOCK + j]).generate_state(4, np.uint64) gives.  Each index of
    a block has as many 32-bit words, as _BLOCK divides 2**32."""
    key = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    low, *high = _words(block * _BLOCK)
    entropy = [np.full(_BLOCK, w, np.uint32) for w in _words(seed) + _words(key)]
    entropy += [np.arange(_BLOCK, dtype=np.uint32) + np.uint32(low)]
    entropy += [np.full(_BLOCK, w, np.uint32) for w in high]
    entropy += [np.zeros(_BLOCK, np.uint32)] * (4 - len(entropy))
    hash_ = _hasher(*_POOL)
    pool = [hash_(v) for v in entropy[:4]]
    # every pool word into every other, then each further entropy word into each
    for src in range(len(entropy)):
        for dst in range(4):
            if src != dst:
                r = (pool[dst] * np.uint32(_MIX[0])
                     - hash_(pool[src] if src < 4 else entropy[src]) * np.uint32(_MIX[1]))
                pool[dst] = r ^ r >> np.uint32(16)
    hash_ = _hasher(*_STATE)
    state = np.column_stack([hash_(pool[i % 4]) for i in range(8)])
    # generate_state's uint64 words: little-endian pairs, in native order
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


class _StateWords(ISeedSequence):
    """Hands PCG64 the state words it was made with."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


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
    block, j = divmod(int(index), _BLOCK)
    words = _state_words(int(seed), label, block)[j]
    return np.random.Generator(np.random.PCG64(_StateWords(words)))
