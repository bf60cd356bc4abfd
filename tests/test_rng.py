"""Named substream derivation."""

import hashlib

import numpy as np
import pytest

from seqlate.errors import InvalidConfig
from seqlate.rng import substream


def test_substream_is_deterministic():
    a = substream(42, "unit", 3).standard_normal(5)
    b = substream(42, "unit", 3).standard_normal(5)
    assert np.array_equal(a, b)


def test_substream_separates_labels_indices_and_seeds():
    base = substream(42, "unit", 3).standard_normal(5)
    assert not np.array_equal(base, substream(42, "unit", 4).standard_normal(5))
    assert not np.array_equal(base, substream(42, "chain", 3).standard_normal(5))
    assert not np.array_equal(base, substream(43, "unit", 3).standard_normal(5))


def test_substream_matches_hand_built_seed_sequence():
    # the label key is the first 8 bytes of the label's SHA-256, little-endian;
    # repeated calls (the key is cached after the first) give the same stream
    key = int.from_bytes(hashlib.sha256(b"unit").digest()[:8], "little")
    want = np.random.default_rng(np.random.SeedSequence([42, key, 3])).standard_normal(5)
    for _ in range(2):
        assert np.array_equal(substream(42, "unit", 3).standard_normal(5), want)


def test_substream_validates_inputs():
    with pytest.raises(InvalidConfig):
        substream(-1, "unit", 0)
    with pytest.raises(InvalidConfig):
        substream(2 ** 64, "unit", 0)
    with pytest.raises(InvalidConfig):
        substream(1, "unit", -2)
