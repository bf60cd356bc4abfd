"""Named substream derivation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlate.errors import InvalidConfig
from seqlate.rng import _BLOCK, substream


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


def _reference(seed, label, index):
    """The generator SeedSequence([seed, key, index]) seeds."""
    key = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key, index]))


def _assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.integers(0, 2 ** 63, size=4), want.integers(0, 2 ** 63, size=4))


# the values where an integer gains a 32-bit word
_WORD_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


@pytest.mark.parametrize("label", ["unit", "chain", "", "größe ✓"])
@pytest.mark.parametrize("index", _WORD_EDGES + [2 ** 40, 2 ** 64, 2 ** 96 + 3])
@pytest.mark.parametrize("seed", _WORD_EDGES)
def test_substream_draws_what_the_seed_sequence_of_the_triple_draws(seed, label, index):
    _assert_same_stream(substream(seed, label, index), _reference(seed, label, index))


@given(st.integers(0, 2 ** 64 - 1), st.text(max_size=8), st.integers(0, 2 ** 128))
@settings(max_examples=300, deadline=None)
def test_substream_matches_the_seed_sequence_of_the_triple_over_all_inputs(seed, label, index):
    _assert_same_stream(substream(seed, label, index), _reference(seed, label, index))


def test_substream_agrees_across_block_edges_and_interleaved_families():
    # the state words of _BLOCK consecutive indices are hashed at once and the
    # last block is kept: a run across a block's edge, and calls that switch
    # between families and blocks, still draw what each triple's sequence draws
    for index in range(_BLOCK - 3, _BLOCK + 3):
        _assert_same_stream(substream(7, "unit", index), _reference(7, "unit", index))
    for index in (5, 3 * _BLOCK + 1, 5):
        for seed, label in ((7, "unit"), (7, "chain"), (8, "unit")):
            _assert_same_stream(substream(seed, label, index), _reference(seed, label, index))


def test_substream_calls_return_independent_generators():
    a, b = substream(42, "unit", 3), substream(42, "unit", 3)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.standard_normal(5)
    assert np.array_equal(b.standard_normal(5), first)
    assert not np.array_equal(a.standard_normal(5), first)
    # a third call starts afresh, whatever the first two drew
    assert np.array_equal(substream(42, "unit", 3).standard_normal(5), first)


def test_substream_validates_inputs():
    with pytest.raises(InvalidConfig):
        substream(-1, "unit", 0)
    with pytest.raises(InvalidConfig):
        substream(2 ** 64, "unit", 0)
    with pytest.raises(InvalidConfig):
        substream(1, "unit", -2)
