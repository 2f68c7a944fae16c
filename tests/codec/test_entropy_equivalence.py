"""Equivalence of the vectorised entropy coder with the reference coder.

The vectorised ``encode_blocks`` / ``decode_blocks`` must be byte-for-byte
(and error-for-error) interchangeable with the per-block Python coders in
``entropy_oracle.py`` — the byte format is pinned by the oracle, not by the
fast path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_oracle import (decode_blocks, decode_blocks_reference,
                            encode_blocks_reference)
from repro.codec.entropy import (MAX_LEVEL, decode_block_payloads,
                                 encode_blocks, encoded_block_sizes,
                                 encoded_size_bytes)
from repro.errors import BitstreamError, CodecError


def random_blocks(blocks_y, blocks_x, block_size, density, seed,
                  level_range=40000):
    """Quantised block array with a controlled non-zero density."""
    rng = np.random.default_rng(seed)
    shape = (blocks_y, blocks_x, block_size, block_size)
    levels = rng.integers(-level_range, level_range + 1, size=shape)
    mask = rng.random(shape) < density
    return np.where(mask, levels, 0).astype(np.int64)


block_arrays = st.builds(
    random_blocks,
    blocks_y=st.integers(min_value=1, max_value=6),
    blocks_x=st.integers(min_value=1, max_value=6),
    block_size=st.sampled_from([2, 4, 8, 16]),
    density=st.sampled_from([0.0, 0.02, 0.15, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestEncodeDecodeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(quantised=block_arrays)
    def test_encode_matches_reference_byte_for_byte(self, quantised):
        assert encode_blocks(quantised) == encode_blocks_reference(quantised)

    @settings(max_examples=60, deadline=None)
    @given(quantised=block_arrays)
    def test_decode_matches_reference(self, quantised):
        payload = encode_blocks_reference(quantised)
        blocks_y, blocks_x, block_size = quantised.shape[:3]
        fast = decode_blocks(payload, blocks_y, blocks_x, block_size)
        reference = decode_blocks_reference(payload, blocks_y, blocks_x,
                                            block_size)
        assert np.array_equal(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(quantised=block_arrays)
    def test_round_trip_recovers_clipped_levels(self, quantised):
        payload = encode_blocks(quantised)
        blocks_y, blocks_x, block_size = quantised.shape[:3]
        decoded = decode_blocks(payload, blocks_y, blocks_x, block_size)
        assert np.array_equal(decoded,
                              np.clip(quantised, -MAX_LEVEL, MAX_LEVEL))
        assert len(payload) == encoded_size_bytes(
            np.clip(quantised, -MAX_LEVEL, MAX_LEVEL))

    @settings(max_examples=60, deadline=None)
    @given(quantised=block_arrays,
           mutations=st.lists(
               st.tuples(st.integers(min_value=0, max_value=10**9),
                         st.integers(min_value=0, max_value=255)),
               min_size=1, max_size=4))
    def test_mutated_payloads_agree_with_reference(self, quantised, mutations):
        """Random corruption: both decoders accept or reject identically."""
        payload = bytearray(encode_blocks_reference(quantised))
        if not payload:
            return
        for position, value in mutations:
            payload[position % len(payload)] = value
        payload = bytes(payload)
        blocks_y, blocks_x, block_size = quantised.shape[:3]
        try:
            reference = decode_blocks_reference(payload, blocks_y, blocks_x,
                                                block_size)
            reference_error = None
        except BitstreamError as exc:
            reference, reference_error = None, exc
        try:
            fast = decode_blocks(payload, blocks_y, blocks_x, block_size)
            fast_error = None
        except BitstreamError as exc:
            fast, fast_error = None, exc
        assert (reference_error is None) == (fast_error is None)
        if reference_error is None:
            assert np.array_equal(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(quantised=block_arrays,
           cuts=st.lists(st.integers(min_value=0, max_value=36), max_size=5))
    def test_block_sizes_sum_over_any_split(self, quantised, cuts):
        """The per-block size rule, summed over any run of blocks (empty
        ones included), is that run's payload length, by both coders."""
        blocks = quantised.reshape(-1, 1, *quantised.shape[2:])
        sizes = encoded_block_sizes(quantised)
        assert sizes.shape == (len(blocks),)
        bounds = sorted([0, len(blocks), *(cut % (len(blocks) + 1)
                                           for cut in cuts)])
        for start, end in zip(bounds, bounds[1:]):
            split = blocks[start:end]
            assert (int(sizes[start:end].sum()) == len(encode_blocks(split))
                    == len(encode_blocks_reference(split)))
        assert int(sizes.sum()) == encoded_size_bytes(quantised)

    def test_a_block_array_is_required(self):
        for bad in ([[1]], np.zeros((2, 2)), np.zeros((1, 1, 2, 3))):
            with pytest.raises(CodecError):
                encoded_size_bytes(bad)

    def test_empty_blocks_are_one_eob_each(self):
        quantised = np.zeros((2, 3, 8, 8), dtype=np.int64)
        assert encode_blocks(quantised) == b"\x00" * 6
        assert np.array_equal(decode_blocks(b"\x00" * 6, 2, 3, 8), quantised)

    def test_boundary_levels(self):
        """The -128/127 one-byte boundary and the int16 clip boundary."""
        quantised = np.zeros((1, 6, 8, 8), dtype=np.int64)
        for index, level in enumerate((-128, 127, -129, 128, -MAX_LEVEL - 5,
                                       MAX_LEVEL + 5)):
            quantised[0, index, 0, 0] = level
        payload = encode_blocks(quantised)
        assert payload == encode_blocks_reference(quantised)
        decoded = decode_blocks(payload, 1, 6, 8)
        assert np.array_equal(decoded, np.clip(quantised, -MAX_LEVEL, MAX_LEVEL))


class TestDecodeErrorEquivalence:
    CASES = [
        b"",                              # truncated: no EOB at all
        b"\x12",                          # truncated: missing level bytes
        b"\x13\x00\x00\x00\x00",          # invalid level size 3
        b"\x1f\x00\x00",                  # invalid level size 15
        b"\x10\x00",                      # invalid level size 0 (regression)
        b"\x00\x00",                      # trailing bytes after the last block
        b"\xf0\xf0\xf0\xf0\x11\x05\x00",  # ZRL run past the block end
    ]

    @pytest.mark.parametrize("payload", CASES)
    def test_error_cases_match_reference(self, payload):
        with pytest.raises(BitstreamError):
            decode_blocks_reference(payload, 1, 1, 8)
        with pytest.raises(BitstreamError):
            decode_blocks(payload, 1, 1, 8)


class TestBlockFraming:
    """Every block ends at its own EOB, and a malformed token is named."""

    def test_per_block_payloads_concatenate_to_the_frame_payload(self):
        quantised = random_blocks(2, 2, 8, 0.3, seed=7, level_range=300)
        payload = encode_blocks(quantised)
        pieces = [encode_blocks(quantised[y:y + 1, x:x + 1])
                  for y in range(2) for x in range(2)]
        assert b"".join(pieces) == payload
        assert all(piece.endswith(b"\x00") for piece in pieces)
        blocks = decode_block_payloads(np.frombuffer(payload, dtype=np.uint8),
                                       [len(piece) for piece in pieces],
                                       [1] * 4, 8)
        assert np.array_equal(blocks, quantised.reshape(4, 8, 8))

    @pytest.mark.parametrize("size", range(3, 16))
    def test_invalid_level_size_raises(self, size):
        """Sizes 3-15 are rejected, not skipped over as level bytes."""
        payload = bytes([(0 << 4) | size]) + b"\x00" * size + b"\x00"
        for decode in (decode_blocks, decode_blocks_reference):
            with pytest.raises(BitstreamError,
                               match=f"invalid level size {size} in"):
                decode(payload, 1, 1, 8)

    def test_truncated_level_bytes_raise(self):
        for decode in (decode_blocks, decode_blocks_reference):
            with pytest.raises(BitstreamError, match="missing level bytes"):
                decode(b"\x12\x01", 1, 1, 8)

    def test_truncated_block_raises(self):
        for decode in (decode_blocks, decode_blocks_reference):
            with pytest.raises(BitstreamError, match="missing EOB"):
                decode(b"\x00", 2, 1, 8)

