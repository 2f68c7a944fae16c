"""``decode_block_payloads``: several entropy payloads in one token scan.

The multi-payload decode must give exactly what decoding every payload on
its own with the per-byte reference gives, and a malformed payload must be
rejected without ever reading a byte of its neighbours — every jump of the
scan is clamped to the end of the payload it started in.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_oracle import decode_blocks_reference, encode_blocks_reference
from repro.codec.entropy import decode_block_payloads
from repro.errors import BitstreamError, CodecError


def random_blocks(blocks, block_size, density, seed, level_range=40000):
    """``(blocks, 1, b, b)`` quantised levels with a controlled density."""
    rng = np.random.default_rng(seed)
    shape = (blocks, 1, block_size, block_size)
    levels = rng.integers(-level_range, level_range + 1, size=shape)
    return np.where(rng.random(shape) < density, levels, 0).astype(np.int64)


payload_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),          # blocks
              st.sampled_from([0.0, 0.02, 0.15, 0.5, 1.0]),   # density
              st.integers(min_value=0, max_value=2**32 - 1)),  # seed
    min_size=1, max_size=9)


def encode_each(specs, block_size):
    payloads, expected = [], []
    for blocks, density, seed in specs:
        quantised = random_blocks(blocks, block_size, density, seed)
        payload = encode_blocks_reference(quantised) if blocks else b""
        payloads.append(payload)
        expected.append(decode_blocks_reference(payload, blocks, 1, block_size)
                        .reshape(blocks, block_size, block_size))
    return payloads, expected


def decode_together(payloads, block_counts, block_size):
    data = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    return decode_block_payloads(data, [len(payload) for payload in payloads],
                                 block_counts, block_size)


class TestMultiPayloadDecode:
    @settings(max_examples=80, deadline=None)
    @given(specs=payload_specs, block_size=st.sampled_from([2, 4, 8, 16]))
    def test_equals_the_reference_decode_of_each_payload(self, specs, block_size):
        payloads, expected = encode_each(specs, block_size)
        decoded = decode_together(payloads, [spec[0] for spec in specs],
                                  block_size)
        reference = np.concatenate(expected)
        assert decoded.dtype == reference.dtype
        assert decoded.shape == reference.shape
        assert decoded.tobytes() == reference.tobytes()

    def test_no_payload_at_all_decodes_to_no_block(self):
        decoded = decode_block_payloads(np.empty(0, dtype=np.uint8), [], [], 8)
        assert decoded.shape == (0, 8, 8)

    def test_lengths_must_describe_the_buffer(self):
        data = np.zeros(4, dtype=np.uint8)
        with pytest.raises(CodecError, match="payload lengths"):
            decode_block_payloads(data, [1, 2], [1, 2], 8)
        with pytest.raises(CodecError, match="payload lengths"):
            decode_block_payloads(data, [4], [2, 2], 8)


class TestMalformedNeighbours:
    """Each payload stands alone: no borrowing from, or spilling into, the next."""

    GOOD = b"\x11\x05\x00"  # one block: level 5 after one zero, EOB

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad, blocks, message", [
        (b"\x12\x01", 1, "missing level bytes"),       # would eat a neighbour's byte
        (b"\x11\x05", 1, "missing EOB"),               # would borrow a neighbour's EOB
        (b"", 1, "missing EOB"),
        (b"\x11\x05\x00\x00", 1, "trailing 1 bytes after decoding 1 blocks"),
        (b"\x00", 0, "trailing 1 bytes after decoding 0 blocks"),
        (b"\x13\x00\x00\x01\x00", 1, "invalid level size 3"),
        (b"\x10\x00", 1, "invalid level size 0"),
        (b"\xf0\xf0\xf0\xf0\x11\x05\x00", 1, "coefficient index out of range"),
    ])
    def test_a_bad_payload_fails_like_it_does_alone(self, bad, blocks, message,
                                                    position):
        with pytest.raises(BitstreamError, match=message) as alone:
            decode_blocks_reference(bad, blocks, 1, 8)
        payloads = [self.GOOD, self.GOOD]
        payloads.insert(position, bad)
        counts = [1, 1]
        counts.insert(position, blocks)
        with pytest.raises(BitstreamError) as together:
            decode_together(payloads, counts, 8)
        assert str(together.value) == str(alone.value)

    def test_block_counts_are_per_payload_not_a_total(self):
        # Three blocks declared and three closed, but 2 + 1 against 1 + 2.
        with pytest.raises(BitstreamError, match="trailing 1 bytes"):
            decode_together([b"\x00\x00", b"\x00"], [1, 2], 8)

    @settings(max_examples=60, deadline=None)
    @given(specs=payload_specs,
           mutations=st.lists(
               st.tuples(st.integers(min_value=0, max_value=10**9),
                         st.integers(min_value=0, max_value=255)),
               min_size=1, max_size=4))
    def test_corruption_is_accepted_or_rejected_like_the_reference(
            self, specs, mutations):
        payloads, _ = encode_each(specs, 8)
        joined = bytearray(b"".join(payloads))
        if not joined:
            return
        for position, value in mutations:
            joined[position % len(joined)] = value
        pieces, offset = [], 0
        for payload in payloads:
            pieces.append(bytes(joined[offset:offset + len(payload)]))
            offset += len(payload)
        counts = [spec[0] for spec in specs]
        expected = []
        try:
            for piece, blocks in zip(pieces, counts):
                expected.append(decode_blocks_reference(piece, blocks, 1, 8)
                                .reshape(blocks, 8, 8))
        except BitstreamError:
            with pytest.raises(BitstreamError):
                decode_together(pieces, counts, 8)
        else:
            assert np.array_equal(decode_together(pieces, counts, 8),
                                  np.concatenate(expected))
