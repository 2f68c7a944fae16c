"""Tests for macroblock partitioning, the DCT/quantisation and entropy coding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.blocks import (block_grid, crop_plane, from_blocks, pad_plane,
                                padded_shape, to_blocks)
from repro.codec.entropy import (decode_blocks, encode_blocks, encoded_size_bytes,
                                 zigzag_order)
from repro.codec.transform import (JPEG_LUMA_QUANT, dct2_blocks, dct_matrix,
                                   dequantise_blocks, idct2_blocks,
                                   quantisation_matrix, quantise_blocks,
                                   quality_to_scale)
from repro.errors import BitstreamError, CodecError


class TestBlocks:
    def test_pad_and_crop_roundtrip(self, rng):
        plane = rng.normal(size=(13, 21))
        padded = pad_plane(plane, 8)
        assert padded.shape == (16, 24)
        assert np.array_equal(crop_plane(padded, 13, 21), plane)

    def test_padded_shape_already_aligned(self):
        assert padded_shape(16, 24, 8) == (16, 24)

    def test_to_from_blocks_roundtrip(self, rng):
        plane = rng.normal(size=(16, 24))
        blocks = to_blocks(plane, 8)
        assert blocks.shape == (2, 3, 8, 8)
        assert np.array_equal(from_blocks(blocks), plane)

    def test_block_content_layout(self):
        plane = np.arange(64).reshape(8, 8)
        blocks = to_blocks(plane, 4)
        assert np.array_equal(blocks[0, 1], plane[:4, 4:])
        assert np.array_equal(blocks[1, 0], plane[4:, :4])

    def test_unaligned_to_blocks_rejected(self):
        with pytest.raises(CodecError):
            to_blocks(np.zeros((10, 16)), 8)

    def test_block_grid(self):
        assert block_grid(20, 30, 8) == (3, 4)


class TestTransform:
    def test_dct_matrix_orthonormal(self):
        matrix = dct_matrix(8)
        assert np.allclose(matrix @ matrix.T, np.eye(8), atol=1e-12)

    def test_dct_idct_roundtrip(self, rng):
        blocks = rng.normal(size=(3, 4, 8, 8))
        assert np.allclose(idct2_blocks(dct2_blocks(blocks)), blocks, atol=1e-9)

    def test_constant_block_energy_in_dc(self):
        blocks = np.full((1, 1, 8, 8), 100.0)
        coefficients = dct2_blocks(blocks)
        assert coefficients[0, 0, 0, 0] == pytest.approx(800.0)
        assert np.abs(coefficients[0, 0]).sum() == pytest.approx(800.0)

    def test_quality_scale_monotone(self):
        assert quality_to_scale(10) > quality_to_scale(50) > quality_to_scale(90)
        with pytest.raises(CodecError):
            quality_to_scale(0)

    def test_quantisation_matrix_properties(self):
        matrix = quantisation_matrix(50)
        assert np.array_equal(matrix, JPEG_LUMA_QUANT)
        finer = quantisation_matrix(90)
        assert (finer <= matrix).all()
        assert quantisation_matrix(75, block_size=16).shape == (16, 16)

    def test_quantise_dequantise_bounded_error(self, rng):
        blocks = rng.uniform(-100, 100, size=(2, 2, 8, 8))
        matrix = quantisation_matrix(75)
        reconstructed = dequantise_blocks(quantise_blocks(blocks, matrix), matrix)
        assert np.abs(reconstructed - blocks).max() <= matrix.max() / 2 + 1e-9

    def test_dequantise_into_out_gives_the_same_bits(self, rng):
        quantised = rng.integers(-2000, 2000, size=(5, 8, 8)).astype(np.int32)
        matrix = quantisation_matrix(37)
        out = np.empty((5, 8, 8))
        assert dequantise_blocks(quantised, matrix, out=out) is out
        assert out.tobytes() == (quantised.astype(np.float64) * matrix).tobytes()

    def test_transform_chain_reconstructs(self, rng):
        blocks = rng.uniform(-50, 50, size=(2, 3, 8, 8))
        matrix = quantisation_matrix(90)
        quantised = quantise_blocks(dct2_blocks(blocks), matrix)
        reconstructed = idct2_blocks(dequantise_blocks(quantised, matrix))
        # Per-pixel error is bounded by the quantisation error energy; at
        # quality 90 the RMS error of even white-noise blocks stays small.
        rms = np.sqrt(np.mean((reconstructed - blocks) ** 2))
        assert rms < 10.0


class TestEntropy:
    def test_zigzag_is_permutation(self):
        forward, inverse = zigzag_order(8)
        assert sorted(forward) == list(range(64))
        assert np.array_equal(np.arange(64)[forward][inverse], np.arange(64))

    def test_zigzag_standard_prefix(self):
        forward, _ = zigzag_order(8)
        # First entries of the standard JPEG zig-zag: (0,0), (0,1), (1,0), (2,0), (1,1).
        assert list(forward[:5]) == [0, 1, 8, 16, 9]

    def test_roundtrip_simple(self):
        blocks = np.zeros((1, 2, 8, 8), dtype=np.int32)
        blocks[0, 0, 0, 0] = 5
        blocks[0, 1, 3, 4] = -200
        payload = encode_blocks(blocks)
        decoded = decode_blocks(payload, 1, 2, 8)
        assert np.array_equal(decoded, blocks)

    def test_size_estimate_matches_encoding(self, rng):
        blocks = rng.integers(-300, 300, size=(3, 4, 8, 8)).astype(np.int32)
        blocks[np.abs(blocks) < 250] = 0  # sparse, JPEG-like
        assert encoded_size_bytes(blocks) == len(encode_blocks(blocks))

    def test_truncated_payload_rejected(self):
        blocks = np.ones((1, 1, 8, 8), dtype=np.int32)
        payload = encode_blocks(blocks)
        with pytest.raises(BitstreamError):
            decode_blocks(payload[:-1], 1, 1, 8)
        with pytest.raises(BitstreamError):
            decode_blocks(payload + b"\x00", 1, 1, 8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_roundtrip_and_size(self, blocks_y, blocks_x, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(-2000, 2000, size=(blocks_y, blocks_x, 8, 8))
        mask = rng.random(size=blocks.shape) < 0.9
        blocks = np.where(mask, 0, blocks).astype(np.int32)
        payload = encode_blocks(blocks)
        assert len(payload) == encoded_size_bytes(blocks)
        assert np.array_equal(decode_blocks(payload, blocks_y, blocks_x, 8), blocks)

    def test_long_zero_runs_use_zrl(self):
        blocks = np.zeros((1, 1, 8, 8), dtype=np.int32)
        blocks[0, 0, 7, 7] = 1  # last zig-zag position: 63 zeros before it
        payload = encode_blocks(blocks)
        decoded = decode_blocks(payload, 1, 1, 8)
        assert np.array_equal(decoded, blocks)
        assert payload.count(0xF0) == 3  # three full 16-zero runs
