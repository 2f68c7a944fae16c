"""The window-at-a-time decoder against the per-frame loop it replaced.

The functions prefixed ``loop_`` are the bodies ``codec/decoder.py`` carried
before P-frames were parsed in batches (one ``unpackbits``, one
multi-payload entropy scan, one inverse transform per window): every P-frame
parsed, entropy-decoded (here with the per-byte reference scanner),
dequantised, inverse-transformed and motion-compensated on its own.  They
live here as the oracle.  Decoded pixels feed the benchmark's golden
digests, so frames are compared on ``.tobytes()`` (dtype included), and a
malformed stream must raise the oracle's exception — type and message —
after yielding every frame that precedes the malformed one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.decoder as decoder_module
import repro.codec.entropy as entropy_module
from entropy_oracle import decode_blocks_reference
from repro.codec import (EncodedVideo, EncoderParameters, VideoDecoder,
                         VideoEncoder)
from repro.codec.bitstream import EncodedFrame
from repro.codec.blocks import crop_plane, from_blocks
from repro.codec.encoder import _P_FRAME_HEADER, P_FRAME_MARKER
from repro.codec.jpeg import encode_image
from repro.codec.entropy import EOB, ZRL
from repro.codec.motion import MotionField, motion_compensate
from repro.codec.transform import (dct_matrix, dequantise_blocks, idct2_blocks,
                                   quantisation_matrix)
from repro.errors import BitstreamError, CodecError, DecodeError
from repro.video.frame import Frame
from repro.video.raw_video import RawVideo


# --------------------------------------------------------------------- #
# The oracle: one P-frame at a time, verbatim in behaviour
# --------------------------------------------------------------------- #
def unpack_bitmap(data, count):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    return bits.astype(bool)


def loop_decode_predicted(frame, reference, frame_shape):
    if frame.payload is None:
        raise DecodeError(
            f"frame {frame.index} has no payload (size-only encoding)")
    payload = frame.payload
    if len(payload) < _P_FRAME_HEADER.size:
        raise DecodeError(f"P-frame {frame.index} payload too short")
    marker, block_size, quality, blocks_y, blocks_x, residual_length = (
        _P_FRAME_HEADER.unpack(payload[:_P_FRAME_HEADER.size]))
    if marker != P_FRAME_MARKER:
        raise DecodeError(f"bad P-frame marker {marker!r} in frame {frame.index}")
    num_blocks = blocks_y * blocks_x
    bitmap_length = -(-num_blocks // 8)
    mv_bitmap_start = _P_FRAME_HEADER.size
    coded_bitmap_start = mv_bitmap_start + bitmap_length
    mv_start = coded_bitmap_start + bitmap_length
    if len(payload) < mv_start:
        raise DecodeError(f"P-frame {frame.index} payload has truncated bitmaps")
    moving = unpack_bitmap(payload[mv_bitmap_start:coded_bitmap_start], num_blocks)
    coded = unpack_bitmap(payload[coded_bitmap_start:mv_start], num_blocks)
    mv_length = int(moving.sum()) * 2
    residual_start = mv_start + mv_length
    if len(payload) != residual_start + residual_length:
        raise DecodeError(f"P-frame {frame.index} payload has inconsistent length")
    vectors = np.zeros((blocks_y * blocks_x, 2), dtype=np.int16)
    if mv_length:
        packed = np.frombuffer(payload[mv_start:residual_start], dtype=np.int8)
        vectors[moving] = packed.reshape(-1, 2).astype(np.int16)
    vectors = vectors.reshape(blocks_y, blocks_x, 2)
    field = MotionField(vectors=vectors,
                        block_sad=np.zeros((blocks_y, blocks_x)),
                        zero_sad=np.zeros((blocks_y, blocks_x)),
                        block_size=block_size)
    prediction = motion_compensate(reference, field, frame_shape)
    quantised = np.zeros((blocks_y * blocks_x, 1, block_size, block_size),
                         dtype=np.int32)
    num_coded = int(coded.sum())
    if num_coded:
        coded_payload = payload[residual_start:]
        quantised[coded] = decode_blocks_reference(coded_payload, num_coded, 1,
                                                   block_size)
    quantised = quantised.reshape(blocks_y, blocks_x, block_size, block_size)
    matrix = quantisation_matrix(quality, block_size)
    residual_blocks = idct2_blocks(dequantise_blocks(quantised, matrix))
    residual = crop_plane(from_blocks(residual_blocks),
                          frame_shape[0], frame_shape[1])
    return np.clip(prediction + residual, 0, 255)


def loop_iter_decoded_frames(encoded):
    decoder = VideoDecoder()
    shape = encoded.metadata.resolution.shape
    reference = None
    for encoded_frame in encoded.frames:
        if encoded_frame.is_keyframe:
            plane = decoder.decode_keyframe(encoded_frame).astype(np.float64)
        else:
            if reference is None:
                raise DecodeError(
                    f"P-frame {encoded_frame.index} appears before any I-frame")
            plane = loop_decode_predicted(encoded_frame, reference, shape)
        reference = plane
        yield Frame(index=encoded_frame.index,
                    data=np.clip(plane, 0, 255).astype(np.uint8),
                    timestamp=encoded.metadata.timestamp_of(encoded_frame.index),
                    frame_type=encoded_frame.frame_type)


def loop_decode_video(encoded):
    return list(loop_iter_decoded_frames(encoded))


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def assert_same_frame(actual, expected):
    assert actual.index == expected.index
    assert actual.frame_type is expected.frame_type
    assert actual.timestamp == expected.timestamp
    assert actual.data.dtype == expected.data.dtype
    assert actual.data.shape == expected.data.shape
    assert actual.data.tobytes() == expected.data.tobytes()


def drain(frames):
    """Everything a generator yields, and the exception that ended it."""
    collected = []
    try:
        for frame in frames:
            collected.append(frame)
    except CodecError as error:
        return collected, error
    return collected, None


def assert_same_outcome(encoded):
    """New generator == oracle: frames, then the same error if any."""
    frames, error = drain(VideoDecoder().iter_decoded_frames(encoded))
    expected_frames, expected_error = drain(loop_iter_decoded_frames(encoded))
    assert len(frames) == len(expected_frames)
    for actual, expected in zip(frames, expected_frames):
        assert_same_frame(actual, expected)
    assert type(error) is type(expected_error)
    assert str(error) == str(expected_error)
    return frames, error


def make_clip(style, height, width, num_frames, seed, radius=2, block_size=8):
    """Clips that exercise one corner of the P-frame syntax each.

    ``noise`` — small residuals, a few coded blocks; ``static`` — identical
    flat frames (the I-frame reconstructs them to within the dead-zone),
    nothing coded or moving anywhere; ``shift`` — a textured canvas
    panned by ``radius`` pixels a frame, every block moves by ±radius;
    ``jumps`` — unrelated full-range frames, large (two-byte) levels;
    ``ripples`` — a flat plane carrying one high-frequency DCT basis
    function per frame, lone coefficients behind long zero runs (``ZRL``).
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(40, 200, size=(height, width)).astype(np.float64)
    cells = rng.integers(0, 256, size=(height // 4 + radius * num_frames + 1,
                                       width // 4 + radius * num_frames + 1))
    canvas = np.kron(cells, np.ones((4, 4)))
    sign_y, sign_x = rng.choice([-1, 1], size=2)
    basis = dct_matrix(block_size)
    frames = []
    for index in range(num_frames):
        if style == "noise":
            plane = base + rng.normal(0, 2.0, size=base.shape)
        elif style == "static":
            plane = np.full((height, width), base[0, 0])
        elif style == "shift":
            top = radius * (num_frames + sign_y * index)
            left = radius * (num_frames + sign_x * index)
            plane = canvas[top:top + height, left:left + width]
        elif style == "jumps":
            plane = rng.choice([0.0, 255.0], size=(height, width))
        else:
            u, v = rng.integers(block_size // 2, block_size, size=2)
            ripple = 400.0 * np.outer(basis[u], basis[v])
            plane = np.full((height, width), 128.0)
            plane[:block_size, :block_size] += ripple[:height, :width]
        frames.append(np.clip(plane, 0, 255).astype(np.uint8))
    return RawVideo.from_arrays(f"{style}-{seed}", frames)


def encode(video, **parameters):
    parameters.setdefault("scenecut_threshold", 0.0)
    return VideoEncoder(EncoderParameters(**parameters)).encode(
        video, materialise_payload=True)


def split_p_frame(payload):
    """``(header fields, bitmaps + vectors, residual payload, coded blocks)``."""
    fields = _P_FRAME_HEADER.unpack_from(payload)
    num_blocks = fields[3] * fields[4]
    bitmap_length = -(-num_blocks // 8)
    mv_start = _P_FRAME_HEADER.size + 2 * bitmap_length
    moving = unpack_bitmap(payload[_P_FRAME_HEADER.size:
                                   _P_FRAME_HEADER.size + bitmap_length],
                           num_blocks)
    coded = unpack_bitmap(payload[_P_FRAME_HEADER.size + bitmap_length:mv_start],
                          num_blocks)
    residual_start = mv_start + 2 * int(moving.sum())
    return (fields, payload[_P_FRAME_HEADER.size:residual_start],
            payload[residual_start:], int(coded.sum()))


def join_p_frame(fields, middle, residual):
    """A P-frame payload whose header declares ``len(residual)``."""
    return _P_FRAME_HEADER.pack(*fields[:5], len(residual)) + middle + residual


def with_payload(encoded, index, payload):
    """A copy of ``encoded`` whose frame ``index`` carries ``payload``."""
    frames = list(encoded.frames)
    frames[index] = EncodedFrame(index=index, frame_type=frames[index].frame_type,
                                 size_bytes=len(payload), payload=payload)
    return EncodedVideo(encoded.metadata, encoded.parameters, frames)


def token_kinds(residual):
    """``(ZRL tokens, two-byte levels)`` of one entropy payload."""
    zrls = wide = offset = 0
    while offset < len(residual):
        token = residual[offset]
        offset += 1
        if token == ZRL:
            zrls += 1
        elif token != EOB:
            wide += (token & 0x0F) == 2
            offset += token & 0x0F
    return zrls, wide


# --------------------------------------------------------------------- #
# Well-formed streams: frame-by-frame identity
# --------------------------------------------------------------------- #
class TestRunDecodeMatchesLoop:
    @settings(max_examples=50, deadline=None)
    @given(style=st.sampled_from(["noise", "static", "shift", "jumps", "ripples"]),
           height=st.integers(min_value=9, max_value=36),
           width=st.integers(min_value=9, max_value=36),
           num_frames=st.integers(min_value=2, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           block_size=st.sampled_from([4, 8, 16]),
           gop_size=st.sampled_from([1, 3, 5, 64]),
           quality=st.sampled_from([30, 75, 100]),
           radius=st.sampled_from([1, 2, 4]))
    @example(style="static", height=16, width=16, num_frames=6, seed=0,
             block_size=8, gop_size=64, quality=75, radius=2)
    @example(style="shift", height=21, width=19, num_frames=8, seed=1,
             block_size=4, gop_size=64, quality=75, radius=4)
    @example(style="jumps", height=17, width=33, num_frames=5, seed=2,
             block_size=16, gop_size=3, quality=100, radius=1)
    @example(style="noise", height=24, width=24, num_frames=4, seed=3,
             block_size=8, gop_size=1, quality=30, radius=2)
    def test_every_frame_is_bit_identical(self, style, height, width,
                                          num_frames, seed, block_size,
                                          gop_size, quality, radius):
        video = make_clip(style, height, width, num_frames, seed, radius,
                          block_size)
        encoded = encode(video, gop_size=gop_size, quality=quality,
                         block_size=block_size, search_radius=radius)
        frames, error = assert_same_outcome(encoded)
        assert error is None
        assert len(frames) == num_frames

    def test_static_clip_codes_and_moves_nothing(self):
        encoded = encode(make_clip("static", 20, 28, 6, seed=5), gop_size=64)
        for frame in encoded.frames[1:]:
            fields, middle, residual, coded = split_p_frame(frame.payload)
            assert coded == 0 and residual == b""
            assert not any(middle)
        assert_same_outcome(encoded)

    def test_panned_clip_moves_every_block_by_the_radius(self):
        encoded = encode(make_clip("shift", 32, 32, 5, seed=6, radius=3),
                         gop_size=64, search_radius=3, block_size=8,
                         quality=100)
        for frame in encoded.frames[1:]:
            fields, middle, _, _ = split_p_frame(frame.payload)
            moving = unpack_bitmap(middle[:2], 16)
            vectors = np.frombuffer(middle[4:], dtype=np.int8)
            assert moving.all()
            assert set(np.abs(vectors).tolist()) == {3}
        assert_same_outcome(encoded)

    def test_two_byte_levels_and_zero_run_extensions_round_trip(self):
        wide_levels = encode(make_clip("jumps", 24, 24, 4, seed=7),
                             gop_size=64, quality=100)
        long_runs = encode(make_clip("ripples", 32, 32, 6, seed=8, block_size=16),
                           gop_size=64, quality=100, block_size=16)
        for encoded, kind in ((wide_levels, 1), (long_runs, 0)):
            counts = [token_kinds(split_p_frame(frame.payload)[2])[kind]
                      for frame in encoded.frames[1:]]
            assert sum(map(bool, counts)) >= 3, counts
            assert_same_outcome(encoded)

    def test_windows_cut_by_the_byte_budget_decode_the_same(self, monkeypatch):
        encoded = encode(make_clip("noise", 24, 40, 12, seed=9), gop_size=5)
        expected = loop_decode_video(encoded)
        sizes = [frame.size_bytes for frame in encoded.frames]
        for cap in (1, max(sizes) + 1, 3 * max(sizes)):
            monkeypatch.setattr(decoder_module, "_WINDOW_BYTES", cap)
            for actual, reference in zip(VideoDecoder().decode_video(encoded)
                                         .frames(), expected, strict=True):
                assert_same_frame(actual, reference)

    @pytest.mark.parametrize("style", ["noise", "shift"])
    def test_sub_batches_cut_by_the_stack_budget_decode_the_same(
            self, monkeypatch, style):
        encoded = encode(make_clip(style, 21, 19, 14, seed=10, radius=3),
                         gop_size=6, search_radius=3)
        expected = loop_decode_video(encoded)
        pixels = 24 * 24  # the 21x19 picture padded to 8x8 blocks
        for budget in (1, pixels, 3 * pixels, 5 * pixels - 1):
            monkeypatch.setattr(decoder_module, "_STACK_PIXELS", budget)
            for actual, reference in zip(VideoDecoder().decode_video(encoded)
                                         .frames(), expected, strict=True):
                assert_same_frame(actual, reference)

    def test_interleaved_decodes_on_one_decoder_do_not_share_buffers(
            self, monkeypatch):
        monkeypatch.setattr(decoder_module, "_WINDOW_BYTES", 1)
        first = encode(make_clip("shift", 24, 24, 8, seed=16), gop_size=64)
        second = encode(make_clip("noise", 24, 24, 8, seed=17), gop_size=3)
        decoder = VideoDecoder()
        for (ours, theirs), expected in zip(
                zip(decoder.iter_decoded_frames(first),
                    decoder.iter_decoded_frames(second), strict=True),
                zip(loop_decode_video(first), loop_decode_video(second),
                    strict=True), strict=True):
            assert_same_frame(ours, expected[0])
            assert_same_frame(theirs, expected[1])

    def test_decode_video_uses_the_generator(self):
        video = make_clip("noise", 22, 30, 9, seed=11)
        encoded = encode(video, gop_size=4)
        expected = loop_decode_video(encoded)
        raw = VideoDecoder().decode_video(encoded)
        assert raw.metadata.num_frames == len(expected)
        for actual, reference in zip(raw.frames(), expected):
            assert_same_frame(actual, reference)


class TestOneScanOneTransformPerWindow:
    @pytest.mark.parametrize("cut, scans, transforms",
                             [(None, 2, 1), (10, 4, 2)],
                             ids=["one window", "two windows"])
    def test_a_window_costs_one_token_scan_and_one_inverse_transform(
            self, monkeypatch, cut, scans, transforms):
        encoded = encode(make_clip("noise", 24, 32, 20, seed=12), gop_size=7)
        assert encoded.keyframe_indices == [0, 7, 14]
        sizes = [frame.size_bytes for frame in encoded.frames]
        assert sum(sizes) < decoder_module._WINDOW_BYTES
        if cut is not None:  # frames 0-9 (I-frames 0, 7), 10-19 (I-frame 14)
            monkeypatch.setattr(decoder_module, "_WINDOW_BYTES",
                                sum(sizes[:cut]))
        calls = {"scan": 0, "idct": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(entropy_module, "_token_positions",
                            counted("scan", entropy_module._token_positions))
        # The decoder looks the DCT matrix up once per inverse transform.
        monkeypatch.setattr(decoder_module, "dct_matrix",
                            counted("idct", decoder_module.dct_matrix))
        VideoDecoder().decode_video(encoded)
        # A window's I-frames are one batch of stills (one scan); its
        # P-frames, across GOPs, cost one scan and one inverse transform.
        assert calls == {"scan": scans, "idct": transforms}


# --------------------------------------------------------------------- #
# Malformed streams: the oracle's error, after the frames before it
# --------------------------------------------------------------------- #
def too_short(payload):
    return payload[:5]


def bad_marker(payload):
    return b"X" + payload[1:]


def truncated_bitmaps(payload):
    return payload[:_P_FRAME_HEADER.size + 1]


def inconsistent_length(payload):
    return payload + b"\x00"


def truncated_entropy(payload):
    fields, middle, residual, _ = split_p_frame(payload)
    return join_p_frame(fields, middle, residual[:-1])


def truncated_level(payload):
    fields, middle, residual, coded = split_p_frame(payload)
    return join_p_frame(fields, middle, bytes(coded - 1) + b"\x12\x01")


def trailing_entropy(payload):
    fields, middle, residual, _ = split_p_frame(payload)
    return join_p_frame(fields, middle, residual + b"\x00")


def invalid_size(nibble):
    def mutate(payload):
        fields, middle, _, coded = split_p_frame(payload)
        crafted = bytes([0x10 | nibble]) + bytes(nibble) + bytes(coded)
        return join_p_frame(fields, middle, crafted)
    mutate.__name__ = f"invalid_size_{nibble}"
    return mutate


def out_of_range(payload):
    fields, middle, _, coded = split_p_frame(payload)
    crafted = bytes([ZRL] * 4) + b"\x11\x05" + bytes(coded)
    return join_p_frame(fields, middle, crafted)


MUTATIONS = [
    (too_short, DecodeError, "payload too short"),
    (bad_marker, DecodeError, "bad P-frame marker"),
    (truncated_bitmaps, DecodeError, "truncated bitmaps"),
    (inconsistent_length, DecodeError, "inconsistent length"),
    (truncated_entropy, BitstreamError, "missing EOB"),
    (truncated_level, BitstreamError, "missing level bytes"),
    (trailing_entropy, BitstreamError, "trailing 1 bytes"),
    (invalid_size(0), BitstreamError, "invalid level size 0"),
    (invalid_size(3), BitstreamError, "invalid level size 3"),
    (invalid_size(15), BitstreamError, "invalid level size 15"),
    (out_of_range, BitstreamError, "coefficient index out of range"),
]


@pytest.fixture(scope="module")
def one_run_clip():
    """An I-frame followed by one run of nine P-frames, all with coded blocks."""
    encoded = encode(make_clip("noise", 24, 32, 10, seed=13), gop_size=64,
                     quality=90)
    assert encoded.keyframe_indices == [0]
    assert all(split_p_frame(frame.payload)[3] for frame in encoded.frames[1:])
    return encoded


class TestMalformedStreams:
    @pytest.mark.parametrize("position", [1, 5, 9], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("mutate, error_type, message", MUTATIONS,
                             ids=[mutation[0].__name__ for mutation in MUTATIONS])
    def test_same_error_after_the_same_frames(self, one_run_clip, mutate,
                                              error_type, message, position):
        broken = with_payload(one_run_clip, position,
                              mutate(one_run_clip.frames[position].payload))
        frames, error = assert_same_outcome(broken)
        assert len(frames) == position
        assert type(error) is error_type
        assert message in str(error)
        with pytest.raises(error_type, match=message):
            VideoDecoder().decode_video(broken)

    def test_the_first_malformed_frame_in_stream_order_wins(self, one_run_clip):
        broken = with_payload(one_run_clip, 7,
                              bad_marker(one_run_clip.frames[7].payload))
        broken = with_payload(broken, 3,
                              trailing_entropy(one_run_clip.frames[3].payload))
        frames, error = assert_same_outcome(broken)
        assert len(frames) == 3
        assert isinstance(error, BitstreamError)

    def test_size_only_frame_inside_a_run(self, one_run_clip):
        frames = list(one_run_clip.frames)
        frames[4] = EncodedFrame(index=4, frame_type=frames[4].frame_type,
                                 size_bytes=frames[4].size_bytes, payload=None)
        broken = EncodedVideo(one_run_clip.metadata, one_run_clip.parameters,
                              frames)
        decoded, error = assert_same_outcome(broken)
        assert len(decoded) == 4
        assert "frame 4 has no payload" in str(error)

    def test_a_run_that_changes_quality_still_decodes(self, one_run_clip):
        """Legal but never written by the encoder: parsed frame by frame."""
        fields, middle, residual, _ = split_p_frame(one_run_clip.frames[5].payload)
        requantised = join_p_frame((*fields[:2], 40, *fields[3:]), middle,
                                   residual)
        mixed = with_payload(one_run_clip, 5, requantised)
        frames, error = assert_same_outcome(mixed)
        assert error is None and len(frames) == 10


class TestHeaderValidation:
    """Regressions: each of these failed (or passed silently) before."""

    @pytest.mark.parametrize("position", [1, 5, 9])
    def test_residual_bytes_without_a_coded_block_are_rejected(self, position):
        encoded = encode(make_clip("static", 24, 32, 10, seed=14), gop_size=64)
        fields, middle, residual, coded = split_p_frame(
            encoded.frames[position].payload)
        assert coded == 0 and residual == b""
        broken = with_payload(encoded, position,
                              join_p_frame(fields, middle, b"\x00\x00\x00"))
        frames, error = drain(VideoDecoder().iter_decoded_frames(broken))
        assert len(frames) == position
        assert type(error) is DecodeError
        assert f"P-frame {position} codes no block" in str(error)
        assert "3 residual bytes" in str(error)

    @pytest.mark.parametrize("position", [1, 5, 9])
    @pytest.mark.parametrize("field, value, message", [
        (1, 0, "declares block_size 0, the stream's is 8"),
        (1, 4, "declares block_size 4, the stream's is 8"),
        (2, 0, "declares quality 0, outside 1-100"),
        (2, 101, "declares quality 101, outside 1-100"),
        (3, 4, "declares a 4x4 block grid, 32x24 at block_size 8 is 3x4"),
        (4, 3, "declares a 3x3 block grid, 32x24 at block_size 8 is 3x4"),
    ])
    def test_header_fields_are_checked_against_the_container(
            self, one_run_clip, position, field, value, message):
        payload = one_run_clip.frames[position].payload
        fields = list(_P_FRAME_HEADER.unpack_from(payload))
        fields[field] = value
        broken = with_payload(
            one_run_clip, position,
            _P_FRAME_HEADER.pack(*fields) + payload[_P_FRAME_HEADER.size:])
        frames, error = drain(VideoDecoder().iter_decoded_frames(broken))
        assert len(frames) == position
        assert type(error) is DecodeError
        assert str(error) == f"P-frame {position} {message}"

    def test_transposed_grid_is_named_not_a_shape_mismatch(self):
        encoded = encode(make_clip("noise", 16, 48, 4, seed=15), gop_size=64)
        payload = encoded.frames[2].payload
        fields = list(_P_FRAME_HEADER.unpack_from(payload))
        assert fields[3:5] == [2, 6]
        fields[3:5] = [6, 2]  # same block count: every length check passes
        broken = with_payload(
            encoded, 2,
            _P_FRAME_HEADER.pack(*fields) + payload[_P_FRAME_HEADER.size:])
        with pytest.raises(DecodeError, match="P-frame 2 declares a 6x2 block grid"):
            VideoDecoder().decode_video(broken)

    @pytest.mark.parametrize("still_shape", [(16, 32), (24, 40), (24, 32, 3)])
    def test_an_i_frame_of_another_shape_is_named(self, still_shape):
        encoded = encode(make_clip("noise", 24, 32, 12, seed=18), gop_size=7)
        assert encoded.keyframe_indices == [0, 7]
        still = np.full(still_shape, 90, dtype=np.uint8)
        broken = with_payload(encoded, 7, encode_image(still))
        frames, error = drain(VideoDecoder().iter_decoded_frames(broken))
        assert len(frames) == 7
        assert type(error) is DecodeError
        assert str(error) == (f"I-frame 7 decodes to a {still_shape} plane, "
                              "the stream's frames are (24, 32)")
