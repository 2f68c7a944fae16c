"""The multi-image still decode against the per-image loop it replaced.

``loop_decode_image`` is the body ``codec/jpeg.py`` carried before a clip's
I-frames were decoded together (one header validation pass, one
multi-payload entropy scan, one dequantise + inverse transform, one
clip/cast per image format): every plane of every image entropy-decoded,
dequantised and inverse-transformed on its own.  It lives here as the
oracle.  Decoded I-frames feed the NN and the benchmark's golden digests, so
images are compared on ``.tobytes()`` (dtype and shape included), and a
malformed image must raise, from any position in a batch, exactly what
decoding it alone raises.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.codec.jpeg as jpeg_module
from repro.codec import (EncodedVideo, EncoderParameters, VideoDecoder,
                         VideoEncoder, decode_image, decode_images,
                         encode_image)
from repro.codec.blocks import crop_plane, from_blocks
from repro.codec.entropy import decode_blocks
from repro.codec.jpeg import _HEADER, _MAGIC
from repro.codec.transform import (dequantise_blocks, idct2_blocks,
                                   quantisation_matrix)
from repro.errors import BitstreamError, DecodeError
from repro.video.raw_video import RawVideo


# --------------------------------------------------------------------- #
# The oracle: one plane at a time, verbatim in behaviour
# --------------------------------------------------------------------- #
def loop_decode_plane(payload, height, width, quality, block_size):
    padded_h = -(-height // block_size) * block_size
    padded_w = -(-width // block_size) * block_size
    blocks_y = padded_h // block_size
    blocks_x = padded_w // block_size
    quantised = decode_blocks(payload, blocks_y, blocks_x, block_size)
    matrix = quantisation_matrix(quality, block_size)
    reconstructed = idct2_blocks(dequantise_blocks(quantised, matrix)) + 128.0
    plane = crop_plane(from_blocks(reconstructed), height, width)
    return np.clip(plane, 0, 255).astype(np.uint8)


def loop_decode_image(data):
    if len(data) < _HEADER.size:
        raise BitstreamError("image payload too short for header")
    magic, height, width, channels, quality, block_size = _HEADER.unpack(
        data[:_HEADER.size])
    if magic != _MAGIC:
        raise BitstreamError(f"bad still-image magic {magic!r}")
    offset = _HEADER.size
    planes = []
    for _ in range(channels):
        if offset + 4 > len(data):
            raise BitstreamError("truncated still-image plane header")
        (plane_length,) = struct.unpack(">I", data[offset:offset + 4])
        offset += 4
        if offset + plane_length > len(data):
            raise BitstreamError("truncated still-image plane payload")
        planes.append(loop_decode_plane(data[offset:offset + plane_length],
                                        height, width, quality, block_size))
        offset += plane_length
    if offset != len(data):
        raise BitstreamError("trailing bytes after still-image payload")
    if channels == 1:
        return planes[0]
    return np.stack(planes, axis=2)


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def same_image(result, expected):
    return (result.dtype == expected.dtype and result.shape == expected.shape
            and result.flags.c_contiguous
            and result.tobytes() == expected.tobytes())


def random_image(rng, height, width, colour):
    """Smooth structure plus noise, so quality 1 and quality 100 both leave
    something to code (and quality 100 codes two-byte levels)."""
    shape = (height, width, 3) if colour else (height, width)
    ramp = np.linspace(0, 255, width)[None, :] * np.ones((height, 1))
    ramp = ramp[:, :, None] if colour else ramp
    noise = rng.normal(0, 60, size=shape)
    return np.clip(ramp * rng.uniform(0.2, 1.0) + noise, 0, 255).astype(np.uint8)


def header_with(payload, **fields):
    names = ("magic", "height", "width", "channels", "quality", "block_size")
    values = dict(zip(names, _HEADER.unpack_from(payload)))
    values.update(fields)
    return _HEADER.pack(*(values[name] for name in names)) + payload[_HEADER.size:]


def raised_by(function, *arguments):
    with pytest.raises(Exception) as caught:
        function(*arguments)
    return type(caught.value), str(caught.value)


image_formats = st.tuples(st.integers(1, 41), st.integers(1, 37), st.booleans(),
                          st.sampled_from([4, 8, 16]),
                          st.sampled_from([1, 50, 100]))


# --------------------------------------------------------------------- #
# Well-formed images
# --------------------------------------------------------------------- #
class TestBatchEqualsPerImage:
    @settings(max_examples=40, deadline=None)
    @given(image_format=image_formats, count=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_equal_format_batches(self, image_format, count, seed):
        height, width, colour, block_size, quality = image_format
        rng = np.random.default_rng(seed)
        payloads = [encode_image(random_image(rng, height, width, colour),
                                 quality, block_size) for _ in range(count)]
        decoded = decode_images(payloads)
        assert len(decoded) == count
        for image, payload in zip(decoded, payloads):
            assert same_image(image, loop_decode_image(payload))
            assert same_image(decode_image(payload), image)

    @settings(max_examples=25, deadline=None)
    @given(formats=st.lists(image_formats, min_size=2, max_size=6),
           seed=st.integers(0, 2 ** 16))
    def test_mixed_formats_in_one_call(self, formats, seed):
        """Formats may repeat, interleaved: every image comes back at its own
        position."""
        rng = np.random.default_rng(seed)
        formats = formats + formats[:2]
        payloads = [encode_image(random_image(rng, height, width, colour),
                                 quality, block_size)
                    for height, width, colour, block_size, quality in formats]
        for image, payload in zip(decode_images(payloads), payloads):
            assert same_image(image, loop_decode_image(payload))

    def test_two_byte_levels_and_long_zero_runs_are_covered(self):
        """The syntax the property above relies on really occurs."""
        rng = np.random.default_rng(0)
        sharp = encode_image(random_image(rng, 24, 24, False), 100, 8)
        flat = encode_image(np.full((32, 32), 90, np.uint8), 50, 16)
        assert len(sharp) > 24 * 24  # more than a byte per pixel: wide levels
        assert same_image(decode_images([sharp, flat])[1],
                          loop_decode_image(flat))

    def test_empty_list(self):
        assert decode_images([]) == []

    def test_images_of_one_call_do_not_overlap(self):
        rng = np.random.default_rng(1)
        payloads = [encode_image(random_image(rng, 9, 14, colour))
                    for colour in (False, True, False, True)]
        decoded = decode_images(payloads)
        kept = [image.copy() for image in decoded]
        for position, image in enumerate(decoded):
            image[...] = 0
            for other in range(position + 1, len(decoded)):
                assert same_image(decoded[other], kept[other])

    def test_one_scan_and_one_inverse_transform_per_format(self, monkeypatch):
        calls = {"scan": 0, "idct": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(jpeg_module, "decode_block_payloads",
                            counted("scan", jpeg_module.decode_block_payloads))
        monkeypatch.setattr(jpeg_module, "idct2_blocks",
                            counted("idct", jpeg_module.idct2_blocks))
        rng = np.random.default_rng(2)
        grey = [encode_image(random_image(rng, 20, 30, False)) for _ in range(6)]
        colour = [encode_image(random_image(rng, 20, 30, True)) for _ in range(3)]
        decode_images(grey + colour + grey)
        assert calls == {"scan": 2, "idct": 2}


# --------------------------------------------------------------------- #
# Malformed images
# --------------------------------------------------------------------- #
def _bad_entropy(payload):
    """Token byte with level size 7 at the start of the first plane."""
    start = _HEADER.size + 4
    return payload[:start] + b"\x07" + payload[start + 1:]


MUTATIONS = {
    "short-header": lambda p: p[:_HEADER.size - 1],
    "magic": lambda p: b"XJPG" + p[4:],
    "height": lambda p: header_with(p, height=200),
    "height-zero": lambda p: header_with(p, height=0),
    "width": lambda p: header_with(p, width=3),
    "width-zero": lambda p: header_with(p, width=0),
    "channels-zero": lambda p: header_with(p, channels=0)[:_HEADER.size],
    "channels-two": lambda p: header_with(p, channels=2),
    "channels-five": lambda p: header_with(p, channels=5),
    "quality-zero": lambda p: header_with(p, quality=0),
    "quality-high": lambda p: header_with(p, quality=101),
    "block-zero": lambda p: header_with(p, block_size=0),
    "block-other": lambda p: header_with(p, block_size=4),
    "truncated-plane-header": lambda p: p[:_HEADER.size + 2],
    "truncated-plane": lambda p: p[:-3],
    "trailing": lambda p: p + b"\x00\x00",
    "bad-entropy": _bad_entropy,
    "plane-too-short": lambda p: (
        p[:_HEADER.size] + struct.pack(">I", len(p) - _HEADER.size - 5)
        + p[_HEADER.size + 4:-1]),
}


class TestMalformedImages:
    @pytest.fixture(scope="class")
    def payloads(self):
        rng = np.random.default_rng(3)
        return [encode_image(random_image(rng, 21, 26, False), 75, 8)
                for _ in range(5)]

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_is_rejected_with_a_bitstream_error(self, name, payloads):
        kind, _ = raised_by(decode_image, MUTATIONS[name](payloads[0]))
        assert kind is BitstreamError

    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_batch_raises_the_images_own_error(self, name, position, payloads):
        batch = list(payloads)
        batch[position] = MUTATIONS[name](batch[position])
        assert (raised_by(decode_images, batch)
                == raised_by(decode_image, batch[position]))

    @pytest.mark.parametrize("colour", [False, True], ids=["grey", "rgb"])
    def test_first_malformed_image_in_order_wins(self, colour):
        rng = np.random.default_rng(4)
        batch = [encode_image(random_image(rng, 12, 12, colour))
                 for _ in range(4)]
        batch[1] = MUTATIONS["trailing"](batch[1])
        batch[3] = MUTATIONS["magic"](batch[3])
        assert (raised_by(decode_images, batch)
                == raised_by(decode_image, batch[1]))
        # An entropy error early beats a header error late: the entropy scan
        # of a batch reports *some* payload, the retry reports the first.
        batch[1] = _bad_entropy(batch[1][:-2])
        assert (raised_by(decode_images, batch)
                == raised_by(decode_image, batch[1]))

    def test_a_bad_rgb_plane_in_the_middle(self):
        rng = np.random.default_rng(5)
        batch = [encode_image(random_image(rng, 10, 17, True)) for _ in range(3)]
        # Second plane of the middle image: cut its last byte, fix nothing.
        (first_length,) = struct.unpack_from(">I", batch[1], _HEADER.size)
        second = _HEADER.size + 4 + first_length
        (second_length,) = struct.unpack_from(">I", batch[1], second)
        cut = second + 4 + second_length - 1
        batch[1] = (batch[1][:second] + struct.pack(">I", second_length - 1)
                    + batch[1][second + 4:cut] + batch[1][cut + 1:])
        kind, message = raised_by(decode_images, batch)
        assert (kind, message) == raised_by(decode_image, batch[1])
        assert kind is BitstreamError

    def test_header_fields_named_before_any_array_is_built(self, payloads,
                                                           monkeypatch):
        """The three defects that used to escape as bare ``ZeroDivisionError``
        / ``ValueError`` / a 2-channel array: typed, naming the field, and
        raised by the header check — the entropy scan never starts."""
        def no_scan(*args, **kwargs):
            raise AssertionError("entropy scan reached")

        monkeypatch.setattr(jpeg_module, "decode_block_payloads", no_scan)
        for name, field in (("block-zero", "block_size"),
                            ("channels-zero", "channels"),
                            ("channels-two", "channels")):
            for decode, argument in ((decode_image, MUTATIONS[name](payloads[0])),
                                     (decode_images,
                                      [MUTATIONS[name](payloads[0]), payloads[1]])):
                with pytest.raises(BitstreamError, match=field):
                    decode(argument)


# --------------------------------------------------------------------- #
# decode_keyframes is the caller
# --------------------------------------------------------------------- #
class TestDecodeKeyframes:
    @pytest.fixture(scope="class")
    def clip(self):
        rng = np.random.default_rng(6)
        base = random_image(rng, 26, 35, False).astype(np.int16)
        video = RawVideo.from_arrays("stills", [np.clip(
            base + rng.integers(-9, 9, size=base.shape) + 25 * (index // 3),
            0, 255).astype(np.uint8) for index in range(12)])
        parameters = EncoderParameters(gop_size=3, scenecut_threshold=0)
        return VideoEncoder(parameters).encode(video, materialise_payload=True)

    def test_keyframes_equal_the_per_image_loop_and_the_full_decode(self, clip):
        decoder = VideoDecoder()
        keyframes = decoder.decode_keyframes(clip)
        assert [frame.index for frame in keyframes] == clip.keyframe_indices
        assert len(keyframes) == 4
        full = decoder.decode_video(clip)
        for frame in keyframes:
            encoded = clip.frames[frame.index]
            assert same_image(frame.data, loop_decode_image(encoded.payload))
            assert same_image(frame.data, decoder.decode_keyframe(encoded))
            assert np.array_equal(frame.data, full.frame(frame.index).data)

    def test_serialised_clip_decodes_the_same(self, clip):
        restored = EncodedVideo.deserialize(clip.serialize())
        for ours, theirs in zip(VideoDecoder().decode_keyframes(restored),
                                VideoDecoder().decode_keyframes(clip)):
            assert same_image(ours.data, theirs.data)

    def test_size_only_keyframe_is_a_decode_error(self, clip):
        frames = list(clip.frames)
        target = frames[clip.keyframe_indices[2]]
        frames[target.index] = type(target)(
            index=target.index, frame_type=target.frame_type,
            size_bytes=target.size_bytes, payload=None)
        size_only = EncodedVideo(clip.metadata, clip.parameters, frames)
        with pytest.raises(DecodeError, match="size-only"):
            VideoDecoder().decode_keyframes(size_only)
        with pytest.raises(DecodeError, match="size-only"):
            VideoDecoder().decode_keyframe(frames[target.index])
        with pytest.raises(DecodeError, match="not an I-frame"):
            VideoDecoder().decode_keyframe(clip.frames[1])

    def test_malformed_keyframe_raises_its_own_error(self, clip):
        frames = list(clip.frames)
        target = frames[clip.keyframe_indices[1]]
        payload = MUTATIONS["quality-zero"](target.payload)
        frames[target.index] = type(target)(
            index=target.index, frame_type=target.frame_type,
            size_bytes=len(payload), payload=payload)
        broken = EncodedVideo(clip.metadata, clip.parameters, frames)
        assert (raised_by(VideoDecoder().decode_keyframes, broken)
                == raised_by(decode_image, payload))
