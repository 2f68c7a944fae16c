"""Tests for the still-image codec, encoder/decoder, container and seeker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from video_tools import video_from_arrays
from repro.codec import (EncodedFrame, EncodedVideo, EncoderParameters, IFrameSeeker,
                         VideoDecoder, VideoEncoder, estimate_encoded_size,
                         read_frame_index, select_events_from_keyframes)
from stills import decode_image, encode_image
import repro.codec.encoder as encoder_module
import repro.codec.jpeg as jpeg_module
from repro.errors import BitstreamError, ConfigurationError, DecodeError, EncodeError
from repro.video.frame import FrameType


def psnr(original, decoded) -> float:
    mse = float(np.mean((np.asarray(original, dtype=np.float64)
                         - np.asarray(decoded, dtype=np.float64)) ** 2))
    return float("inf") if mse == 0 else 10.0 * np.log10(255.0 ** 2 / mse)


class TestStillImageCodec:
    def test_roundtrip_shape_and_quality(self, rng):
        # A textured-but-structured image (smooth ramp + moderate grain), the
        # kind of content the synthetic scenes produce.
        ramp = np.tile(np.linspace(60, 180, 53), (37, 1))
        image = np.clip(ramp + rng.normal(0, 15, size=(37, 53)), 0, 255).astype(np.uint8)
        encoded = encode_image(image, quality=90)
        decoded = decode_image(encoded)
        assert decoded.shape == image.shape
        assert psnr(image, decoded) > 25.0
        assert image.size / len(encoded) > 0.5

    def test_smooth_image_compresses_well(self):
        gradient = np.tile(np.linspace(0, 255, 64, dtype=np.uint8), (64, 1))
        encoded = encode_image(gradient, quality=75)
        assert len(encoded) < gradient.size / 4
        assert psnr(gradient, decode_image(encoded)) > 35.0

    def test_color_roundtrip(self, rng):
        image = rng.integers(0, 255, size=(24, 24, 3), dtype=np.uint8)
        decoded = decode_image(encode_image(image, quality=85))
        assert decoded.shape == image.shape
        assert np.abs(decoded.astype(int) - image.astype(int)).mean() < 20

    def test_estimate_matches_actual_size(self, rng):
        image = rng.integers(0, 255, size=(40, 56), dtype=np.uint8)
        assert estimate_encoded_size(image, 75) == len(encode_image(image, 75))

    def test_higher_quality_larger_payload(self, rng):
        image = rng.integers(0, 255, size=(48, 48), dtype=np.uint8)
        assert len(encode_image(image, 90)) > len(encode_image(image, 30))

    def test_corrupt_payload_rejected(self, rng):
        image = rng.integers(0, 255, size=(16, 16), dtype=np.uint8)
        payload = encode_image(image)
        with pytest.raises(BitstreamError):
            decode_image(payload[:10])
        with pytest.raises(BitstreamError):
            decode_image(b"XXXX" + payload[4:])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=9, max_value=40), st.integers(min_value=9, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_roundtrip_any_size(self, height, width, seed):
        image = np.random.default_rng(seed).integers(0, 255, size=(height, width),
                                                     dtype=np.uint8)
        decoded = decode_image(encode_image(image, quality=80))
        assert decoded.shape == image.shape
        assert np.abs(decoded.astype(int) - image.astype(int)).mean() < 25


class TestEncoder:
    def test_first_frame_is_keyframe(self, tiny_encoded):
        assert tiny_encoded.frames[0].frame_type is FrameType.I

    def test_size_only_matches_payload_sizes(self, tiny_encoded, tiny_encoded_payload):
        assert [frame.size_bytes for frame in tiny_encoded.frames] == \
            [frame.size_bytes for frame in tiny_encoded_payload.frames]
        assert all(frame.payload is None for frame in tiny_encoded.frames)
        assert all(frame.payload is not None
                   for frame in tiny_encoded_payload.frames)

    def test_encoder_types_match_placer(self, tiny_video, tuned_parameters,
                                        tiny_activities, tiny_encoded):
        expected = VideoEncoder(tuned_parameters).place_frame_types(tiny_activities)
        assert tiny_encoded.frame_types() == expected

    def test_keyframes_align_with_events(self, tiny_encoded, tiny_timeline):
        """Every object event receives an I-frame within a second of video."""
        keyframes = np.array(tiny_encoded.keyframe_indices)
        # A latched scene cut can be deferred by up to the minimum key-frame
        # interval (25 frames), i.e. well under a second at 30 fps.
        tolerance = 30
        for event in tiny_timeline:
            if not event.labels and event.start_frame == 0:
                continue
            distances = keyframes - event.start_frame
            ahead = distances[distances >= 0]
            assert ahead.size and ahead.min() <= tolerance, (
                f"event at {event.start_frame} has no nearby I-frame")

    def test_pframes_much_smaller_than_iframes(self, tiny_encoded):
        iframe_sizes = [f.size_bytes for f in tiny_encoded.frames if f.is_keyframe]
        pframe_sizes = [f.size_bytes for f in tiny_encoded.frames if not f.is_keyframe]
        assert np.mean(pframe_sizes) < np.mean(iframe_sizes) / 4

    def test_mismatched_activities_rejected(self, tiny_video, tiny_activities):
        with pytest.raises(EncodeError):
            VideoEncoder().encode(tiny_video, activities=tiny_activities[:-1])

    def test_semantic_encoding_has_more_keyframes_than_default(self, tiny_video,
                                                               tiny_activities,
                                                               tiny_encoded):
        default = VideoEncoder(EncoderParameters()).encode(
            tiny_video, activities=tiny_activities)
        assert tiny_encoded.num_keyframes > default.num_keyframes
        assert tiny_encoded.total_size_bytes > default.total_size_bytes

    def test_keyframes_transform_once_with_one_matrix_per_encoder(self, rng,
                                                                  monkeypatch):
        """An I-frame's payload (or size) and its reconstruction come from one
        DCT + quantise, the quantisation matrix is built per encoder rather
        than per frame, and the bytes are still the still-image codec's."""
        arrays = [rng.integers(0, 256, size=(28, 44)).astype(np.uint8)
                  for _ in range(6)]
        video = video_from_arrays("keyframes", arrays, fps=30.0)
        parameters = EncoderParameters(gop_size=2, scenecut_threshold=0.0)
        calls = {"dct2_blocks": 0, "quantisation_matrix": 0}
        for module in (jpeg_module, encoder_module):
            for name in calls:
                def counted(*args, _name=name, _function=getattr(module, name)):
                    calls[_name] += 1
                    return _function(*args)
                monkeypatch.setattr(module, name, counted)
        for materialise in (False, True):
            calls.update(dct2_blocks=0, quantisation_matrix=0)
            encoded = VideoEncoder(parameters).encode(video, materialise)
            assert encoded.keyframe_indices == [0, 2, 4]
            assert calls == {"dct2_blocks": len(arrays), "quantisation_matrix": 1}
            for index in encoded.keyframe_indices:
                frame = encoded.frames[index]
                assert frame.size_bytes == estimate_encoded_size(arrays[index])
                if materialise:
                    assert frame.payload == encode_image(arrays[index])


class TestDecoder:
    def test_full_decode_reconstruction(self, tiny_encoded_payload, tiny_raw_video):
        decoded = VideoDecoder().decode_video(tiny_encoded_payload)
        assert decoded.metadata.num_frames == tiny_raw_video.metadata.num_frames
        frame_mse = [float(np.mean((frame.data.astype(np.float64)
                                    - source.to_grayscale()) ** 2))
                     for frame, source in zip(decoded.frames(),
                                              tiny_raw_video.frames())]
        assert 10.0 * np.log10(255.0 ** 2 / np.mean(frame_mse)) > 24.0

    def test_decode_keyframes_only(self, tiny_encoded_payload):
        frames = VideoDecoder().decode_keyframes(tiny_encoded_payload)
        assert len(frames) == tiny_encoded_payload.num_keyframes
        assert all(frame.frame_type is FrameType.I for frame in frames)

    def test_size_only_frames_cannot_be_decoded(self, tiny_encoded):
        with pytest.raises(DecodeError):
            VideoDecoder()._decode_stills([tiny_encoded.frames[0]])[0]

    def test_non_keyframe_rejected_by_keyframe_decoder(self, tiny_encoded_payload):
        pframe = next(f for f in tiny_encoded_payload.frames if not f.is_keyframe)
        with pytest.raises(DecodeError):
            VideoDecoder()._decode_stills([pframe])[0]


class TestContainerAndSeeker:
    def test_serialize_deserialize_roundtrip(self, tiny_encoded_payload):
        data = tiny_encoded_payload.serialize()
        parsed = EncodedVideo.deserialize(data)
        assert parsed.num_frames == tiny_encoded_payload.num_frames
        assert parsed.keyframe_indices == tiny_encoded_payload.keyframe_indices
        assert parsed.parameters == tiny_encoded_payload.parameters
        assert parsed.frames[0].payload == tiny_encoded_payload.frames[0].payload

    def test_read_frame_index_without_payloads(self, tiny_encoded_payload):
        metadata, entries = read_frame_index(tiny_encoded_payload.serialize())
        assert metadata.num_frames == len(entries)
        assert [e.frame_type for e in entries] == tiny_encoded_payload.frame_types()

    def test_corrupt_container_rejected(self, tiny_encoded_payload):
        data = tiny_encoded_payload.serialize()
        with pytest.raises(BitstreamError):
            EncodedVideo.deserialize(data[:20])
        with pytest.raises(BitstreamError):
            EncodedVideo.deserialize(b"JUNK" + data[4:])

    def test_frame_index_entries_and_malformed_index(self, tiny_encoded_payload):
        """Every index record comes back field for field; an unknown frame
        type code and an index cut short are ``BitstreamError``s."""
        from repro.codec.bitstream import _HEADER, _INDEX_RECORD
        data = tiny_encoded_payload.serialize()
        _, entries = read_frame_index(data)
        offset = 0
        for position, (entry, frame) in enumerate(
                zip(entries, tiny_encoded_payload.frames)):
            assert (entry.index, entry.frame_type, entry.payload_offset,
                    entry.size_bytes) == (position, frame.frame_type, offset,
                                          frame.size_bytes)
            offset += frame.size_bytes
        metadata_length = _HEADER.unpack_from(data)[2]
        index_start = _HEADER.size + metadata_length
        third = index_start + 2 * _INDEX_RECORD.size
        with pytest.raises(BitstreamError, match="unknown frame type code 9"):
            read_frame_index(data[:third] + b"\x09" + data[third + 1:])
        index_stop = index_start + len(entries) * _INDEX_RECORD.size
        for cut in (index_stop - 1, third + 5, index_start):
            with pytest.raises(BitstreamError, match="truncated before the frame index"):
                EncodedVideo.deserialize(data[:cut])
            with pytest.raises(BitstreamError, match="truncated before the frame index"):
                IFrameSeeker().seek_serialized(data[:cut])

    def test_seeker_counts(self, tiny_encoded_payload):
        _, keyframes, stats = IFrameSeeker().seek_serialized(
            tiny_encoded_payload.serialize())
        assert len(keyframes) == tiny_encoded_payload.num_keyframes
        assert stats.frames_scanned == tiny_encoded_payload.num_frames
        fraction = len(stats.keyframe_indices) / stats.frames_scanned
        assert fraction == pytest.approx(tiny_encoded_payload.sampling_fraction)
        assert 0.0 < fraction < 0.5
        assert stats.total_bytes > stats.keyframe_bytes > 0

    def test_seek_serialized_matches_in_memory(self, tiny_encoded_payload):
        seeker = IFrameSeeker()
        _, entries, stats = seeker.seek_serialized(tiny_encoded_payload.serialize())
        assert [e.index for e in entries] == tiny_encoded_payload.keyframe_indices
        assert stats.keyframe_bytes == tiny_encoded_payload.keyframe_size_bytes
        assert [frame.index for frame in tiny_encoded_payload.iter_keyframes()] \
            == stats.keyframe_indices

    def test_segments_from_keyframes(self):
        segments = select_events_from_keyframes([0, 10, 25], 40)
        assert segments == [(0, 10), (10, 25), (25, 40)]
        with pytest.raises(BitstreamError):
            select_events_from_keyframes([5, 10], 20)
        assert select_events_from_keyframes([], 7) == [(0, 7)]
        assert select_events_from_keyframes([0.0, 3.0, 3], 5) == [(0, 3), (3, 5)]

    @pytest.mark.parametrize("indices, num_frames", [
        ([0, 10], 5),             # was the inverted segment (10, 5)
        ([0, 5], 5),              # was the empty segment (5, 5)
        ([-1, 0, 3], 5),
        ([0, 2.5], 5),            # was silently frame 2
        ([0, float("nan")], 5),
        ([0, float("inf")], 5),
        ([0, "2"], 5),
        ([0, None], 5),
        ([0, 2], 4.5),
        ([0, 2], -1),
    ])
    def test_segments_refuse_malformed_indices(self, indices, num_frames):
        with pytest.raises(BitstreamError):
            select_events_from_keyframes(indices, num_frames)

    def test_encoded_frame_validation(self):
        with pytest.raises(ConfigurationError):
            EncodedFrame(index=0, frame_type=FrameType.I, size_bytes=3, payload=b"xxxx")
        with pytest.raises(ConfigurationError):
            EncodedFrame(index=-1, frame_type=FrameType.P, size_bytes=0)

    def test_video_must_start_with_keyframe(self, tiny_encoded):
        frames = [EncodedFrame(index=0, frame_type=FrameType.P, size_bytes=10)]
        metadata = tiny_encoded.metadata
        with pytest.raises(ConfigurationError):
            EncodedVideo(metadata, tiny_encoded.parameters, frames)
