"""Property-style round-trip tests for the codec.

Random resolutions, GOP lengths and :class:`EncoderParameters` grids must

* survive a serialize -> deserialize -> re-serialize round trip bit-exact,
* decode deterministically (two decodes of the same payload agree bit-exact),
* place I-frames exactly where :class:`KeyframePlacer` says they belong for
  the same analysis pass, and
* respect the GOP-size upper bound on the distance between I-frames.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from video_tools import video_from_arrays
from repro.codec import (EncodedVideo, EncoderParameters, VideoDecoder,
                         VideoEncoder)
from repro.codec.gop import KeyframePlacer
from repro.video.frame import FrameType


def make_video(height, width, num_frames, seed, jump_every=0):
    """A noisy synthetic clip; ``jump_every`` injects hard scene changes."""
    rng = np.random.default_rng(seed)
    base = rng.integers(40, 200, size=(height, width)).astype(np.float64)
    frames = []
    for index in range(num_frames):
        if jump_every and index and index % jump_every == 0:
            base = rng.integers(40, 200, size=(height, width)).astype(np.float64)
        drift = rng.normal(0, 2.0, size=(height, width))
        frames.append(np.clip(base + drift, 0, 255).astype(np.uint8))
    return video_from_arrays(f"prop-{seed}", frames)


#: The grid mirrors the offline tuner's search space at test-friendly sizes.
parameter_grids = st.builds(
    EncoderParameters,
    gop_size=st.sampled_from([3, 8, 25, 120]),
    scenecut_threshold=st.sampled_from([0.0, 40.0, 250.0, 400.0]),
    quality=st.sampled_from([40, 75, 90]),
)


class TestCodecRoundTripProperties:
    @settings(max_examples=12, deadline=None)
    @given(height=st.integers(min_value=16, max_value=40),
           width=st.integers(min_value=16, max_value=40),
           num_frames=st.integers(min_value=2, max_value=24),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           parameters=parameter_grids)
    def test_container_roundtrip_bit_exact(self, height, width, num_frames,
                                           seed, parameters):
        video = make_video(height, width, num_frames, seed)
        encoded = VideoEncoder(parameters).encode(video,
                                                  materialise_payload=True)
        data = encoded.serialize()
        parsed = EncodedVideo.deserialize(data)
        assert parsed.frame_types() == encoded.frame_types()
        assert [frame.size_bytes for frame in parsed.frames] == \
            [frame.size_bytes for frame in encoded.frames]
        assert [frame.payload for frame in parsed.frames] == \
            [frame.payload for frame in encoded.frames]
        assert parsed.serialize() == data

    @settings(max_examples=10, deadline=None)
    @given(height=st.integers(min_value=16, max_value=32),
           width=st.integers(min_value=16, max_value=32),
           num_frames=st.integers(min_value=2, max_value=16),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           parameters=parameter_grids)
    def test_decode_is_bit_exact_deterministic(self, height, width, num_frames,
                                               seed, parameters):
        video = make_video(height, width, num_frames, seed)
        encoded = VideoEncoder(parameters).encode(video,
                                                  materialise_payload=True)
        decoder = VideoDecoder()
        first = [frame.data for frame in decoder.iter_decoded_frames(encoded)]
        second = [frame.data for frame in decoder.iter_decoded_frames(encoded)]
        assert len(first) == video.metadata.num_frames
        for once, twice in zip(first, second):
            assert once.shape == (height, width)
            assert np.array_equal(once, twice)

    @settings(max_examples=15, deadline=None)
    @given(height=st.integers(min_value=16, max_value=40),
           width=st.integers(min_value=16, max_value=40),
           num_frames=st.integers(min_value=2, max_value=40),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           jump_every=st.sampled_from([0, 3, 7]),
           parameters=parameter_grids)
    def test_iframe_indices_match_keyframe_placer(self, height, width,
                                                  num_frames, seed, jump_every,
                                                  parameters):
        video = make_video(height, width, num_frames, seed,
                           jump_every=jump_every)
        encoder = VideoEncoder(parameters)
        activities = encoder.analyze(video)
        encoded = encoder.encode(video, activities=activities)
        placer = KeyframePlacer(parameters)
        assert encoded.keyframe_indices == \
            placer.keyframe_indices(activities)
        assert encoded.frame_types() == placer.place(activities)

    @settings(max_examples=15, deadline=None)
    @given(height=st.integers(min_value=16, max_value=32),
           width=st.integers(min_value=16, max_value=32),
           num_frames=st.integers(min_value=2, max_value=60),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           jump_every=st.sampled_from([0, 5]),
           parameters=parameter_grids)
    def test_gop_structure_invariants(self, height, width, num_frames, seed,
                                      jump_every, parameters):
        video = make_video(height, width, num_frames, seed,
                           jump_every=jump_every)
        encoded = VideoEncoder(parameters).encode(video)
        frame_types = encoded.frame_types()
        assert frame_types[0] is FrameType.I
        # No GOP may exceed the configured maximum I-frame spacing (the
        # trailing partial GOP may be shorter, never longer).
        keyframes = encoded.keyframe_indices + [len(frame_types)]
        assert max(later - earlier for earlier, later
                   in zip(keyframes, keyframes[1:])) <= parameters.gop_size
        assert all(frame_type in (FrameType.I, FrameType.P)
                   for frame_type in frame_types)

    @settings(max_examples=8, deadline=None)
    @given(num_frames=st.integers(min_value=2, max_value=20),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_size_only_sizes_match_materialised_sizes(self, num_frames, seed):
        parameters = EncoderParameters(gop_size=6, scenecut_threshold=100.0)
        video = make_video(24, 24, num_frames, seed)
        size_only = VideoEncoder(parameters).encode(video)
        materialised = VideoEncoder(parameters).encode(
            video, materialise_payload=True)
        assert [frame.size_bytes for frame in size_only.frames] == \
            [frame.size_bytes for frame in materialised.frames]
