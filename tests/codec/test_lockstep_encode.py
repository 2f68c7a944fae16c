"""The lockstep encode against one independent encode per parameter set.

``encode_lockstep`` is the only frame loop in ``codec/encoder.py``; a stream
in it may take a frame another stream already coded instead of coding it
again.  That is only sound while the two would have produced the same bits,
so the property below holds every field of every frame of every stream
equal to what ``VideoEncoder(parameters).encode`` returns on its own, over
random I-frame placements and parameter tuples; the count guards hold the
sharing itself (it is the point of the loop, and nothing else would notice
if it silently stopped).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.codec.encoder as encoder_module
import repro.codec.jpeg as jpeg_module
from repro.codec import (DEFAULT_PARAMETERS, EncoderParameters, VideoEncoder,
                         decode_video, encode_lockstep)
from repro.codec.scenecut import FrameActivity
from repro.errors import EncodeError
from repro.perf import get_recorder
from repro.video.frame import FrameType
from repro.video.raw_video import RawVideo

FRAMES = 18


@pytest.fixture(scope="module")
def clip():
    """A bright square drifting over a noisy gradient; 44x28 is aligned to
    block size 4 only, so 8 and 16 run on padded planes."""
    rng = np.random.default_rng(21)
    yy, xx = np.mgrid[0:28, 0:44]
    background = 60.0 + 1.5 * xx + 0.8 * yy
    arrays = []
    for index in range(FRAMES):
        frame = background + rng.normal(0.0, 2.0, size=background.shape)
        left = 2 + 2 * index
        frame[8:18, left:left + 8] += 90.0
        arrays.append(np.clip(frame, 0, 255).astype(np.uint8))
    return RawVideo.from_arrays("lockstep-clip", arrays, fps=30.0)


def _activities(novelty):
    return [FrameActivity(frame_index=index, inter_cost=0.0, intra_cost=1.0,
                          novel_block_fraction=value, moving_block_fraction=0.0,
                          is_first=index == 0)
            for index, value in enumerate(novelty)]


def _parameters(gop_size=250, scenecut=40.0, min_gop_size=0, quality=75,
                block_size=8, search_radius=2):
    return EncoderParameters(gop_size=gop_size, scenecut_threshold=scenecut,
                             min_gop_size=min_gop_size, quality=quality,
                             block_size=block_size, search_radius=search_radius)


#: 20 sits *below* the default's 40: against it the default is the stream
#: that places the lone I-frames.
_PARAMETER_SETS = st.builds(
    _parameters,
    gop_size=st.one_of(st.sampled_from((1, 2, 5, 150, 250)), st.integers(1, 20)),
    scenecut=st.sampled_from((0.0, 20.0, 40.0, 200.0, 250.0, 400.0)),
    min_gop_size=st.one_of(st.just(0), st.integers(0, 30)),
    quality=st.sampled_from((75, 75, 40)),
    block_size=st.sampled_from((8, 8, 4, 16)),
    search_radius=st.sampled_from((2, 2, 0, 1)))

_NOVELTY = st.lists(
    st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 0.05),
              st.floats(0.0, 1.0)),
    min_size=FRAMES, max_size=FRAMES)


def assert_streams_equal_independent(video, parameter_sets, materialise,
                                     activities):
    streams = encode_lockstep(video, parameter_sets, materialise, activities)
    assert len(streams) == len(parameter_sets)
    for parameters, stream in zip(parameter_sets, streams):
        alone = VideoEncoder(parameters).encode(video, materialise, activities)
        assert stream.parameters == parameters
        assert stream.metadata == alone.metadata
        # EncodedFrame is a dataclass: index, frame_type, size_bytes, payload
        # and novel_block_fraction all take part in ``==``.
        assert stream.frames == alone.frames
    return streams


class TestLockstepEqualsIndependent:
    @settings(max_examples=60, deadline=None)
    @given(novelty=_NOVELTY,
           parameter_sets=st.lists(_PARAMETER_SETS, min_size=1, max_size=4),
           materialise=st.booleans())
    @example(novelty=[0.0] * FRAMES,
             parameter_sets=[DEFAULT_PARAMETERS, DEFAULT_PARAMETERS],
             materialise=False)
    @example(novelty=[0.0] * FRAMES,
             parameter_sets=[_parameters(gop_size=1), DEFAULT_PARAMETERS],
             materialise=True)
    @example(novelty=[0.0, 0.3] * (FRAMES // 2),
             parameter_sets=[_parameters(gop_size=4, min_gop_size=9,
                                         scenecut=400.0),
                             _parameters(gop_size=6, scenecut=400.0)],
             materialise=False)
    @example(novelty=[0.0] * 6 + [0.3] + [0.0] * (FRAMES - 7),
             parameter_sets=[_parameters(gop_size=5, scenecut=20.0),
                             _parameters(gop_size=10, min_gop_size=1)],
             materialise=True)
    @example(novelty=[0.0] * FRAMES,
             parameter_sets=[_parameters(gop_size=6),
                             _parameters(gop_size=6, quality=40),
                             _parameters(gop_size=6, block_size=16),
                             _parameters(gop_size=6, search_radius=1)],
             materialise=True)
    def test_every_frame_field_matches(self, clip, novelty, parameter_sets,
                                       materialise):
        assert_streams_equal_independent(clip, parameter_sets, materialise,
                                         _activities(novelty))

    def test_live_encode_without_lookahead(self, clip):
        """No activities: each stream analyses and decides frame by frame
        (block settings differ, so two analysers run side by side)."""
        parameter_sets = [_parameters(gop_size=5, scenecut=250.0),
                          _parameters(gop_size=8, scenecut=250.0),
                          _parameters(gop_size=5, block_size=4, search_radius=1)]
        streams = assert_streams_equal_independent(clip, parameter_sets, False,
                                                   None)
        assert streams[0].keyframe_indices != streams[1].keyframe_indices

    def test_diverge_and_resync_decodes(self, clip):
        """GOP 4 against GOP 6 share frames 0-3, split, and meet again at
        frame 12; the materialised streams must still decode on their own."""
        parameter_sets = [_parameters(gop_size=4, scenecut=0.0),
                          _parameters(gop_size=6, scenecut=0.0)]
        streams = assert_streams_equal_independent(
            clip, parameter_sets, True, _activities([0.0] * FRAMES))
        assert streams[0].keyframe_indices == [0, 4, 8, 12, 16]
        assert streams[1].keyframe_indices == [0, 6, 12]
        for stream in streams:
            assert decode_video(stream).metadata.num_frames == FRAMES

    def test_analysis_length_mismatch_rejected(self, clip):
        with pytest.raises(EncodeError):
            encode_lockstep(clip, [DEFAULT_PARAMETERS],
                            activities=_activities([0.0] * (FRAMES - 1)))


def _count_calls(monkeypatch, counts, key, owner, name):
    """Wrap ``owner.name`` so every call adds one to ``counts[key]``."""
    function = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture()
def frame_encodes(monkeypatch):
    """Counts the I- and P-frame encodes a call really makes: every P-frame
    encode runs exactly one motion search, every I-frame encode exactly one
    plane quantisation."""
    counts = {"I": 0, "P": 0}
    _count_calls(monkeypatch, counts, "P", encoder_module.MotionSearch,
                 "__call__")
    _count_calls(monkeypatch, counts, "I", encoder_module, "quantise_plane")
    get_recorder().reset()
    return counts


def _lockstep_counters():
    counters = get_recorder().counters
    return (counters["codec.lockstep_encoded_frames"].value,
            counters["codec.lockstep_shared_frames"].value)


class TestSharedWorkIsNotRepeated:
    def test_identical_sets_cost_one_encode_per_frame(self, clip, frame_encodes):
        parameters = _parameters(gop_size=5, scenecut=0.0)
        streams = encode_lockstep(clip, [parameters, parameters],
                                  activities=_activities([0.0] * FRAMES))
        keyframes = streams[0].num_keyframes
        assert keyframes == 4
        assert frame_encodes == {"I": keyframes, "P": FRAMES - keyframes}
        assert _lockstep_counters() == (FRAMES, FRAMES)

    def test_no_cut_clip_shares_every_p_frame(self, clip, frame_encodes):
        """The benchmark's unlabelled shape: GOP 150 with scene cuts off
        against the default GOP 250, on a clip shorter than both and without
        a cut — one I-frame, then every P-frame coded once for both."""
        semantic = DEFAULT_PARAMETERS.with_(gop_size=150, scenecut_threshold=0.0)
        streams = encode_lockstep(clip, [semantic, DEFAULT_PARAMETERS],
                                  activities=_activities([0.0] * FRAMES))
        assert [stream.keyframe_indices for stream in streams] == [[0], [0]]
        assert frame_encodes == {"I": 1, "P": FRAMES - 1}
        assert _lockstep_counters() == (FRAMES, FRAMES)

    def test_lone_keyframe_splits_until_the_next_common_one(self, clip,
                                                            frame_encodes):
        """GOP 4 vs GOP 6: frames 0-3 shared, 4-11 coded twice (the streams
        hold different references from frame 4 on, including the GOP-6
        I-frame at 6 and the GOP-4 one at 8), 12-15 shared again after the
        common I-frame at 12, 16-17 apart."""
        parameter_sets = [_parameters(gop_size=4, scenecut=0.0),
                          _parameters(gop_size=6, scenecut=0.0)]
        encode_lockstep(clip, parameter_sets,
                        activities=_activities([0.0] * FRAMES))
        shared = 4 + 4
        encoded, shared_counter = _lockstep_counters()
        assert shared_counter == shared
        assert encoded == 2 * FRAMES - shared
        assert frame_encodes["I"] + frame_encodes["P"] == encoded
        assert frame_encodes["I"] == 5 + 3 - 2  # frames 0 and 12 coded once

    def test_differing_coding_parameters_never_share(self, clip, frame_encodes):
        parameter_sets = [_parameters(), _parameters(quality=40),
                          _parameters(block_size=16),
                          _parameters(search_radius=1)]
        encode_lockstep(clip, parameter_sets,
                        activities=_activities([0.0] * FRAMES))
        assert frame_encodes == {"I": 4, "P": 4 * (FRAMES - 1)}
        assert _lockstep_counters() == (4 * FRAMES, 0)

    def test_single_stream_records_nothing_shared(self, clip, frame_encodes):
        VideoEncoder(_parameters(gop_size=6)).encode(
            clip, activities=_activities([0.0] * FRAMES))
        assert frame_encodes == {"I": 3, "P": FRAMES - 3}
        assert _lockstep_counters() == (FRAMES, 0)

    def test_keyframes_transform_once_and_the_matrix_resolves_once(
            self, clip, monkeypatch):
        """An I-frame's size/payload and its reconstruction come from one
        DCT + quantise, and the quantisation matrix is built per encode
        call, not per frame."""
        calls = {"dct": 0, "matrix": 0}
        for module in (jpeg_module, encoder_module):
            _count_calls(monkeypatch, calls, "dct", module, "dct2_blocks")
            _count_calls(monkeypatch, calls, "matrix", module,
                         "quantisation_matrix")
        for materialise in (False, True):
            calls.update(dct=0, matrix=0)
            encoded = VideoEncoder(_parameters(gop_size=3)).encode(
                clip, materialise, _activities([0.0] * FRAMES))
            assert encoded.num_keyframes == 6
            assert calls == {"dct": FRAMES, "matrix": 1}

    def test_frame_types_follow_each_streams_own_placement(self, clip):
        parameter_sets = [_parameters(gop_size=1), DEFAULT_PARAMETERS]
        every, default = encode_lockstep(clip, parameter_sets,
                                         activities=_activities([0.0] * FRAMES))
        assert all(frame.frame_type is FrameType.I for frame in every.frames)
        assert default.keyframe_indices == [0]
