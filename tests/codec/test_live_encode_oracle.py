"""One encode path: analyse first, then place, equals the live loop it replaced.

``VideoEncoder.encode`` without ``activities`` used to analyse and decide
one frame at a time (``analysis_oracle.live_encode``).  It now runs the
batched analysis pass first and places every frame with the closed form.
Frame types, sizes, payload bytes and novelty must not move at all.

The live loop sizes (or packs) each P-frame as it is coded; ``encode``
sizes runs of P-frames after its closed loop, a run ending once it holds
``_SIZING_BYTES``.  The draws patch that budget too: one byte (every run
one frame), up to 8 KiB (runs that split mid-clip, some spanning an
I-frame), and the shipped value (one run for these clips).
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

import repro.codec.encoder as encoder_module
from analysis_oracle import KINDS, colour, live_encode, render, video_of
from repro.codec.encoder import VideoEncoder
from repro.codec.gop import EncoderParameters


@st.composite
def cases(draw):
    block = draw(st.integers(4, 32))
    return dict(
        block_size=block,
        search_radius=draw(st.integers(0, 3)),
        gop_size=draw(st.one_of(st.just(1), st.integers(1, 12))),
        scenecut_threshold=draw(st.one_of(
            st.sampled_from((0.0, 40.0, 250.0, 400.0)),
            st.floats(0.0, 400.0))),
        min_gop_size=draw(st.integers(0, 6)),
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        height=draw(st.integers(1, 2 * block + 3)),
        width=draw(st.integers(1, 2 * block + 3)),
        length=draw(st.integers(1, 8)),
        rgb=draw(st.booleans()),
        materialise=draw(st.booleans()),
        sizing_bytes=draw(st.one_of(
            st.just(1), st.integers(1, 1 << 13),
            st.just(encoder_module._SIZING_BYTES))),
    )


def _frames(encoded):
    return [(frame.frame_type, frame.size_bytes, frame.payload,
             frame.novel_block_fraction) for frame in encoded.frames]


class TestOneEncodePath:
    @settings(max_examples=80, deadline=None)
    @given(case=cases())
    @example(case=dict(block_size=8, search_radius=2, gop_size=10,
                       scenecut_threshold=250.0, min_gop_size=0, kind="pan",
                       seed=0, height=32, width=48, length=8, rgb=False,
                       materialise=True, sizing_bytes=1))
    @example(case=dict(block_size=32, search_radius=3, gop_size=3,
                       scenecut_threshold=400.0, min_gop_size=1, kind="pan",
                       seed=2, height=40, width=36, length=6, rgb=True,
                       materialise=False, sizing_bytes=5000))
    @example(case=dict(block_size=8, search_radius=2, gop_size=4,
                       scenecut_threshold=0.0, min_gop_size=0, kind="pan",
                       seed=5, height=24, width=40, length=8, rgb=False,
                       materialise=True, sizing_bytes=2000))
    @example(case=dict(block_size=8, search_radius=2, gop_size=1,
                       scenecut_threshold=0.0, min_gop_size=0, kind="noise",
                       seed=1, height=17, width=9, length=5, rgb=True,
                       materialise=True, sizing_bytes=1))
    def test_encode_equals_the_live_loop(self, case):
        frames = render(case["kind"], case["seed"], case["length"],
                        case["height"], case["width"])
        video = video_of(colour(frames) if case["rgb"] else frames)
        encoder = VideoEncoder(EncoderParameters(
            gop_size=case["gop_size"],
            scenecut_threshold=case["scenecut_threshold"],
            min_gop_size=case["min_gop_size"], block_size=case["block_size"],
            search_radius=case["search_radius"]))
        expected = live_encode(encoder, video, case["materialise"])
        with mock.patch.object(encoder_module, "_SIZING_BYTES",
                               case["sizing_bytes"]):
            actual = encoder.encode(video,
                                    materialise_payload=case["materialise"])
        assert _frames(actual) == _frames(expected)
        assert actual.parameters == expected.parameters
        if case["gop_size"] == 1:
            assert actual.num_keyframes == case["length"]

    def test_the_budgets_split_runs_every_way(self):
        """One byte makes every run one P-frame; 2,000 bytes split runs
        mid-clip, one across an I-frame; the shipped budget sizes a short
        clip in one run."""
        video = video_of(render("pan", 5, 8, 24, 40))
        encoder = VideoEncoder(EncoderParameters(
            gop_size=4, scenecut_threshold=0.0, block_size=8,
            search_radius=2))
        expected = live_encode(encoder, video, True)
        size_run = VideoEncoder._size_run
        for budget, check in (
                (1, lambda runs: all(len(run) == 1 for run in runs)),
                (2000, lambda runs: any(run[0] < 4 < run[-1] for run in runs)
                 and len(runs) > 1),
                (encoder_module._SIZING_BYTES, lambda runs: len(runs) == 1)):
            runs = []

            def recorded(self, run, *rest):
                runs.append([entry[0] for entry in run])
                return size_run(self, run, *rest)

            with mock.patch.object(encoder_module, "_SIZING_BYTES", budget), \
                    mock.patch.object(VideoEncoder, "_size_run", recorded):
                actual = encoder.encode(video, materialise_payload=True)
            assert _frames(actual) == _frames(expected)
            assert check(runs), (budget, runs)

    def test_a_rendered_scene_equals_the_live_loop(self, tiny_video,
                                                   tuned_parameters):
        """The lazily rendered scene, the clip a live encode was for."""
        encoder = VideoEncoder(tuned_parameters)
        expected = live_encode(encoder, tiny_video, True)
        for budget in (1, 1 << 12, encoder_module._SIZING_BYTES):
            with mock.patch.object(encoder_module, "_SIZING_BYTES", budget):
                actual = encoder.encode(tiny_video, materialise_payload=True)
            assert _frames(actual) == _frames(expected)
        assert len(actual.keyframe_indices) > 2
