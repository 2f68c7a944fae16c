"""One encode path: analyse first, then place, equals the live loop it replaced.

``VideoEncoder.encode`` without ``activities`` used to analyse and decide
one frame at a time (``analysis_oracle.live_encode``).  It now runs the
batched analysis pass first and places every frame with the closed form.
Frame types, sizes, payload bytes and novelty must not move at all.
"""

from hypothesis import example, given, settings, strategies as st

from analysis_oracle import KINDS, colour, live_encode, render, video_of
from repro.codec.encoder import VideoEncoder
from repro.codec.gop import EncoderParameters


@st.composite
def cases(draw):
    block = draw(st.integers(4, 32))
    return dict(
        block_size=block,
        search_radius=draw(st.integers(0, 3)),
        gop_size=draw(st.integers(1, 12)),
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
                       materialise=True))
    @example(case=dict(block_size=32, search_radius=3, gop_size=3,
                       scenecut_threshold=400.0, min_gop_size=1, kind="pan",
                       seed=2, height=40, width=36, length=6, rgb=True,
                       materialise=False))
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
        actual = encoder.encode(video, materialise_payload=case["materialise"])
        assert _frames(actual) == _frames(expected)
        assert actual.parameters == expected.parameters

    def test_a_rendered_scene_equals_the_live_loop(self, tiny_video,
                                                   tuned_parameters):
        """The lazily rendered scene, the clip a live encode was for."""
        encoder = VideoEncoder(tuned_parameters)
        expected = live_encode(encoder, tiny_video, True)
        actual = encoder.encode(tiny_video, materialise_payload=True)
        assert _frames(actual) == _frames(expected)
        assert len(actual.keyframe_indices) > 2
