"""Corrupt bytes into the codec read path: a decode or a typed error.

ROADMAP item 5's probe, committed: random overwrites, truncations and
deletions of one serialised 90-frame clip go through ``deserialize`` ->
``decode_video`` -> ``decode_keyframes``.  Each either decodes or raises a
:class:`~repro.errors.SieveError` subclass — never a bare exception, and
never slowly (the per-example deadline).
"""

from datetime import timedelta
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.codec import (EncodedVideo, EncoderParameters, VideoDecoder,
                         VideoEncoder)
from repro.errors import SieveError
from repro.video.raw_video import RawVideo


@lru_cache(maxsize=None)
def clip() -> bytes:
    """90 noisy 48x32 frames with two hard cuts, three or more I-frames."""
    rng = np.random.default_rng(5)
    scenes = rng.integers(40, 200, size=(3, 32, 48)).astype(np.float64)
    frames = [np.clip(scenes[index // 37] + rng.normal(0, 2.0, (32, 48)),
                      0, 255).astype(np.uint8) for index in range(90)]
    parameters = EncoderParameters(gop_size=30, scenecut_threshold=40.0)
    return VideoEncoder(parameters).encode(
        RawVideo.from_arrays("probe", frames),
        materialise_payload=True).serialize()


def mutate(data: bytes, kind: str, position: int, filler: bytes) -> bytes:
    position %= len(data) + 1
    if kind == "truncate":
        return data[:position]
    if kind == "delete":
        return data[:position] + data[position + len(filler):]
    return data[:position] + filler + data[position + len(filler):]


#: Mostly overwrites (a truncation or deletion rarely gets past the
#: container index), and a share of positions inside the ~600-byte header,
#: metadata and frame index so the parser is probed as well as the decoder.
edits = st.tuples(
    st.sampled_from(("overwrite",) * 4 + ("truncate", "delete")),
    st.one_of(st.integers(0, 600), st.integers(0, 1 << 20)),
    st.binary(min_size=1, max_size=8))


@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(edits=st.lists(edits, min_size=1, max_size=3))
def test_corrupt_clip_decodes_or_raises_a_typed_error(edits):
    data = clip()
    for edit in edits:
        data = mutate(data, *edit)
    decoder = VideoDecoder()
    try:
        encoded = EncodedVideo.deserialize(data)
        decoder.decode_video(encoded)
        decoder.decode_keyframes(encoded)
    except SieveError:
        pass


def test_the_untouched_clip_decodes():
    encoded = EncodedVideo.deserialize(clip())
    assert len(VideoDecoder().decode_video(encoded)) == 90
    assert len(VideoDecoder().decode_keyframes(encoded)) >= 3
