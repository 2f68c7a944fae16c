"""What ``query_iframe``'s read path costs a key frame, counted.

The benchmark's online query decodes a clip's I-frames as stills
(``VideoDecoder.decode_keyframes``) and turns them into one NN input
tensor (``preprocess_frames``).  Both are batched: one ``decode_images``
call for the stills, one stacked resize per frame shape.  What is left per
key frame is a fixed handful of calls (a ``Frame`` and its timestamp, the
luma conversion, the normalisation), so the count a key frame is flat: a
clip of 2N key frames costs twice the calls of N, less the fixed part.

Counted with ``sys.setprofile`` and the collector off, on 48 x 32 clips
of 8 and 16 key frames (one every 5 frames), three ways:

* calls made by ``repro``'s own code (a Python-level call whose caller, or
  a C call whose calling frame, lies under the package): 369 and 617, so
  **31 a key frame**.  Each is a call site ``repro`` executes, whatever
  numpy does inside the callee, so this count does not move with the
  numpy version and its ceiling is the tight one;
* all Python-level calls: 275 and 419, **18 a key frame**;
* all C calls: 403 and 707, **38 a key frame**.

The last two count numpy's own wrappers too, so their ceilings leave
about 5 % headroom.  A ``np.zeros`` per frame in ``preprocess_frames``
adds one call a key frame to the first and third counts (32 and 39),
which the first ceiling does not allow.
"""

from __future__ import annotations

import gc
import os
import sys

import numpy as np
import pytest

import repro
from video_tools import video_from_arrays
from repro.codec import EncoderParameters, VideoDecoder, VideoEncoder
from repro.nn import preprocess_frames
from repro.nn.yolo_lite import DEFAULT_INPUT_SIZE

#: Frames between key frames; scene cuts are off, so the clip of ``n`` GOPs
#: has exactly ``n`` key frames.
GOP = 5
KEYFRAMES = 8

#: Calls made by ``repro`` code / all Python-level / C calls a key frame.
CALL_CEILINGS = (31.5, 19.0, 40.0)

PACKAGE = os.path.dirname(repro.__file__)


def _encoded(keyframes: int):
    rng = np.random.default_rng(7)
    frames = [rng.integers(0, 256, size=(32, 48), dtype=np.uint8)
              for _ in range(keyframes * GOP)]
    encoded = VideoEncoder(EncoderParameters(
        gop_size=GOP, scenecut_threshold=0.0)).encode(
            video_from_arrays("read-path", frames), materialise_payload=True)
    assert len(encoded.keyframe_indices) == keyframes
    return encoded


def _calls(run):
    """(made by ``repro`` code, all Python-level, C) calls of one ``run()``."""
    counts = [0, 0, 0]

    def profile(frame, event, argument) -> None:
        if event == "call":
            caller = frame.f_back
            counts[0] += (caller is not None
                          and caller.f_code.co_filename.startswith(PACKAGE))
            counts[1] += 1
        elif event == "c_call":
            counts[0] += frame.f_code.co_filename.startswith(PACKAGE)
            counts[2] += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return tuple(counts)


@pytest.fixture(scope="module")
def counts():
    """Warm call counts of the read path at N and 2N key frames."""
    decoder = VideoDecoder()
    measured = []
    for keyframes in (KEYFRAMES, 2 * KEYFRAMES):
        encoded = _encoded(keyframes)

        def read():
            frames = decoder.decode_keyframes(encoded)
            return preprocess_frames([frame.data for frame in frames],
                                     DEFAULT_INPUT_SIZE)

        tensors = read()
        assert tensors.shape == (keyframes, 1, *DEFAULT_INPUT_SIZE)
        measured.append(_calls(read))
        assert measured[-1] == _calls(read)
    return measured


class TestCallsAKeyFrame:
    def test_each_key_frame_costs_at_most_the_ceiling(self, counts):
        few, many = counts
        marginal = tuple((b - a) / KEYFRAMES for a, b in zip(few, many))
        for name, count, ceiling in zip(("repro", "Python-level", "C"),
                                        marginal, CALL_CEILINGS):
            assert count <= ceiling, (name, marginal)

    def test_the_count_a_key_frame_is_flat(self, counts):
        """Twice the key frames cost at most twice the calls: the part that
        does not grow with the clip is not negative."""
        few, many = counts
        for a, b in zip(few, many):
            assert b <= 2 * a, counts
