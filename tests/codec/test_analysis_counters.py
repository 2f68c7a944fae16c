"""What one analysis pass costs, counted rather than timed.

Counts repeat exactly on any machine, so they can gate what a shared
runner's wall clock cannot resolve.  The clip is fixed: 120 frames of
``coral_reef`` at render scale 0.08 (58 x 102, the size of the benchmark's
``offline_build`` clips), materialised before counting.

* Python-level calls per frame of ``VideoEncoder.analyze``, counted with
  ``sys.setprofile`` and the collector off, as
  ``tests/dataflow/test_event_core_oracle.py`` counts a chunk.  The
  frame-batched integer pass makes 4.9.  The per-frame float pass it
  replaced made 44.9, and the integer pass one frame at a time 54.8.
* The ``tracemalloc`` peak of one warm pass: 0.94 MB, one frame batch of
  ``int16`` stacks.  A budget large enough to put the whole clip (and all
  25 candidates) in one batch peaks at 72 MB.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.codec.encoder import VideoEncoder
from repro.datasets.generator import build_dataset

FRAMES = 120
CALLS_PER_FRAME_CEILING = 6.0
PEAK_BYTES_CEILING = 1_100_000


@pytest.fixture(scope="module")
def clip():
    video = build_dataset("coral_reef", FRAMES / 30.0, 0.08,
                          seed=0).video.materialise()
    assert video.metadata.num_frames == FRAMES
    assert video.frame(0).data.shape == (58, 102)
    return video


def _calls(encoder: VideoEncoder, video) -> int:
    calls = 0

    def profile(frame, event, argument) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        encoder.analyze(video)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def _peak_bytes(encoder: VideoEncoder, video) -> int:
    tracemalloc.start()
    try:
        encoder.analyze(video)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWhatAnAnalysisPassCosts:
    def test_python_level_calls_per_frame(self, clip):
        encoder = VideoEncoder()
        encoder.analyze(clip)
        calls = _calls(encoder, clip)
        assert calls == _calls(encoder, clip)
        assert calls / FRAMES <= CALLS_PER_FRAME_CEILING, calls / FRAMES

    def test_traced_peak_of_a_warm_pass(self, clip):
        encoder = VideoEncoder()
        encoder.analyze(clip)
        peak = _peak_bytes(encoder, clip)
        assert peak <= PEAK_BYTES_CEILING, peak
