"""Composed scenarios stream through the service via scenario_feed."""

import math

import pytest

from repro.codec.scenecut import FrameActivity
from repro.errors import ServiceError
from repro.service import (ChunkFeeder, StreamingService, VirtualClock,
                           analyse_scenario, chunk_analysis)
from repro.service.scenario_feed import ClipAnalysis

SPEC = "highway+rain+night_cycle"
DURATION = 8.0
SCALE = 0.05
SEED = 5


class TestScenarioFeed:
    def test_chunks_carry_scene_payloads(self):
        chunks = chunk_analysis(analyse_scenario(SPEC, DURATION, SCALE, seed=SEED))
        assert len(chunks) == 4
        for chunk in chunks:
            assert chunk.num_frames == 60
            assert chunk.scene is not None
            assert len(chunk.scene.activities) == chunk.num_frames

    def test_feed_is_deterministic(self):
        first = analyse_scenario(SPEC, DURATION, SCALE, seed=SEED)
        second = analyse_scenario(SPEC, DURATION, SCALE, seed=SEED)
        assert first.activities == second.activities
        assert first.lumas == second.lumas
        assert first.frame_labels == second.frame_labels

    def test_transform_presets_change_the_feed(self):
        plain = analyse_scenario("highway", DURATION, SCALE, seed=SEED)
        composed = analyse_scenario(SPEC, DURATION, SCALE, seed=SEED)
        assert plain.fps == composed.fps
        assert plain.lumas != composed.lumas
        # The schedule is orthogonal to the pixel transforms, so the
        # ground-truth labels line up frame for frame.
        assert plain.frame_labels == composed.frame_labels

    def test_trailing_partial_chunk_is_dropped(self):
        analysis = analyse_scenario(SPEC, 5.0, SCALE, seed=SEED)
        chunks = chunk_analysis(analysis, chunk_seconds=2.0)
        assert len(chunks) == 2
        assert sum(chunk.num_frames for chunk in chunks) == 120

    def test_composed_spec_streams_through_the_service(self):
        chunks = chunk_analysis(analyse_scenario(SPEC, DURATION, SCALE, seed=SEED))

        def run():
            service = StreamingService(clock=VirtualClock(),
                                       num_edge_servers=2)
            service.open_session("cam-composed")
            ChunkFeeder(service, "cam-composed", chunks,
                        period_seconds=2.0).start(at=0.0)
            service.drain()
            return service

        reference = run()
        replay = run()
        report = reference.fleet_report()
        assert report.parity_mismatches(replay.fleet_report(), 1e-6) == []
        expected_frames = sum(chunk.num_frames for chunk in chunks)
        assert report.total_frames == expected_frames


def flat_analysis(frames: int = 90, fps: float = 30.0) -> ClipAnalysis:
    """A still clip, without rendering one."""
    return ClipAnalysis(
        activities=tuple(FrameActivity(index, 0.0, 1.0, float(index == 0),
                                       0.0, is_first=index == 0)
                         for index in range(frames)),
        frame_labels=(frozenset(),) * frames, lumas=(100.0,) * frames,
        fps=fps)


class TestChunkSeconds:
    @pytest.mark.parametrize("chunk_seconds", [
        0.0,        # used to raise ZeroDivisionError
        0.01,       # 0.3 frames a chunk: ZeroDivisionError
        math.nan,   # ValueError out of round()
        "2",        # TypeError out of the multiplication
        -2.0,       # used to return no chunks and no error
        True,       # used to be taken as one second
        math.inf,   # OverflowError out of round()
        -math.inf,
        1e308,      # finite, but 1e308 * 30 fps overflows to inf
        None,
        1e-9,
    ])
    def test_a_chunk_must_hold_a_frame(self, chunk_seconds):
        with pytest.raises(ServiceError, match="chunk_seconds"):
            chunk_analysis(flat_analysis(), chunk_seconds)

    def test_one_frame_chunks(self):
        chunks = chunk_analysis(flat_analysis(), 1 / 30)
        assert [chunk.num_frames for chunk in chunks] == [1] * 90
