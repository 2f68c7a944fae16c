"""What one online retune costs, counted rather than timed.

Counts repeat exactly on any machine, so they can gate what a shared
runner's wall clock cannot resolve.  The feed is fixed: 60 s of the
``drifting`` scenario at render scale 0.05 and schedule seed 0 (one clip of
the benchmark's ``adaptive_soak`` at full size), cut into 2 s chunks of 60
frames.  Under ``AdaptiveConfig()`` it confirms drift at the 10th, 19th and
29th pushes.  The 19th push's winner ties the incumbent and is not applied,
so the 29th push searches with the tuner the 19th built: one grid search of
25 points over a full window of 8 chunks (480 frames), whose winner is
applied.

Python-level calls of that push are counted with ``sys.setprofile`` and
the collector off, as ``tests/codec/test_analysis_counters.py`` counts an
analysis pass.  It makes 318 calls.  Before the grid was scored in one
batched call (``evaluate_sample_sets``), with the timeline built per frame
and a tuner built per evaluation, it made 2,739.  Each of those three alone
breaks the ceiling: one ``evaluate_sampling`` call per grid point makes
728, normalising every frame's labels 790, and a tuner built per
evaluation 446.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.adapt import AdaptiveConfig, DriftMonitor
from repro.service.scenario_feed import analyse_scenario, chunk_analysis

CHUNK_SECONDS = 2.0
PUSH = 28
CALLS_CEILING = 360


@pytest.fixture(scope="module")
def chunks():
    feed = chunk_analysis(analyse_scenario("drifting", 60.0, 0.05, seed=0),
                          CHUNK_SECONDS)
    assert len(feed) == 30 and feed[0].num_frames == 60
    return feed


def _calls_of_the_push(chunks) -> int:
    """Feed a fresh monitor up to ``PUSH`` and count that push's calls."""
    monitor = DriftMonitor(AdaptiveConfig())
    for index in range(PUSH):
        monitor.observe(chunks[index].scene, index * CHUNK_SECONDS)
    calls = 0

    def profile(frame, event, argument) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        decision = monitor.observe(chunks[PUSH].scene, PUSH * CHUNK_SECONDS)
    finally:
        sys.setprofile(previous)
        gc.enable()
    assert decision is not None and decision.applied
    return calls


class TestWhatARetuneCosts:
    def test_the_window_is_a_full_25_point_search(self, chunks):
        config = AdaptiveConfig()
        assert config.grid.num_configurations == 25
        assert config.window_chunks * chunks[0].num_frames == 480
        monitor = DriftMonitor(config)
        decisions = [monitor.observe(chunk.scene, index * CHUNK_SECONDS)
                     for index, chunk in enumerate(chunks)]
        applied = {index: decision.applied
                   for index, decision in enumerate(decisions)
                   if decision is not None}
        assert applied == {9: True, 18: False, PUSH: True}
        assert PUSH - 18 >= config.window_chunks

    def test_python_level_calls_of_one_retune(self, chunks):
        calls = _calls_of_the_push(chunks)
        assert calls == _calls_of_the_push(chunks)
        assert calls <= CALLS_CEILING, calls
