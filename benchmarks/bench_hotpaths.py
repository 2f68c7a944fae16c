"""Micro-benchmarks for the optimised hot paths.

Covers the codepaths the perf PRs touch: entropy encode/decode (vectorised
vs the retained reference implementation), motion search, DCT + quantise,
single vs batched NN inference, and the discrete-event scheduler loop.
Every measurement is recorded through :class:`repro.perf.BenchReport` into
``BENCH_hotpaths.json`` so speedups are *measured*, not asserted — the
assertions here are deliberately conservative sanity floors (the recorded
numbers are the real result).

Run with ``python -m pytest benchmarks/bench_hotpaths.py -q
--benchmark-disable`` for a quick instrumented pass, or with
``--benchmark-only`` for full pytest-benchmark statistics.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.codec import entropy
from repro.codec.blocks import pad_plane, to_blocks
from repro.codec.motion import candidate_offsets, estimate_motion, shift_plane
from repro.codec.transform import reconstruct_blocks, transform_and_quantise
from repro.contracts import FAST_CONTRACT, agreement_fraction
from repro.dataflow.scheduler import EventScheduler, ServiceStation
from repro.nn import build_yolo_lite, classify_frame, classify_frames
from repro.video.scenarios import make_scenario
from repro.video.synthetic import SyntheticScene

#: The micro-benchmarks use a fixed moderate footage scale (independent of
#: the end-to-end harnesses) so recorded numbers are comparable across runs.
FRAME_RENDER_SCALE = 0.25
BLOCK_SIZE = 8
QUALITY = 75


def min_time(function, repeats: int = 5, min_total_seconds: float = 0.25,
             max_repeats: int = 200) -> float:
    """Best-of-N wall-clock seconds for one call (micro-benchmark convention).

    Sub-millisecond functions repeat until ``min_total_seconds`` of samples
    have accumulated (capped at ``max_repeats``): a single best-of-5 on a
    0.3 ms call is dominated by scheduler jitter, and the perf gate
    compares the recorded values across runs, so they must be stable.
    """
    best = float("inf")
    spent = 0.0
    runs = 0
    while runs < repeats or (spent < min_total_seconds and runs < max_repeats):
        start = time.perf_counter()
        function()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        runs += 1
    return best


@pytest.fixture(scope="module")
def hotpaths_report(bench_report_factory):
    return bench_report_factory("hotpaths")


@pytest.fixture(scope="module")
def frame_pair():
    """Two consecutive luma planes of a representative synthetic scene."""
    profile = make_scenario("jackson_square", duration_seconds=2.0,
                            render_scale=FRAME_RENDER_SCALE)
    video = SyntheticScene(profile).video()
    frames = []
    for frame in video.frames():
        frames.append(frame.to_grayscale().astype(np.float64))
        if len(frames) == 2:
            break
    return frames[0], frames[1]


@pytest.fixture(scope="module")
def quantised_frame(frame_pair):
    """Quantised DCT blocks of one representative frame."""
    luma = frame_pair[0] - 128.0
    blocks = to_blocks(pad_plane(luma, BLOCK_SIZE), BLOCK_SIZE)
    return transform_and_quantise(blocks, QUALITY)


class TestEntropyCoding:
    def test_encode_speedup(self, benchmark, quantised_frame, hotpaths_report):
        payload = entropy.encode_blocks(quantised_frame)
        assert payload == entropy.encode_blocks_reference(quantised_frame)
        baseline = min_time(lambda: entropy.encode_blocks_reference(quantised_frame))
        optimised = min_time(lambda: entropy.encode_blocks(quantised_frame))
        entry = hotpaths_report.record_speedup(
            "entropy_encode", baseline, optimised,
            blocks=int(np.prod(quantised_frame.shape[:2])),
            payload_bytes=len(payload))
        benchmark(entropy.encode_blocks, quantised_frame)
        # Speedups are measured and recorded, not asserted: wall-clock floors
        # would make CI flaky on shared runners.  Only sanity is checked.
        assert entry.value > 0

    def test_decode_speedup(self, benchmark, quantised_frame, hotpaths_report):
        payload = entropy.encode_blocks(quantised_frame)
        blocks_y, blocks_x = quantised_frame.shape[:2]
        decoded = entropy.decode_blocks(payload, blocks_y, blocks_x, BLOCK_SIZE)
        assert np.array_equal(
            decoded, entropy.decode_blocks_reference(payload, blocks_y,
                                                     blocks_x, BLOCK_SIZE))
        baseline = min_time(lambda: entropy.decode_blocks_reference(
            payload, blocks_y, blocks_x, BLOCK_SIZE))
        optimised = min_time(lambda: entropy.decode_blocks(
            payload, blocks_y, blocks_x, BLOCK_SIZE))
        entry = hotpaths_report.record_speedup(
            "entropy_decode", baseline, optimised,
            payload_bytes=len(payload))
        benchmark(entropy.decode_blocks, payload, blocks_y, blocks_x,
                  BLOCK_SIZE)
        assert entry.value > 0


def _estimate_motion_reference(reference, current, block_size, search_radius):
    """The seed's per-candidate motion search (baseline for the speedup)."""
    reference = pad_plane(np.asarray(reference, dtype=np.float64), block_size)
    current = pad_plane(np.asarray(current, dtype=np.float64), block_size)
    current_blocks = to_blocks(current, block_size)
    blocks_y, blocks_x = current_blocks.shape[:2]
    best_sad = np.full((blocks_y, blocks_x), np.inf)
    best_vector = np.zeros((blocks_y, blocks_x, 2), dtype=np.int16)
    zero_sad = None
    for dy, dx in candidate_offsets(search_radius, 1):
        predicted = shift_plane(reference, dy, dx)
        sad = np.abs(to_blocks(predicted, block_size)
                     - current_blocks).sum(axis=(2, 3))
        if (dy, dx) == (0, 0):
            zero_sad = sad
        better = sad < best_sad
        best_sad = np.where(better, sad, best_sad)
        best_vector[better] = (dy, dx)
    return best_vector, best_sad, zero_sad


class TestMotionSearch:
    def test_motion_search_speedup(self, benchmark, frame_pair, hotpaths_report):
        reference, current = frame_pair
        radius = 3
        field = estimate_motion(reference, current, BLOCK_SIZE, radius)
        ref_vectors, ref_sad, _ = _estimate_motion_reference(
            reference, current, BLOCK_SIZE, radius)
        assert np.array_equal(field.vectors, ref_vectors)
        assert np.array_equal(field.block_sad, ref_sad)
        baseline = min_time(lambda: _estimate_motion_reference(
            reference, current, BLOCK_SIZE, radius))
        optimised = min_time(lambda: estimate_motion(
            reference, current, BLOCK_SIZE, radius))
        entry = hotpaths_report.record_speedup(
            "motion_search", baseline, optimised,
            frame_shape=list(reference.shape),
            candidates=len(candidate_offsets(radius, 1)))
        benchmark(estimate_motion, reference, current, BLOCK_SIZE, radius)
        assert entry.value > 0


class TestTransform:
    def test_dct_quantise_throughput(self, benchmark, frame_pair,
                                     hotpaths_report):
        luma = frame_pair[0] - 128.0
        blocks = to_blocks(pad_plane(luma, BLOCK_SIZE), BLOCK_SIZE)
        seconds = min_time(lambda: transform_and_quantise(blocks, QUALITY))
        num_blocks = int(np.prod(blocks.shape[:2]))
        hotpaths_report.record("dct_quantise", seconds, "seconds",
                               blocks=num_blocks)
        hotpaths_report.record("dct_quantise.blocks_per_second",
                               num_blocks / seconds, "items_per_second")
        quantised = transform_and_quantise(blocks, QUALITY)
        roundtrip = min_time(lambda: reconstruct_blocks(quantised, QUALITY))
        hotpaths_report.record("idct_dequantise", roundtrip, "seconds",
                               blocks=num_blocks)
        benchmark(transform_and_quantise, blocks, QUALITY)
        assert seconds > 0


class TestInference:
    def test_single_vs_batched(self, benchmark, hotpaths_report):
        model = build_yolo_lite()
        rng = np.random.default_rng(17)
        frames = [rng.integers(0, 255, size=(64, 64), dtype=np.uint8)
                  for _ in range(32)]
        # Warm both paths before timing.
        classify_frame(model, frames[0])
        classify_frames(model, frames[:2], batch_size=2)
        single = min_time(
            lambda: [classify_frame(model, frame) for frame in frames],
            repeats=3)
        batched = min_time(
            lambda: classify_frames(model, frames, batch_size=16), repeats=3)
        entry = hotpaths_report.record_speedup(
            "nn_inference_batched", single, batched,
            frames=len(frames), batch_size=16)
        hotpaths_report.record("nn_inference.frames_per_second",
                               len(frames) / batched, "items_per_second")
        benchmark(classify_frames, model, frames)
        assert entry.value > 0
        # Batched labels match the per-frame path exactly.
        labels, _ = classify_frames(model, frames, batch_size=16)
        assert labels == [classify_frame(model, frame)[0] for frame in frames]


class TestPrecisionFastPaths:
    """Tolerance-contracted float32 fast paths vs their exact twins.

    Both the machine-relative speedup *and* the measured fast/exact
    agreement are recorded as gated ``precision_fast.*`` entries, so the CI
    perf gate fails if either the speedup or the contract collapses — and
    ``check_regression.py --require precision_fast`` keeps the section from
    silently dropping out of the comparison.
    """

    def test_nn_fast_speedup(self, benchmark, hotpaths_report):
        model = build_yolo_lite()
        rng = np.random.default_rng(23)
        frames = [rng.integers(0, 255, size=(64, 64), dtype=np.uint8)
                  for _ in range(32)]
        # Warm both paths (weight casts, buffers) before timing.
        classify_frames(model, frames[:2], batch_size=2)
        classify_frames(model, frames[:2], batch_size=2, precision="fast")
        exact_seconds = min_time(
            lambda: classify_frames(model, frames, batch_size=16), repeats=3)
        fast_seconds = min_time(
            lambda: classify_frames(model, frames, batch_size=16,
                                    precision="fast"), repeats=3)
        entry = hotpaths_report.record_speedup(
            "precision_fast.nn", exact_seconds, fast_seconds,
            frames=len(frames), batch_size=16)
        exact_labels, exact_probs = classify_frames(model, frames,
                                                    batch_size=16)
        fast_labels, fast_probs = classify_frames(model, frames,
                                                  batch_size=16,
                                                  precision="fast")
        agreement = agreement_fraction(exact_labels, fast_labels)
        hotpaths_report.record("precision_fast.nn_agreement", agreement,
                               "ratio", frames=len(frames))
        benchmark(classify_frames, model, frames, 16, "fast")
        assert entry.value > 0
        # The recorded numbers are the result; the contract itself is a
        # hard assertion — a fast path that breaks its budget must fail
        # even before the CI gate compares runs.
        assert agreement >= FAST_CONTRACT.nn_classes.min_agreement
        assert FAST_CONTRACT.nn_logits.values_within(exact_probs, fast_probs)

    def test_motion_fast_speedup(self, benchmark, frame_pair,
                                 hotpaths_report):
        reference, current = frame_pair
        radius = 3
        exact_field = estimate_motion(reference, current, BLOCK_SIZE, radius)
        fast_field = estimate_motion(reference, current, BLOCK_SIZE, radius,
                                     precision="fast")
        exact_seconds = min_time(
            lambda: estimate_motion(reference, current, BLOCK_SIZE, radius))
        fast_seconds = min_time(
            lambda: estimate_motion(reference, current, BLOCK_SIZE, radius,
                                    precision="fast"))
        entry = hotpaths_report.record_speedup(
            "precision_fast.motion", exact_seconds, fast_seconds,
            frame_shape=list(reference.shape),
            candidates=len(candidate_offsets(radius, 1)))
        agreement = agreement_fraction(exact_field.vectors,
                                       fast_field.vectors)
        hotpaths_report.record("precision_fast.motion_agreement", agreement,
                               "ratio",
                               blocks=int(exact_field.block_sad.size))
        benchmark(estimate_motion, reference, current, BLOCK_SIZE, radius,
                  1, "fast")
        assert entry.value > 0
        assert agreement >= FAST_CONTRACT.sad_argmin.min_agreement
        assert FAST_CONTRACT.sad_values.values_within(exact_field.block_sad,
                                                      fast_field.block_sad)


class TestFaultPlaneOverhead:
    """The fault-injection hooks must be free when no plan is installed.

    Runs the same fed streaming workload twice — once on the hookless
    seed path, once with an (empty) ``FaultPlan`` so the fault driver and
    every injection hook is installed but idle — and records the ratio as
    the gated ``faults.recovery_overhead`` entry (~1.0x).  A hook that
    starts costing real time on the fault-free path fails the perf gate
    even though every correctness test still passes.
    """

    NUM_CAMERAS = 8
    NUM_CHUNKS = 4

    def _run_service(self, with_hooks: bool):
        from repro.faults import FaultPlan
        from repro.service import ChunkFeeder, FrameChunk, StreamingService

        service = StreamingService(
            num_edge_servers=2,
            faults=FaultPlan() if with_hooks else None)
        chunks = [FrameChunk(num_frames=30, frames_for_inference=3,
                             edge_seconds=0.05, cloud_seconds=0.02,
                             camera_edge_bytes=500_000,
                             edge_cloud_bytes=60_000)
                  for _ in range(self.NUM_CHUNKS)]
        for index in range(self.NUM_CAMERAS):
            camera = f"bench-cam{index}"
            service.open_session(camera)
            ChunkFeeder(service, camera, list(chunks),
                        period_seconds=0.2).start(at=0.01 * index)
        service.drain()
        return service

    def test_idle_hooks_are_free(self, benchmark, hotpaths_report):
        plain = self._run_service(with_hooks=False)
        hooked = self._run_service(with_hooks=True)
        # The empty plan must not change the simulation at all.
        assert plain.fleet_report().parity_mismatches(
            hooked.fleet_report(), 1e-6) == []
        assert hooked.fleet_report().faults is None
        no_hooks = min_time(lambda: self._run_service(with_hooks=False),
                            repeats=3)
        with_hooks = min_time(lambda: self._run_service(with_hooks=True),
                              repeats=3)
        entry = hotpaths_report.record_speedup(
            "faults.recovery_overhead", no_hooks, with_hooks,
            cameras=self.NUM_CAMERAS, chunks=self.NUM_CHUNKS)
        benchmark(self._run_service, True)
        # ~1.0 is the result; only sanity is asserted (the perf gate
        # compares the recorded ratio across runs).
        assert entry.value > 0


class TestAdaptiveOverhead:
    """The adaptive controller must be free when not installed.

    Mirrors ``faults.recovery_overhead``: the same fed streaming workload
    runs on the seed path and with an ``AdaptiveConfig`` installed but
    idle (scene-less chunks never reach the drift monitor), and the ratio
    is recorded as the gated ``adapt.overhead`` entry (~1.0x).
    """

    NUM_CAMERAS = 8
    NUM_CHUNKS = 4

    def _run_service(self, with_controller: bool):
        from repro.adapt import AdaptiveConfig
        from repro.service import ChunkFeeder, FrameChunk, StreamingService

        service = StreamingService(
            num_edge_servers=2,
            adaptive=AdaptiveConfig() if with_controller else None)
        chunks = [FrameChunk(num_frames=30, frames_for_inference=3,
                             edge_seconds=0.05, cloud_seconds=0.02,
                             camera_edge_bytes=500_000,
                             edge_cloud_bytes=60_000)
                  for _ in range(self.NUM_CHUNKS)]
        for index in range(self.NUM_CAMERAS):
            camera = f"bench-cam{index}"
            service.open_session(camera)
            ChunkFeeder(service, camera, list(chunks),
                        period_seconds=0.2).start(at=0.01 * index)
        service.drain()
        return service

    def test_idle_controller_is_free(self, benchmark, hotpaths_report):
        plain = self._run_service(with_controller=False)
        adaptive = self._run_service(with_controller=True)
        # An idle controller must not change the simulation at all.
        assert plain.fleet_report().parity_mismatches(
            adaptive.fleet_report(), 1e-6) == []
        assert adaptive.adaptive.retunes_applied == 0
        assert adaptive.status().retune_counters == {}
        without = min_time(lambda: self._run_service(with_controller=False),
                           repeats=3)
        with_controller = min_time(
            lambda: self._run_service(with_controller=True), repeats=3)
        entry = hotpaths_report.record_speedup(
            "adapt.overhead", without, with_controller,
            cameras=self.NUM_CAMERAS, chunks=self.NUM_CHUNKS)
        benchmark(self._run_service, True)
        assert entry.value > 0


class TestSchedulerEventLoop:
    NUM_JOBS = 20_000

    def _run_station(self):
        scheduler = EventScheduler()
        station = ServiceStation(scheduler, "bench", capacity=4)
        for index in range(self.NUM_JOBS):
            station.submit(0.001 * (index % 7 + 1))
        scheduler.run()
        return scheduler

    def test_event_loop_throughput(self, benchmark, hotpaths_report):
        seconds = min_time(self._run_station, repeats=3)
        scheduler = self._run_station()
        events_per_second = scheduler.events_processed / seconds
        hotpaths_report.record("scheduler_event_loop", seconds, "seconds",
                               events=scheduler.events_processed)
        hotpaths_report.record("scheduler_event_loop.events_per_second",
                               events_per_second, "items_per_second")
        benchmark(self._run_station)
        assert scheduler.events_processed == self.NUM_JOBS
        assert events_per_second > 0


class TestScenarioMatrix:
    """The scenario DSL's defaults must cost nothing at render time.

    Every transform factory at its default is an exact no-op on the
    profile, so rendering a default-transformed scene must hit the exact
    same code path — no extra RNG draws, no extra float ops — as the
    plain profile.  The wall-clock ratio is recorded as the gated
    ``scenario_matrix.noop`` entry (~1.0x, machine-relative like
    ``adapt.overhead``), and a preset sweep records how many composed
    presets actually render, so the matrix cannot silently shrink.
    """

    RENDER_FRAMES = 24

    def _render(self, profile):
        scene = SyntheticScene(profile)
        for index in range(self.RENDER_FRAMES):
            scene.frame_array(index)
        return scene

    def test_default_transforms_are_free(self, benchmark, hotpaths_report):
        from repro.video.transforms import TRANSFORM_FACTORIES, apply_transforms

        profile = make_scenario("highway", duration_seconds=2.0,
                                render_scale=FRAME_RENDER_SCALE)
        defaults = [factory() for factory in TRANSFORM_FACTORIES.values()]
        transformed = apply_transforms(profile, *defaults)
        # Default transforms are exact no-ops on the profile itself, so
        # both sides below time the identical rendering path.
        assert transformed == profile
        plain_seconds = min_time(lambda: self._render(profile), repeats=3)
        transformed_seconds = min_time(lambda: self._render(transformed),
                                       repeats=3)
        entry = hotpaths_report.record_speedup(
            "scenario_matrix.noop", plain_seconds, transformed_seconds,
            frames=self.RENDER_FRAMES, transforms=len(defaults))
        benchmark(self._render, transformed)
        assert entry.value > 0

    def test_preset_matrix_renders(self, hotpaths_report):
        from repro.video.transforms import TRANSFORMS

        profile = make_scenario("highway", duration_seconds=2.0,
                                render_scale=FRAME_RENDER_SCALE)
        rendered = 0
        for name in sorted(TRANSFORMS):
            preset = TRANSFORMS[name]()(profile)
            scene = SyntheticScene(preset)
            scene.frame_array(0)
            scene.frame_array(self.RENDER_FRAMES - 1)
            rendered += 1
        hotpaths_report.record("scenario_matrix.presets", rendered, "items",
                               frames_each=2)
        assert rendered == len(TRANSFORMS)
