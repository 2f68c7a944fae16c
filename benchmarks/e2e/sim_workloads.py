"""The three workloads that run no pixels: fleet replay and the two soaks."""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adapt import AdaptiveConfig, DriftMonitor
from repro.cluster import CameraJob, FleetOrchestrator
from repro.dataflow.scheduler import EventScheduler, ServiceStation
from repro.rng import derive_seed, make_rng
from repro.service import (ChunkFeeder, FrameChunk, StreamingService,
                           TenantPolicy, VirtualClock, analyse_scenario,
                           chunk_analysis, chunk_camera_job)

from common import PassResult, pinned_config, report_fingerprint

#: Utilisation may exceed 1 by float rounding only.
UTILISATION_SLACK = 1e-9


def _tier_problems(report, expected_jobs: int) -> List[str]:
    """Conservation and utilisation <= 1 on a FleetReport's tiers."""
    problems = []
    tiers = ([("cloud", report.cloud_tier)]
             + [(f"edge:{i}", tier) for i, tier in enumerate(report.edge_tiers)]
             + [(f"wan:{i}", tier) for i, tier in enumerate(report.wan_tiers)])
    for name, tier in tiers:
        if tier.utilisation > 1.0 + UTILISATION_SLACK:
            problems.append(f"{name} utilisation {tier.utilisation} > 1")
    for name, completed in (
            ("cloud", report.cloud_tier.completed),
            ("edge", sum(tier.completed for tier in report.edge_tiers)),
            ("wan", sum(tier.completed for tier in report.wan_tiers))):
        if completed != expected_jobs:
            problems.append(f"{name} tier completed {completed} of "
                            f"{expected_jobs} submitted")
    return problems


def _scheduler_loop(tracer, jobs: int) -> None:
    """The bare event loop: one station, ``jobs`` no-op services."""
    scheduler = EventScheduler()
    station = ServiceStation(scheduler, "bench")
    with tracer.span("dataflow.scheduler_loop_s"):
        for _ in range(jobs):
            station.submit(0.001)
        scheduler.run()


class FleetReplay:
    """Synthetic camera jobs through ``FleetOrchestrator.run()``."""

    name = "fleet_replay"
    #: (camera jobs, edge servers, no-op jobs of the bare scheduler loop).
    SIZES = {False: (8192, 64, 200_000), True: (512, 8, 5_000)}
    coverage_spans = ("cluster.fleet_build_s", "cluster.fleet_run_s")
    coverage_of = None

    def __init__(self, seed: int, quick: bool, setup) -> None:
        self.config = pinned_config()
        count, self.edges, self.loop_jobs = self.SIZES[quick]
        self.jobs = self._synthetic_jobs(seed, count)
        self.sizes = {"camera_jobs": count, "edges": self.edges}

    def _synthetic_jobs(self, seed: int, count: int) -> List[CameraJob]:
        """The arithmetic fleet of ``examples/fleet_scaling.py``, with each
        job's compute seconds perturbed +-5 % from the seed."""
        jitter = make_rng(derive_seed(seed, self.name, "0")).uniform(
            0.95, 1.05, size=(count, 2))
        jobs = []
        for index in range(count):
            spread = index % 7
            jobs.append(CameraJob(
                camera=f"scale-{index:05d}", video=f"feed-{spread}",
                num_frames=240 + 36 * spread, frames_for_inference=8 + spread,
                edge_seconds=(0.35 + 0.11 * spread) * jitter[index, 0],
                cloud_seconds=((0.22 + 0.05 * ((index * 3) % 5))
                               * jitter[index, 1]),
                camera_edge_bytes=600_000 + 1013 * (index % 4096),
                edge_cloud_bytes=180_000 + 577 * spread))
        return jobs

    def run_pass(self, tracer, prober) -> PassResult:
        result = PassResult(units=len(self.jobs), attempted=len(self.jobs))
        with tracer.span("cluster.fleet_build_s"):
            orchestrator = FleetOrchestrator(
                self.jobs, num_edge_servers=self.edges, config=self.config)
        with tracer.span("cluster.fleet_run_s"):
            report = orchestrator.run()
        result.failures.extend(
            f"{outcome.job.camera}: never completed"
            for outcome in report.outcomes
            if outcome.end_seconds != outcome.end_seconds)
        result.outputs = report
        return result

    def check(self, result: PassResult) -> List[str]:
        return _tier_problems(result.outputs, len(self.jobs))

    def fingerprint(self, result: PassResult):
        return report_fingerprint(result.outputs)

    def derived(self, result: PassResult) -> Dict[str, float]:
        report = result.outputs
        return {"sim_makespan_s": report.makespan_seconds,
                "sim_fps": report.aggregate_throughput_fps}

    def staged(self, tracer, traced, traced_result) -> Dict[str, float]:
        with tracer.span("cluster.fleet_build_s"):
            FleetOrchestrator(self.jobs, num_edge_servers=self.edges,
                              config=self.config).assign()
        _scheduler_loop(tracer, self.loop_jobs)
        report = traced_result.outputs
        run_seconds = traced.get("cluster.fleet_run_s", 0.0)
        return {"cluster.jobs_completed": report.cloud_tier.completed,
                "dataflow.events": report.events_processed,
                "dataflow.events_per_s":
                    report.events_processed / run_seconds if run_seconds else 0.0}


class _Soak:
    """A ``StreamingService`` under ``VirtualClock`` fed by ChunkFeeders.

    Subclasses provide ``self.feeds`` -- ``(camera, tenant, start offset,
    chunks)`` per session -- and the adaptive config (or ``None``).
    """

    TENANTS = ("retail", "transit", "campus")
    PERIOD_SECONDS = 2.0
    EDGES = 16
    drain_span = "service.drain_s"
    adaptive: Optional[AdaptiveConfig] = None
    coverage_of = None

    feeds: Sequence[Tuple[str, str, float, Sequence[FrameChunk]]]

    @property
    def coverage_spans(self):
        return ("service.open_sessions_s", self.drain_span,
                "service.status_s", "service.fleet_report_s")

    def _open(self, adaptive) -> Tuple[StreamingService, List[ChunkFeeder]]:
        quota = -(-len(self.feeds) // len(self.TENANTS))
        service = StreamingService(
            config=self.config, num_edge_servers=self.EDGES,
            clock=VirtualClock(), max_sessions=len(self.feeds) + 8,
            tenants=tuple(TenantPolicy(name=name, max_sessions=quota,
                                       max_pending_chunks=8)
                          for name in self.TENANTS),
            adaptive=adaptive)
        feeders = []
        for camera, tenant, offset, chunks in self.feeds:
            service.open_session(camera, tenant=tenant)
            feeders.append(ChunkFeeder(
                service, camera, chunks,
                period_seconds=self.PERIOD_SECONDS).start(at=offset))
        return service, feeders

    def run_pass(self, tracer, prober) -> PassResult:
        planned = sum(len(chunks) for _, _, _, chunks in self.feeds)
        result = PassResult(units=planned, attempted=planned)
        with tracer.span("service.open_sessions_s"):
            service, feeders = self._open(self.adaptive)
        with tracer.span(self.drain_span):
            service.drain()
        with tracer.span("service.status_s"):
            status = service.status()
        with tracer.span("service.fleet_report_s"):
            report = service.fleet_report()
        for session, (_, _, _, chunks) in zip(status.sessions, self.feeds):
            lost = len(chunks) - session.chunks_completed
            result.failures.extend(
                f"{session.session_id}: chunk refused, shed or lost"
                for _ in range(lost))
        retries = sum(feeder.retries for feeder in feeders)
        result.failures.extend("push bounced with backpressure"
                               for _ in range(retries))
        result.outputs = (service, status, report, retries)
        return result

    def check(self, result: PassResult) -> List[str]:
        _, status, report, _ = result.outputs
        pushed = sum(session.chunks_pushed for session in status.sessions)
        problems = _tier_problems(report, pushed)
        if status.max_utilisation > 1.0 + UTILISATION_SLACK:
            problems.append(f"live utilisation {status.max_utilisation} > 1")
        if status.total_in_flight or status.pending_events:
            problems.append(f"drained service still holds "
                            f"{status.total_in_flight} chunks, "
                            f"{status.pending_events} events")
        return problems

    def fingerprint(self, result: PassResult):
        _, status, report, _ = result.outputs
        return [report_fingerprint(report), list(status.retune_history)]

    def derived(self, result: PassResult) -> Dict[str, float]:
        report = result.outputs[2]
        return {"sim_makespan_s": report.makespan_seconds,
                "sim_latency_p99_s": report.latency_percentiles[99]}

    def staged(self, tracer, traced, traced_result) -> Dict[str, float]:
        _, status, _, retries = traced_result.outputs
        drain_seconds = traced.get(self.drain_span, 0.0)
        return {
            "service.chunks_pushed":
                sum(session.chunks_pushed for session in status.sessions),
            "service.chunks_completed":
                sum(session.chunks_completed for session in status.sessions),
            "service.pushes_rejected": status.pushes_rejected,
            "service.feeder_retries": retries,
            "dataflow.events": status.events_processed,
            "dataflow.events_per_s":
                status.events_processed / drain_seconds if drain_seconds else 0.0,
        }


class ServiceSoak(_Soak):
    """Controller off: scene-less chunks, sized below saturation."""

    name = "service_soak"
    #: (sessions, chunks per session).
    SIZES = {False: (256, 64), True: (16, 8)}

    def __init__(self, seed: int, quick: bool, setup) -> None:
        self.config = pinned_config()
        sessions, chunks = self.SIZES[quick]
        offsets = make_rng(derive_seed(seed, self.name, "offsets")).uniform(
            0.0, self.PERIOD_SECONDS, size=sessions)
        self.feeds = []
        for index in range(sessions):
            camera = f"cam-{index:03d}"
            rng = make_rng(derive_seed(seed, self.name, str(index)))
            frames = int(rng.integers(240, 360))
            # Per-chunk costs that keep 16 sessions per edge, one chunk
            # every 2 s each, near 55 % edge utilisation.
            job = CameraJob(
                camera=camera, video=f"stream:{camera}",
                num_frames=frames * chunks,
                frames_for_inference=max(frames // 10, 1) * chunks,
                edge_seconds=float(rng.uniform(0.04, 0.10)) * chunks,
                cloud_seconds=float(rng.uniform(0.01, 0.03)) * chunks,
                camera_edge_bytes=int(rng.uniform(1e5, 2e5)) * chunks,
                edge_cloud_bytes=int(rng.uniform(1e4, 3e4)) * chunks)
            self.feeds.append((camera, self.TENANTS[index % 3],
                               float(offsets[index]),
                               chunk_camera_job(job, chunks)))
        self.sizes = {"sessions": sessions, "chunks": sessions * chunks,
                      "edges": self.EDGES}


class AdaptiveSoak(_Soak):
    """Controller on: drifting clips whose confirmed drifts re-run the
    tuner grid inside the push path."""

    name = "adaptive_soak"
    #: (analysed clips, clip seconds, render scale, sessions, drift
    #: evaluations per pass).
    SIZES = {False: (2, 60.0, 0.05, 8, 12), True: (1, 30.0, 0.04, 3, 2)}
    drain_span = "adapt.drain_s"
    adaptive = AdaptiveConfig()

    def __init__(self, seed: int, quick: bool, setup) -> None:
        self.config = pinned_config()
        clips, seconds, scale, sessions, budget = self.SIZES[quick]
        feeds = []
        for index in range(clips):
            with setup.span("setup.analyse_scenario"):
                analysis = analyse_scenario(
                    "drifting", seconds, scale,
                    seed=derive_seed(seed, self.name, str(index)),
                    precision=self.config.precision)
            feeds.append(chunk_analysis(analysis, self.PERIOD_SECONDS))
        with setup.span("setup.count_evaluations"):
            evaluations = [self._evaluations(chunks) for chunks in feeds]
        carrying = _sessions_for_budget(evaluations, sessions, budget)
        self.evaluations = sum(count * per_clip for count, per_clip
                               in zip(carrying, evaluations))
        # Sessions beyond the budget push the same footage without scene
        # payloads: invisible to the controller, so every seed pushes the
        # same number of chunks and runs (nearly) the same number of grid
        # searches, whatever its clips' drift happens to trigger.
        plans = [feeds[clip] for clip, count in enumerate(carrying)
                 for _ in range(count)]
        plain = [[replace(chunk, scene=None) for chunk in chunks]
                 for chunks in feeds]
        plans += [plain[index % clips]
                  for index in range(sessions - len(plans))]
        self.feeds = [(f"cam-{index:02d}", self.TENANTS[index % 3],
                       0.1 * index, chunks)
                      for index, chunks in enumerate(plans)]
        self.sizes = {"sessions": sessions, "scene_sessions": sum(carrying),
                      "chunks": sum(len(chunks) for chunks in plans),
                      "evaluations": self.evaluations, "edges": self.EDGES}

    def _evaluations(self, chunks: Sequence[FrameChunk]) -> int:
        """Grid searches one session fed ``chunks`` will trigger (the
        monitor is a pure function of the pushed sequence)."""
        monitor = DriftMonitor(self.adaptive)
        return sum(
            monitor.observe(chunk.scene, index * self.PERIOD_SECONDS)
            is not None for index, chunk in enumerate(chunks))

    def check(self, result: PassResult) -> List[str]:
        problems = super().check(result)
        retunes = sum(result.outputs[1].retune_counters.values())
        if retunes != self.evaluations:
            problems.append(f"{retunes} drift evaluations ran, the feed was "
                            f"planned for {self.evaluations}")
        return problems

    def staged(self, tracer, traced, traced_result) -> Dict[str, float]:
        counters = super().staged(tracer, traced, traced_result)
        service, _ = self._open(None)
        with tracer.span("adapt.drain_baseline"):
            service.drain()
        retunes = sum(traced_result.outputs[1].retune_counters.values())
        extra = (traced.get(self.drain_span, 0.0)
                 - tracer.self_seconds()["adapt.drain_baseline"])
        counters["adapt.retunes"] = retunes
        counters["adapt.retune_ms"] = extra / retunes * 1e3 if retunes else 0.0
        return counters


def _sessions_for_budget(evaluations: Sequence[int], sessions: int,
                         budget: int) -> List[int]:
    """How many scene-carrying sessions to feed from each clip so the pass
    runs ``budget`` drift evaluations (closest reachable; then the most
    even split across clips)."""
    splits = (counts for counts in itertools.product(
        range(sessions + 1), repeat=len(evaluations))
        if sum(counts) <= sessions)
    return list(min(splits, key=lambda counts: (
        abs(sum(c * e for c, e in zip(counts, evaluations)) - budget),
        max(counts) - min(counts))))
