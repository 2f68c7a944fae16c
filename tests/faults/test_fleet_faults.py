"""Fault injection and recovery in the batch fleet orchestrator.

The batch side of the fault plane: edge crashes (transient and
permanent) injected into ``FleetOrchestrator`` runs, deterministic
failover of unfinished jobs, the forced single-process path for plans
that need cross-edge failover, and the pool-worker-kill recovery in the
multiprocess runner (the parent re-executes only the lost shard inline,
bit-identically).
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.errors import FaultError
from repro.faults import EdgeCrash, FaultPlan, WanDegradation, WorkerKill

TOLERANCE = 1e-6


def make_jobs(count: int = 12):
    return [CameraJob(camera=f"cam{index}", video=f"vid{index}",
                      num_frames=120 + 10 * index,
                      frames_for_inference=12 + index,
                      edge_seconds=0.4 + 0.03 * index,
                      cloud_seconds=0.2 + 0.02 * index,
                      camera_edge_bytes=900_000 + 1000 * index,
                      edge_cloud_bytes=120_000 + 500 * index)
            for index in range(count)]


class TestCrashFailover:
    def test_permanent_crash_relocates_unfinished_jobs(self):
        plan = FaultPlan(specs=(EdgeCrash(edge_index=0, at_seconds=1.5),))
        report = FleetOrchestrator(make_jobs(), num_edge_servers=3,
                                   faults=plan).run()
        assert report.faults is not None
        assert report.faults.crashes_seen == 1
        assert report.faults.jobs_failed_over > 0
        assert report.faults.chunks_dropped == 0
        # Every job still finished, none on the dead edge after failover.
        for outcome in report.outcomes:
            assert not math.isnan(outcome.end_seconds)
        failed_over = [camera for camera, edge
                       in report.assignments.items() if edge == 0]
        # Only jobs that fully completed before the crash may remain
        # attributed to edge 0.
        for outcome in report.outcomes:
            if outcome.job.camera in failed_over:
                assert outcome.end_seconds <= 1.5 + TOLERANCE

    def test_transient_crash_requeues_in_place(self):
        plan = FaultPlan(specs=(
            EdgeCrash(edge_index=0, at_seconds=1.0,
                      restart_after_seconds=0.8),))
        report = FleetOrchestrator(make_jobs(), num_edge_servers=2,
                                   faults=plan).run()
        assert report.faults is not None
        assert report.faults.crashes_seen == 1
        assert report.faults.edges_restarted == 1
        assert report.faults.jobs_failed_over == 0
        assert report.faults.chunks_failed_over > 0
        for outcome in report.outcomes:
            assert not math.isnan(outcome.end_seconds)

    def test_same_plan_is_deterministic(self):
        def run():
            plan = FaultPlan(specs=(
                EdgeCrash(edge_index=1, at_seconds=1.2),
                EdgeCrash(edge_index=0, at_seconds=2.0,
                          restart_after_seconds=0.5),
                WanDegradation(edge_index=2, at_seconds=0.8,
                               duration_seconds=1.0),
            ))
            return FleetOrchestrator(make_jobs(), num_edge_servers=3,
                                     faults=plan).run()

        first, second = run(), run()
        assert first.parity_mismatches(second, TOLERANCE) == []
        assert first.faults is not None
        assert first.faults.mismatches(second.faults) == []

    def test_wan_partition_delays_but_loses_nothing(self):
        plan = FaultPlan(specs=(
            WanDegradation(edge_index=0, at_seconds=0.5,
                           duration_seconds=1.5),))
        clean = FleetOrchestrator(make_jobs(6), num_edge_servers=1).run()
        degraded = FleetOrchestrator(make_jobs(6), num_edge_servers=1,
                                     faults=plan).run()
        assert degraded.faults is not None
        assert degraded.faults.wan_partitions == 1
        assert degraded.makespan_seconds > clean.makespan_seconds
        for outcome in degraded.outcomes:
            assert not math.isnan(outcome.end_seconds)
        # Same bytes moved: the partition queues transfers, never drops.
        assert degraded.edge_cloud_bytes == clean.edge_cloud_bytes

    def test_restart_does_not_lift_a_wan_partition(self):
        """Regression: the restart of a transient crash used to resume the
        uplink of an edge whose WAN partition was still running, so jobs
        finished *through* the partition."""
        plan = FaultPlan((
            WanDegradation(edge_index=0, at_seconds=1.0,
                           duration_seconds=10.0),
            EdgeCrash(edge_index=0, at_seconds=2.0,
                      restart_after_seconds=1.0)))
        report = FleetOrchestrator(make_jobs(), num_edge_servers=2,
                                   faults=plan).run()
        assert report.faults.edges_restarted == 1
        ends = [outcome.end_seconds for outcome in report.outcomes
                if outcome.edge_index == 0]
        # Nothing leaves edge 0 between its restart and the partition's
        # end; the jobs caught behind the partition finish after it.
        assert not [end for end in ends if 3.0 <= end <= 11.0]
        assert [end for end in ends if end > 11.0]

    def test_invalid_plans_rejected_at_construction(self):
        plan = FaultPlan(specs=(EdgeCrash(edge_index=5, at_seconds=1.0),))
        with pytest.raises(FaultError):
            FleetOrchestrator(make_jobs(), num_edge_servers=2, faults=plan)
        doomed = FaultPlan(specs=(
            EdgeCrash(edge_index=0, at_seconds=1.0),
            EdgeCrash(edge_index=1, at_seconds=2.0),
        ))
        with pytest.raises(FaultError):
            FleetOrchestrator(make_jobs(), num_edge_servers=2, faults=doomed)


class TestSchedulerFaultsForceSerial:
    def test_crash_plan_with_workers_matches_serial(self):
        """Cross-edge failover cannot be expressed in the per-edge
        decomposition, so a scheduler-fault plan runs the reference loop
        even when ``fleet_workers > 1`` — and must match it exactly."""
        plan_specs = (EdgeCrash(edge_index=0, at_seconds=1.5),)
        serial = FleetOrchestrator(make_jobs(), num_edge_servers=3,
                                   faults=FaultPlan(specs=plan_specs),
                                   fleet_workers=1).run()
        parallel = FleetOrchestrator(make_jobs(), num_edge_servers=3,
                                     faults=FaultPlan(specs=plan_specs),
                                     fleet_workers=3).run()
        assert serial.parity_mismatches(parallel, TOLERANCE) == []
        assert serial.faults is not None
        assert serial.faults.mismatches(parallel.faults) == []


class TestWorkerKillRecovery:
    def test_killed_worker_shard_is_rerun_inline_bit_exact(self):
        """A worker process dying mid-run (the injected ``WorkerKill``
        poison calls ``os._exit`` inside the pool) breaks the pool; the
        parent must keep every shard that already returned and re-execute
        only the lost shards inline, bit-identical to the serial run."""
        serial = FleetOrchestrator(make_jobs(), num_edge_servers=4,
                                   fleet_workers=1).run()
        plan = FaultPlan(specs=(WorkerKill(edge_index=1),
                                WorkerKill(edge_index=3)))
        killed = FleetOrchestrator(make_jobs(), num_edge_servers=4,
                                   fleet_workers=4, faults=plan).run()
        assert serial.parity_mismatches(killed, TOLERANCE) == []
        # Worker kills act outside the simulation: no fault counters.
        assert killed.faults is None

    def test_worker_kill_plan_is_harmless_on_the_serial_path(self):
        plan = FaultPlan(specs=(WorkerKill(edge_index=0),))
        serial = FleetOrchestrator(make_jobs(6), num_edge_servers=2,
                                   fleet_workers=1).run()
        with_plan = FleetOrchestrator(make_jobs(6), num_edge_servers=2,
                                      fleet_workers=1, faults=plan).run()
        assert serial.parity_mismatches(with_plan, TOLERANCE) == []


class TestFaultFreeBitIdentity:
    def test_no_plan_and_empty_plan_match(self):
        plain = FleetOrchestrator(make_jobs(), num_edge_servers=2).run()
        empty = FleetOrchestrator(make_jobs(), num_edge_servers=2,
                                  faults=FaultPlan()).run()
        assert plain.parity_mismatches(empty, TOLERANCE) == []
        assert plain.faults is None
        assert empty.faults is None
        assert plain.events_processed == empty.events_processed
