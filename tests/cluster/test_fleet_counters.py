"""What a fault-free fleet run costs per job, counted rather than timed.

Counts repeat exactly on any machine, so they can gate what a shared
runner's wall clock cannot resolve.  The fleet is fixed: 2,048 cameras of
arithmetic costs on 16 edges, the default one worker per edge and one
cloud slot per edge.  The work counted is ``run()`` plus one pass over
``report.outcomes`` that reads every row's camera and cloud end, as the
benchmark's ``fleet_replay`` does.

Calls are counted with ``sys.setprofile`` and the collector off, as
``tests/adapt/test_retune_counters.py`` counts a retune.  Per job, the run
makes 0.23 Python-level calls and 0.43 calls into C; with 15 cloud
workers, where 33 jobs wait, 0.23 and 0.51.  While the cloud kept every
job on a heap once one job waited, and one-worker busy periods were
stepped job by job, it made 0.25 and 3.32 (3.33 with 15 cloud workers).
Before the outcomes became one columnar record and single-worker stations
dropped the heap, it made 11.29 and 12.39: a ``JobOutcome`` per job, a
``transfer_seconds`` call per job and link, generator walks in the fold,
and a heap push, pop and ``fired`` append per job at every station.

Memory is counted with ``tracemalloc``: the peak of the run and the pass,
and what the report keeps alive afterwards (the record's columns, not a
row object per job).
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.cluster.fleet import CameraJob, FleetOrchestrator

JOBS = 2048
EDGES = 16
#: Measured: 0.23 Python-level calls and 0.43 C calls per job (0.51 with
#: ``FEW_WAITS_CLOUD_WORKERS``).
CALLS_PER_JOB_CEILING = 0.5
C_CALLS_PER_JOB_CEILING = 0.65
#: Measured: a 265-byte peak and 90 bytes kept per job.
PEAK_BYTES_PER_JOB_CEILING = 700
KEPT_BYTES_PER_JOB_CEILING = 150
#: 15 cloud workers behind 16 edges: 33 of the 2,048 jobs wait for one.
FEW_WAITS_CLOUD_WORKERS = 15


@pytest.fixture(scope="module")
def jobs():
    return [CameraJob(camera=f"cam-{index:04d}", video=f"feed-{index % 7}",
                      num_frames=240 + 36 * (index % 7),
                      frames_for_inference=8 + index % 7,
                      edge_seconds=(0.35 + 0.11 * (index % 7)
                                    + 0.001 * (index % 13)),
                      cloud_seconds=0.22 + 0.05 * ((index * 3) % 5),
                      camera_edge_bytes=600_000 + 1013 * index,
                      edge_cloud_bytes=180_000 + 577 * (index % 7))
            for index in range(JOBS)]


def run_and_read(jobs, cloud_workers=None):
    """``run()`` and one pass over the outcomes, as the benchmark makes."""
    report = FleetOrchestrator(jobs, num_edge_servers=EDGES,
                               cloud_workers=cloud_workers).run()
    for outcome in report.outcomes:
        outcome.job.camera, outcome.end_seconds
    return report


def counted_calls(jobs, cloud_workers=None):
    """``(Python-level calls, C calls)`` of one :func:`run_and_read`."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, argument) -> None:
        if event in counts:
            counts[event] += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        run_and_read(jobs, cloud_workers)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return counts["call"], counts["c_call"]


class TestWhatAFleetRunCosts:
    def test_the_fleet_is_fault_free_and_completes(self, jobs):
        report = run_and_read(jobs)
        assert report.cloud_tier.completed == JOBS
        assert len(report.edge_tiers) == EDGES
        assert report.faults is None

    def test_calls_per_job(self, jobs):
        run_and_read(jobs)  # imports and first-call caches out of the count
        calls, c_calls = counted_calls(jobs)
        assert (calls, c_calls) == counted_calls(jobs)
        assert calls / JOBS <= CALLS_PER_JOB_CEILING, calls / JOBS
        assert c_calls / JOBS <= C_CALLS_PER_JOB_CEILING, c_calls / JOBS

    def test_calls_per_job_where_a_few_jobs_wait(self, jobs):
        """A cloud of fewer workers than edges, where only a handful of
        jobs wait for one: those jobs step a heap, the rest stay in the
        closed form.  A heap pass over the whole cloud costs every job a
        push and a pop."""
        run_and_read(jobs, FEW_WAITS_CLOUD_WORKERS)
        calls, c_calls = counted_calls(jobs, FEW_WAITS_CLOUD_WORKERS)
        assert calls / JOBS <= CALLS_PER_JOB_CEILING, calls / JOBS
        assert c_calls / JOBS <= C_CALLS_PER_JOB_CEILING, c_calls / JOBS

    def test_memory_per_job(self, jobs):
        run_and_read(jobs)
        gc.collect()
        tracemalloc.start()
        try:
            report = run_and_read(jobs)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.cloud_tier.completed == JOBS
        assert peak / JOBS <= PEAK_BYTES_PER_JOB_CEILING, peak / JOBS
        assert kept / JOBS <= KEPT_BYTES_PER_JOB_CEILING, kept / JOBS
