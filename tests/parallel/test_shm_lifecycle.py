"""Shared-memory hygiene: no segment outlives the run that created it.

Leaked POSIX shared memory persists until reboot, so every exit path —
clean runs, parent exceptions, and worker crashes that break the pool —
must leave both the transport's own registry and ``/dev/shm`` free of
``repro_shm*`` segments.
"""

import os

import pytest

from repro.faults import FaultPlan, WorkerKill
from repro.parallel import (SharedMemoryTransport, active_segment_names,
                            shm_available)
from repro.parallel.transport import SEGMENT_PREFIX

from test_fleet_scaleout import make_jobs, run_fleet

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory here")

DEV_SHM = "/dev/shm"


def shm_files():
    """``repro_shm*`` entries visible in /dev/shm (empty off-Linux)."""
    try:
        entries = os.listdir(DEV_SHM)
    except OSError:
        return []
    return sorted(name for name in entries if SEGMENT_PREFIX in name)


@pytest.fixture(autouse=True)
def assert_no_preexisting_leak():
    assert not active_segment_names()
    before = shm_files()
    yield
    assert not active_segment_names()
    assert shm_files() == before


class TestLifecycle:
    def test_clean_fleet_run_leaves_nothing(self):
        jobs = make_jobs(10)
        report = run_fleet(jobs, workers=3)
        assert report.num_cameras == len(jobs)

    def test_parent_exception_inside_context(self):
        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            with SharedMemoryTransport() as channel:
                channel.allocate({"values": ("float64", (128,))})
                assert active_segment_names()
                raise Boom()

    def test_worker_kill_broken_pool_recovery(self):
        """A worker dying mid-task breaks the pool; the parent redoes the
        lost work inline and must still tear every segment down."""
        jobs = make_jobs(10)
        report = run_fleet(
            jobs, workers=3, num_edges=4,
            faults=FaultPlan(specs=(WorkerKill(edge_index=2),)))
        reference = run_fleet(jobs, workers=1, num_edges=4)
        assert reference.parity_mismatches(report, 0.0) == []

    def test_repeated_runs_do_not_accumulate(self):
        jobs = make_jobs(6)
        for _ in range(3):
            run_fleet(jobs, workers=2)
            assert not active_segment_names()
