"""The sharded fleet: exact parity on either transport, recovery, ordering.

There is one way a sharded fleet runs, so the contract is one sentence:
for any worker count and placement policy, on shared memory or on the
pickle fallback, with ties, with arrival jitter and after a worker kill,
the report has no parity mismatch against the single-process reference at
tolerance **0.0**.  On top of that the cloud replay's one ``np.lexsort``
must reproduce the flat tie-chain sort it replaced, which lives here as
its oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.faults import FaultPlan, WorkerKill
from repro.parallel import fleet as fleet_module
from repro.parallel import pick_transport, replay_order, shm_available
from repro.parallel import transport as transport_module

TRANSPORTS = ("shm", "pickle")


def make_jobs(count, heterogeneous=True):
    """A small fleet of jobs (optionally all identical to force float ties)."""
    jobs = []
    for index in range(count):
        spread = (index % 5) if heterogeneous else 0
        jobs.append(CameraJob(
            camera=f"cam-{index:02d}", video=f"video-{spread}",
            num_frames=300 + spread * 30, frames_for_inference=12 + spread,
            edge_seconds=0.7 + spread * 0.13, cloud_seconds=0.4 + spread * 0.05,
            camera_edge_bytes=800_000 + spread * 1013,
            edge_cloud_bytes=250_000 + spread * 577))
    return jobs


@pytest.fixture(params=TRANSPORTS)
def transport_kind(request, monkeypatch):
    """Run the test once per transport.

    Nothing selects a transport but the platform, so the pickle leg makes
    the platform say no: ``pick_transport`` asks ``shm_available``.
    """
    if request.param == "pickle":
        monkeypatch.setattr(transport_module, "shm_available", lambda: False)
    elif not shm_available():
        pytest.skip("no shared memory here")
    assert pick_transport().kind == request.param
    return request.param


def run_fleet(jobs, *, workers=1, num_edges=5, policy="least-loaded",
              jitter=1.0, seed=7, faults=None):
    return FleetOrchestrator(
        jobs, num_edge_servers=num_edges, policy=policy,
        arrival_jitter_seconds=jitter, seed=seed, fleet_workers=workers,
        faults=faults).run()


def assert_reports_identical(reference, candidate):
    assert reference.parity_mismatches(candidate, 0.0) == []


class TestShardedParity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "bandwidth-aware"])
    def test_matches_single_process(self, transport_kind, workers, policy):
        jobs = make_jobs(14)
        reference = run_fleet(jobs, workers=1, policy=policy)
        assert_reports_identical(
            reference, run_fleet(jobs, workers=workers, policy=policy))

    def test_homogeneous_jobs_force_ties(self, transport_kind):
        """Identical jobs + zero jitter: every tie-break level is exercised."""
        jobs = make_jobs(12, heterogeneous=False)
        reference = run_fleet(jobs, workers=1, jitter=0.0,
                              policy="round-robin")
        assert_reports_identical(
            reference, run_fleet(jobs, workers=3, jitter=0.0,
                                 policy="round-robin"))

    def test_single_shard_runs_inline(self, transport_kind, monkeypatch):
        """One busy edge is one shard: no pool is started for it."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a single shard must not start a pool")

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor", no_pool)
        jobs = make_jobs(9)
        reference = run_fleet(jobs, workers=1, num_edges=1)
        assert_reports_identical(
            reference, run_fleet(jobs, workers=2, num_edges=1))

    def test_forbidden_pool_falls_back_inline(self, transport_kind,
                                              monkeypatch):
        def forbidden(*args, **kwargs):
            raise PermissionError("fork is not allowed here")

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor", forbidden)
        jobs = make_jobs(9)
        assert_reports_identical(run_fleet(jobs, workers=1),
                                 run_fleet(jobs, workers=3))


class TestFaultRecoveryParity:
    def test_worker_kill_recovers_bit_identical(self, transport_kind):
        jobs = make_jobs(12)
        reference = run_fleet(jobs, workers=1)
        recovered = run_fleet(
            jobs, workers=3,
            faults=FaultPlan(specs=(WorkerKill(edge_index=1),)))
        assert_reports_identical(reference, recovered)


def flat_chain_sort(wan, edge, lan, offsets):
    """The Python tuple sort ``replay_order``'s lexsort replaced: the tie
    chain with the job index as the last key."""
    return sorted(range(len(wan)),
                  key=lambda i: (wan[i], edge[i], lan[i], offsets[i], i))


#: Few distinct values per column, so whole tie chains collide.
tie_prone = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2 ** -52, 3.25])


class TestReplayOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(tie_prone, tie_prone, tie_prone, tie_prone),
                    max_size=40))
    def test_equals_flat_sort_under_ties(self, chains):
        wan, edge, lan, offsets = (
            np.array(column, dtype=np.float64)
            for column in (zip(*chains) if chains else ((), (), (), ())))
        assert replay_order(wan, edge, lan, offsets).tolist() == \
            flat_chain_sort(wan, edge, lan, offsets)

    def test_distinct_chains(self):
        base = np.arange(24, dtype=np.float64)
        columns = ((base * 7.3) % 11.0, (base * 3.1) % 5.0,
                   (base * 1.7) % 3.0, base * 0.25)
        assert replay_order(*columns).tolist() == flat_chain_sort(*columns)
