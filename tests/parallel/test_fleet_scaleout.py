"""Fleet scale-out: transport/steal/region parity, steal replay, merges.

The contract is the same 1e-6 one the legacy parallel path pins: for any
combination of payload transport, work stealing and replay regions, the
scale-out fleet produces a report with no parity mismatches against the
single-process reference.  On top of that the steal log must be a dense,
replayable record of who simulated what, and the hierarchical region
merge must reproduce the flat tie-chain sort exactly.
"""

import json

import numpy as np
import pytest

from repro.cluster.fleet import CameraJob, FleetOrchestrator
from repro.config import (TRANSPORT_PICKLE, TRANSPORT_SHM, SystemConfig)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, WorkerKill
from repro.parallel import (StealLog, hierarchical_replay_order,
                            shm_available, stealing_available)
from repro.parallel.stealing import ClaimBoard, fcntl

TOLERANCE = 1e-6

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared memory here")
needs_steal = pytest.mark.skipif(not stealing_available(),
                                 reason="no advisory file locks here")


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


def scale_config(transport=TRANSPORT_PICKLE, stealing=False, regions=1):
    return SystemConfig(fleet_transport=transport, fleet_stealing=stealing,
                        fleet_regions=regions)


def run_fleet(jobs, *, workers=1, config=None, num_edges=5,
              policy="least-loaded", jitter=1.0, seed=7, replay=None):
    orchestrator = FleetOrchestrator(
        jobs, num_edge_servers=num_edges, policy=policy,
        arrival_jitter_seconds=jitter, seed=seed, fleet_workers=workers,
        config=config if config is not None else SystemConfig())
    if replay is not None:
        orchestrator.replay_steal_log = replay
    return orchestrator, orchestrator.run()


def assert_reports_equal(reference, candidate):
    assert reference.parity_mismatches(candidate, TOLERANCE) == []


class TestScaleOutParity:
    @pytest.mark.parametrize("transport", [TRANSPORT_PICKLE,
                                           pytest.param(TRANSPORT_SHM,
                                                        marks=needs_shm)])
    @pytest.mark.parametrize("stealing", [False,
                                          pytest.param(True,
                                                       marks=needs_steal)])
    @pytest.mark.parametrize("regions", [1, 2, 0])
    def test_matrix_matches_single_process(self, transport, stealing,
                                           regions):
        jobs = make_jobs(14)
        config = scale_config(transport, stealing, regions)
        _, serial = run_fleet(jobs, workers=1, config=config)
        _, parallel = run_fleet(jobs, workers=3, config=config)
        assert_reports_equal(serial, parallel)

    @needs_shm
    def test_homogeneous_jobs_force_ties(self):
        """Identical jobs + zero jitter: every tie-break level is exercised."""
        jobs = make_jobs(12, heterogeneous=False)
        config = scale_config(TRANSPORT_SHM, stealing_available(), regions=3)
        _, serial = run_fleet(jobs, workers=1, config=config, jitter=0.0,
                              policy="round-robin")
        _, parallel = run_fleet(jobs, workers=3, config=config, jitter=0.0,
                                policy="round-robin")
        assert_reports_equal(serial, parallel)

    def test_single_worker_scaleout_path(self):
        """workers such that the shard runs inline (no pool) still agree."""
        jobs = make_jobs(9)
        config = scale_config(TRANSPORT_PICKLE, False, regions=2)
        _, serial = run_fleet(jobs, workers=1, config=SystemConfig())
        # regions > 1 routes through the scale-out path even on pickle.
        _, parallel = run_fleet(jobs, workers=2, config=config)
        assert_reports_equal(serial, parallel)


@needs_steal
class TestClaimBoard:
    def test_cursor_reaches_the_file_before_the_lock_is_released(
            self, tmp_path, monkeypatch):
        """A claim whose buffered cursor write is flushed only after the
        unlock lets the next claimant read the old cursor: one position
        goes out twice and the run loses its steal log."""
        board = ClaimBoard.create(3, directory=str(tmp_path))
        on_disk_at_unlock = []
        real_flock = fcntl.flock

        def flock(descriptor, operation):
            if operation == fcntl.LOCK_UN:
                with open(board.path, "rb") as reader:
                    on_disk_at_unlock.append(
                        int.from_bytes(reader.read(8), "little"))
            return real_flock(descriptor, operation)

        monkeypatch.setattr(fcntl, "flock", flock)
        assert [board.claim_next() for _ in range(4)] == [0, 1, 2, None]
        assert on_disk_at_unlock == [1, 2, 3, 3]


@needs_steal
class TestStealLog:
    def _steal_run(self, jobs, **kwargs):
        config = scale_config(TRANSPORT_PICKLE, stealing=True)
        orchestrator, report = run_fleet(jobs, workers=3, config=config,
                                         **kwargs)
        log = orchestrator.last_steal_log
        assert log is not None
        return report, log

    def test_log_is_dense_and_covers_every_edge(self):
        jobs = make_jobs(13)
        _, log = self._steal_run(jobs)
        sequences = sorted(record.claim_seq for record in log.records)
        assert sequences == list(range(len(log.records)))
        claimed_edges = sorted(record.edge_index for record in log.records)
        assert claimed_edges == list(range(5))
        assert all(0 <= record.worker_slot < log.num_workers
                   for record in log.records)

    def test_json_round_trip(self):
        _, log = self._steal_run(make_jobs(11))
        clone = StealLog.from_json(log.to_json())
        assert clone == log
        assert json.loads(log.to_json())["num_workers"] == log.num_workers

    def test_replay_reproduces_report_and_echoes_log(self):
        jobs = make_jobs(13)
        recorded_report, log = self._steal_run(jobs)
        config = scale_config(TRANSPORT_PICKLE, stealing=True)
        replayer, replayed = run_fleet(jobs, workers=3, config=config,
                                       replay=StealLog.from_json(log.to_json()))
        assert_reports_equal(recorded_report, replayed)
        assert replayer.last_steal_log == log

    def test_replay_is_deterministic_without_locks(self):
        """A replayed assignment never touches the claim board, so two
        replays of the same log are identical run to run."""
        jobs = make_jobs(10)
        _, log = self._steal_run(jobs)
        config = scale_config(TRANSPORT_PICKLE, stealing=True)
        first, _ = run_fleet(jobs, workers=3, config=config, replay=log)
        second, _ = run_fleet(jobs, workers=3, config=config, replay=log)
        assert first.last_steal_log == second.last_steal_log == log


class TestHierarchicalReplayOrder:
    def _chain_sort(self, wan, edge, lan, offsets):
        return sorted(range(len(wan)),
                      key=lambda i: (wan[i], edge[i], lan[i], offsets[i], i))

    def _columns(self, count, ties=False):
        # Deterministic pseudo-data; with ties=True whole chains collide.
        base = np.arange(count, dtype=np.float64)
        if ties:
            wan = np.repeat(5.0, count)
            edge = (base % 3).astype(np.float64)
            lan = np.repeat(1.0, count)
            offsets = (base % 2).astype(np.float64)
        else:
            wan = (base * 7.3) % 11.0
            edge = (base * 3.1) % 5.0
            lan = (base * 1.7) % 3.0
            offsets = base * 0.25
        return wan, edge, lan, offsets

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("regions", [1, 2, 3, 6])
    def test_equals_flat_sort(self, ties, regions):
        count, num_edges = 24, 6
        wan, edge, lan, offsets = self._columns(count, ties)
        job_edges = [index % num_edges for index in range(count)]
        order = hierarchical_replay_order(job_edges, wan, edge, lan, offsets,
                                          num_edges, regions)
        assert order == self._chain_sort(wan, edge, lan, offsets)

    def test_region_count_is_clamped(self):
        wan, edge, lan, offsets = self._columns(8)
        job_edges = [index % 4 for index in range(8)]
        flat = self._chain_sort(wan, edge, lan, offsets)
        # More regions than edges, and zero/negative regions, both clamp.
        for regions in (99, 0, -3):
            assert hierarchical_replay_order(
                job_edges, wan, edge, lan, offsets, 4, regions) == flat

    def test_empty_input(self):
        empty = np.array([], dtype=np.float64)
        assert hierarchical_replay_order([], empty, empty, empty, empty,
                                         4, 2) == []


class TestFaultRecoveryParity:
    @pytest.mark.parametrize("transport", [TRANSPORT_PICKLE,
                                           pytest.param(TRANSPORT_SHM,
                                                        marks=needs_shm)])
    @pytest.mark.parametrize("stealing", [False,
                                          pytest.param(True,
                                                       marks=needs_steal)])
    def test_worker_kill_recovers_bit_identical(self, transport, stealing):
        jobs = make_jobs(12)
        _, serial = run_fleet(jobs, workers=1, config=SystemConfig())
        config = scale_config(transport, stealing, regions=2)
        orchestrator = FleetOrchestrator(
            jobs, num_edge_servers=5, policy="least-loaded",
            arrival_jitter_seconds=1.0, seed=7, fleet_workers=3,
            config=config, faults=FaultPlan(specs=(WorkerKill(edge_index=1),)))
        recovered = orchestrator.run()
        assert_reports_equal(serial, recovered)


class TestConfigValidation:
    def test_bad_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(fleet_transport="smoke-signals")

    def test_negative_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(fleet_regions=-1)

    def test_auto_knobs_accepted(self):
        config = SystemConfig(fleet_transport="auto", fleet_regions=0,
                              fleet_stealing=True)
        assert config.fleet_regions == 0
