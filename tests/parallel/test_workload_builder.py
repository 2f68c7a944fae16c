"""Parallel workload builder: parity, byte-identity, degradation paths.

Acceptance contract (ISSUE 4): ``build_workers > 1`` must produce
byte-identical cache artifacts and value-identical workload objects to the
serial path, with results assembled deterministically by dataset order
regardless of worker scheduling; unavailable pools and unwritable cache
directories degrade to the serial path rather than failing.
"""

import hashlib

import pytest

from repro.config import SystemConfig
from repro.datasets import diskcache
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.experiments.common import clear_prepared_cache
from repro.parallel import WorkloadBuilder
from repro.parallel import workloads as workloads_module
from repro.perf import get_recorder

QUICK = ExperimentConfig(duration_seconds=6.0, render_scale=0.05,
                         datasets=("jackson_square", "coral_reef"))


def workload_fingerprint(workload):
    return (workload.name, workload.num_frames, workload.semantic_bytes,
            workload.default_bytes, workload.semantic_iframe_bytes,
            tuple(workload.semantic_samples), tuple(workload.mse_samples),
            tuple(workload.uniform_samples), workload.resized_frame_bytes,
            workload.timeline)


def dataset_fingerprint(prepared):
    import numpy as np
    return (prepared.name,
            hashlib.sha256(
                np.stack(prepared.instance.video.as_arrays()).tobytes()
            ).hexdigest(),
            tuple(prepared.activities), prepared.timeline)


@pytest.fixture()
def fresh_state():
    clear_prepared_cache()
    get_recorder().reset()
    yield
    clear_prepared_cache()
    get_recorder().reset()


def build_in(tmp_path, subdir, build_workers):
    """Cold-build the QUICK corpus in its own cache dir; return results."""
    cache = tmp_path / subdir
    with diskcache.temporary_cache_dir(cache):
        clear_prepared_cache()
        built = WorkloadBuilder(
            QUICK, build_workers=build_workers).build_workloads()
    clear_prepared_cache()
    return built, cache


class TestParallelSerialParity:
    def test_byte_identical_artifacts_and_equal_workloads(self, tmp_path,
                                                          fresh_state):
        serial, serial_cache = build_in(tmp_path, "serial", 1)
        get_recorder().reset()
        parallel, parallel_cache = build_in(tmp_path, "parallel", 2)

        assert [w.name for w in parallel] == [w.name for w in serial]
        for left, right in zip(serial, parallel):
            assert workload_fingerprint(left) == workload_fingerprint(right)

        serial_tree = diskcache.tree_digest(serial_cache)
        parallel_tree = diskcache.tree_digest(parallel_cache)
        assert sorted(serial_tree) == sorted(parallel_tree)
        assert serial_tree == parallel_tree  # byte-identical bundles
        # 2 datasets x (prepared-dataset + workload), one .npz per entry
        assert len(serial_tree) == 4

    def test_parent_process_does_not_render_in_parallel_mode(self, tmp_path,
                                                             fresh_state):
        _, _ = build_in(tmp_path, "parallel-only", 2)
        sections = get_recorder().sections
        # The renders/tunes happened in the worker processes; the parent
        # only fanned out and then assembled from the disk artifacts.
        assert "workload.parallel_warm" in sections
        assert "dataset.render" not in sections
        assert "workload.build" not in sections
        assert "workload.disk_hit" in sections

    def test_prepare_datasets_parity(self, tmp_path, fresh_state):
        with diskcache.temporary_cache_dir(tmp_path / "ds-serial"):
            clear_prepared_cache()
            serial = WorkloadBuilder(QUICK, build_workers=1).prepare_datasets()
        with diskcache.temporary_cache_dir(tmp_path / "ds-parallel"):
            clear_prepared_cache()
            parallel = WorkloadBuilder(
                QUICK, build_workers=2).prepare_datasets()
        assert list(serial) == list(QUICK.datasets)
        assert list(parallel) == list(serial)
        for name in serial:
            assert (dataset_fingerprint(serial[name])
                    == dataset_fingerprint(parallel[name]))

    def test_dataset_splits_matrix(self, tmp_path, fresh_state):
        config = ExperimentConfig(duration_seconds=6.0, render_scale=0.05,
                                  datasets=("jackson_square",))
        with diskcache.temporary_cache_dir(tmp_path / "matrix"):
            clear_prepared_cache()
            matrix = WorkloadBuilder(config, build_workers=2).\
                prepare_dataset_splits(splits=("train", "test"))
        assert set(matrix) == {("jackson_square", "train"),
                               ("jackson_square", "test")}
        # Distinct splits are distinct clips (split-derived seeds).
        assert (dataset_fingerprint(matrix[("jackson_square", "train")])
                != dataset_fingerprint(matrix[("jackson_square", "test")]))


class TestDegradationPaths:
    def test_unwritable_cache_dir_falls_back_to_recompute(self, tmp_path,
                                                          fresh_state):
        """A cache directory that is a regular file cannot hold a single
        entry: the workers' stores fail quietly, and the parent rebuilds
        everything itself — raising nothing, equal to a normal build."""
        normal, _ = build_in(tmp_path, "normal", 1)
        get_recorder().reset()
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        with diskcache.temporary_cache_dir(blocker):
            clear_prepared_cache()
            built = WorkloadBuilder(QUICK, build_workers=2).build_workloads()
        clear_prepared_cache()
        assert [workload_fingerprint(w) for w in built] == [
            workload_fingerprint(w) for w in normal]
        # No disk hand-off happened: the parent built everything itself.
        assert "workload.disk_hit" not in get_recorder().sections
        assert "workload.build" in get_recorder().sections
        assert blocker.read_bytes() == b""

    def test_unwritable_cache_dir_dataset_parity(self, tmp_path, fresh_state):
        with diskcache.temporary_cache_dir(tmp_path / "ds-normal"):
            clear_prepared_cache()
            normal = WorkloadBuilder(QUICK, build_workers=1).prepare_datasets()
        blocker = tmp_path / "ds-blocker"
        blocker.write_bytes(b"")
        with diskcache.temporary_cache_dir(blocker):
            clear_prepared_cache()
            built = WorkloadBuilder(QUICK, build_workers=2).prepare_datasets()
        clear_prepared_cache()
        assert list(built) == list(normal)
        for name in normal:
            assert (dataset_fingerprint(built[name])
                    == dataset_fingerprint(normal[name]))

    def test_broken_pool_falls_back_to_serial(self, tmp_path, fresh_state,
                                              monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pools in this sandbox")
        monkeypatch.setattr(workloads_module, "ProcessPoolExecutor",
                            broken_pool)
        with diskcache.temporary_cache_dir(tmp_path / "broken"):
            clear_prepared_cache()
            built = WorkloadBuilder(QUICK, build_workers=2).build_workloads()
        assert [w.name for w in built] == list(QUICK.datasets)
        assert "workload.build" in get_recorder().sections

    def test_single_task_skips_the_pool(self, tmp_path, fresh_state,
                                        monkeypatch):
        def exploding_pool(*args, **kwargs):
            raise AssertionError("pool must not be created for one task")
        monkeypatch.setattr(workloads_module, "ProcessPoolExecutor",
                            exploding_pool)
        config = ExperimentConfig(duration_seconds=6.0, render_scale=0.05,
                                  datasets=("jackson_square",))
        with diskcache.temporary_cache_dir(tmp_path / "single"):
            clear_prepared_cache()
            built = WorkloadBuilder(config, build_workers=8).build_workloads()
        assert [w.name for w in built] == ["jackson_square"]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadBuilder(QUICK, build_workers=-1)
        with pytest.raises(ConfigurationError):
            SystemConfig(build_workers=-1)

    def test_zero_workers_means_auto(self):
        from repro.config import available_cpu_count
        expected = available_cpu_count()
        assert WorkloadBuilder(QUICK, build_workers=0).build_workers == expected
        assert SystemConfig(build_workers=0).build_workers == expected


class TestWorkerKillRecovery:
    """ISSUE: the fault plane reaches the workload builder — a killed
    pool worker must not change a single byte of the built corpus."""

    def build_with_faults(self, tmp_path, subdir, build_workers, faults):
        cache = tmp_path / subdir
        with diskcache.temporary_cache_dir(cache):
            clear_prepared_cache()
            builder = WorkloadBuilder(QUICK, build_workers=build_workers,
                                      faults=faults)
            built = builder.build_workloads()
        clear_prepared_cache()
        return built, cache, builder

    def test_killed_worker_recovers_bit_identically(self, tmp_path,
                                                    fresh_state):
        from repro.faults import FaultPlan, WorkerKill
        serial, serial_cache = build_in(tmp_path, "serial", 1)
        get_recorder().reset()
        # The worker picking up task 0 dies hard (os._exit, no cleanup,
        # no cache write) before building anything.
        killed, killed_cache, builder = self.build_with_faults(
            tmp_path, "killed", 2,
            FaultPlan(specs=(WorkerKill(edge_index=0),)))
        assert builder.tasks_poisoned == 1
        assert [w.name for w in killed] == [w.name for w in serial]
        for left, right in zip(serial, killed):
            assert workload_fingerprint(left) == workload_fingerprint(right)
        # The artifacts the parent rebuilt are byte-identical on disk.
        assert diskcache.tree_digest(serial_cache) == (
            diskcache.tree_digest(killed_cache))

    def test_serial_path_ignores_worker_kills(self, tmp_path, fresh_state):
        from repro.faults import FaultPlan, WorkerKill
        plain, plain_cache = build_in(tmp_path, "plain", 1)
        killed, killed_cache, builder = self.build_with_faults(
            tmp_path, "serial-killed", 1,
            FaultPlan(specs=(WorkerKill(edge_index=0),)))
        # The poison is marked but never honoured in-process: the parent
        # must not os._exit itself.
        assert builder.tasks_poisoned == 1
        for left, right in zip(plain, killed):
            assert workload_fingerprint(left) == workload_fingerprint(right)
        assert diskcache.tree_digest(plain_cache) == (
            diskcache.tree_digest(killed_cache))

    def test_out_of_range_kill_index_is_a_noop(self, tmp_path, fresh_state):
        from repro.faults import FaultPlan, WorkerKill
        built, _, builder = self.build_with_faults(
            tmp_path, "oob", 2, FaultPlan(specs=(WorkerKill(edge_index=99),)))
        assert builder.tasks_poisoned == 0
        assert [w.name for w in built] == list(QUICK.datasets)

    def test_no_faults_means_no_poison(self, tmp_path, fresh_state):
        builder = WorkloadBuilder(QUICK, build_workers=1)
        assert builder.tasks_poisoned == 0
        tasks = [workloads_module.BuildTask(
            artifact=workloads_module.WORKLOAD_ARTIFACT,
            name="jackson_square", split="full", config=QUICK)]
        assert builder._poison(tasks) == tasks


class TestBuildTaskPlumbing:
    def test_system_config_supplies_the_default_worker_count(self):
        system_config = SystemConfig(build_workers=3)
        builder = WorkloadBuilder(QUICK, system_config)
        assert builder.build_workers == 3
        assert WorkloadBuilder(QUICK, system_config,
                               build_workers=1).build_workers == 1

    def test_unknown_artifact_rejected(self):
        task = workloads_module.BuildTask(
            artifact="bogus", name="jackson_square", split="full",
            config=QUICK)
        with pytest.raises(ConfigurationError):
            workloads_module.execute_build_task(task)
