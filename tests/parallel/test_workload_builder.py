"""Parallel workload builder: parity, byte-identity, degradation paths.

Acceptance contract (ISSUE 4): ``build_workers > 1`` must produce
byte-identical cache artifacts and value-identical workload objects to the
serial path, with results assembled deterministically by dataset order
regardless of worker scheduling; unavailable pools and unwritable cache
directories degrade to the serial path rather than failing.
"""

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import SystemConfig
from cache_tools import clear_prepared_cache, tree_digest
from repro.datasets import diskcache
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
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
    get_recorder().sections.clear()
    yield
    clear_prepared_cache()
    get_recorder().sections.clear()


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
        get_recorder().sections.clear()
        parallel, parallel_cache = build_in(tmp_path, "parallel", 2)

        assert [w.name for w in parallel] == [w.name for w in serial]
        for left, right in zip(serial, parallel):
            assert workload_fingerprint(left) == workload_fingerprint(right)

        serial_tree = tree_digest(serial_cache)
        parallel_tree = tree_digest(parallel_cache)
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
        get_recorder().sections.clear()
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

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadBuilder(QUICK, build_workers=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(build_workers=0)


#: The task a poisoned pool worker dies on (see ``_die_in_worker``).
POISONED_TASK = QUICK.datasets[0]


def _die_in_worker(task):
    """A build task function that kills its pool worker on one task.

    It dies the way an OOM-killed worker would: no exception, no cleanup,
    no cache write.  Only a pool worker dies; the parent's assembly pass
    never calls it.  Module-level, so the pool can pickle it by name.
    """
    if (task.name == POISONED_TASK
            and multiprocessing.parent_process() is not None):
        os._exit(17)
    return _EXECUTE_BUILD_TASK(task)


_EXECUTE_BUILD_TASK = workloads_module.execute_build_task


class TestKilledWorkerRecovery:
    """A pool worker killed mid-build must not change a single byte of the
    built corpus: ``_warm`` collects each future on its own, and the
    parent's serial assembly pass rebuilds what the dead worker lost."""

    def test_killed_worker_recovers_bit_identically(self, tmp_path,
                                                    fresh_state,
                                                    monkeypatch):
        serial, serial_cache = build_in(tmp_path, "serial", 1)
        get_recorder().sections.clear()
        monkeypatch.setattr(workloads_module, "execute_build_task",
                            _die_in_worker)
        killed, killed_cache = build_in(tmp_path, "killed", 2)
        assert [w.name for w in killed] == [w.name for w in serial]
        for left, right in zip(serial, killed):
            assert workload_fingerprint(left) == workload_fingerprint(right)
        # The artifacts the parent rebuilt are byte-identical on disk.
        assert tree_digest(serial_cache) == (
            tree_digest(killed_cache))

    def test_the_poison_kills_a_pool_worker(self):
        """The test above proves recovery only if a worker really died."""
        task = workloads_module.BuildTask(
            artifact=workloads_module.WORKLOAD_ARTIFACT, name=POISONED_TASK,
            split="full", config=QUICK)
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_die_in_worker, task).result()


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
