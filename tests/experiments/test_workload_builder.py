"""Parallel workload builder: equal to the serial build, and its fallbacks.

With ``SystemConfig.build_workers > 1`` the pool returns each built
artifact to the parent, which puts it into the in-process cache under its
key and reads the results off in dataset order.  They must equal a serial
build's.  A pool that cannot start, a killed worker and a result the pool
cannot return fall back to the serial path; one task never starts a pool.
"""

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cache_tools import clear_prepared_cache
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments import (ExperimentConfig, WorkloadBuilder,
                               prepare_dataset, prepare_workload)
from repro.experiments import common
from repro.perf import get_recorder

QUICK = ExperimentConfig(duration_seconds=6.0, render_scale=0.05,
                         datasets=("jackson_square", "coral_reef"))
SERIAL = SystemConfig()
PARALLEL = SystemConfig(build_workers=2)


def workload_fingerprint(workload):
    return (workload.name, workload.num_frames, workload.semantic_bytes,
            workload.default_bytes, workload.semantic_iframe_bytes,
            tuple(workload.semantic_samples), tuple(workload.mse_samples),
            tuple(workload.uniform_samples), workload.resized_frame_bytes,
            workload.timeline, workload.nominal_resolution)


def dataset_fingerprint(prepared):
    frames = np.stack([frame.data for frame in prepared.video])
    return (prepared.name, hashlib.sha256(frames.tobytes()).hexdigest(),
            tuple(prepared.activities), prepared.timeline,
            prepared.video.metadata, prepared.instance.profile)


@pytest.fixture()
def fresh_state():
    clear_prepared_cache()
    get_recorder().sections.clear()
    yield
    clear_prepared_cache()
    get_recorder().sections.clear()


def cold(system_config, config=QUICK):
    """A builder over an empty in-process cache and a clean recorder."""
    clear_prepared_cache()
    get_recorder().sections.clear()
    return WorkloadBuilder(config, system_config)


@pytest.fixture()
def serial_workloads(fresh_state):
    return [workload_fingerprint(workload)
            for workload in cold(SERIAL).build_workloads()]


class TestParallelSerialParity:
    def test_workloads_equal_the_serial_build(self, serial_workloads):
        parallel = cold(PARALLEL).build_workloads()
        assert [workload.name for workload in parallel] == list(QUICK.datasets)
        assert [workload_fingerprint(workload)
                for workload in parallel] == serial_workloads

    def test_the_parent_builds_nothing(self, fresh_state):
        cold(PARALLEL).build_workloads()
        sections = get_recorder().sections
        assert "workload.parallel_build" in sections
        for absent in ("dataset.render", "dataset.analyze", "workload.build"):
            assert absent not in sections, absent

    def test_returned_workloads_fill_the_cache(self, fresh_state):
        built = cold(PARALLEL).build_workloads()
        get_recorder().sections.clear()
        again = [prepare_workload(name, QUICK, system_config=PARALLEL)
                 for name in QUICK.datasets]
        assert all(left is right for left, right in zip(built, again))
        assert "workload.build" not in get_recorder().sections

    def test_datasets_equal_the_serial_build(self, fresh_state):
        serial = cold(SERIAL).prepare_datasets()
        parallel = cold(PARALLEL).prepare_datasets()
        assert list(parallel) == list(serial) == list(QUICK.datasets)
        for name in serial:
            assert (dataset_fingerprint(parallel[name])
                    == dataset_fingerprint(serial[name]))
        assert "dataset.render" not in get_recorder().sections
        assert all(prepare_dataset(name, QUICK) is parallel[name]
                   for name in QUICK.datasets)

    def test_dataset_splits_matrix(self, fresh_state):
        splits = ("train", "test")
        serial = cold(SERIAL).prepare_dataset_splits(splits=splits)
        parallel = cold(PARALLEL).prepare_dataset_splits(splits=splits)
        cells = [(name, split) for name in QUICK.datasets for split in splits]
        assert list(parallel) == list(serial) == cells
        for cell in cells:
            assert (dataset_fingerprint(parallel[cell])
                    == dataset_fingerprint(serial[cell]))
        # Distinct splits are distinct clips (split-derived seeds).
        for name in QUICK.datasets:
            assert (dataset_fingerprint(parallel[(name, "train")])
                    != dataset_fingerprint(parallel[(name, "test")]))


def _no_pool(*args, **kwargs):
    raise AssertionError("no pool may start here")


class TestDegradationPaths:
    def test_broken_pool_falls_back_to_serial(self, serial_workloads,
                                              monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pools in this sandbox")
        monkeypatch.setattr(common, "ProcessPoolExecutor", broken_pool)
        built = cold(PARALLEL).build_workloads()
        assert [workload_fingerprint(workload)
                for workload in built] == serial_workloads
        assert "workload.build" in get_recorder().sections

    def test_single_task_skips_the_pool(self, fresh_state, monkeypatch):
        monkeypatch.setattr(common, "ProcessPoolExecutor", _no_pool)
        config = ExperimentConfig(duration_seconds=6.0, render_scale=0.05,
                                  datasets=("jackson_square",))
        built = cold(SystemConfig(build_workers=8), config).build_workloads()
        assert [workload.name for workload in built] == ["jackson_square"]

    def test_cached_artifacts_are_not_sent_to_the_pool(self, serial_workloads,
                                                       monkeypatch):
        monkeypatch.setattr(common, "ProcessPoolExecutor", _no_pool)
        built = WorkloadBuilder(QUICK, PARALLEL).build_workloads()
        assert [workload_fingerprint(workload)
                for workload in built] == serial_workloads

    def test_a_result_the_pool_cannot_return_is_rebuilt(self, fresh_state,
                                                        monkeypatch):
        serial = cold(SERIAL).prepare_datasets()
        monkeypatch.setattr(common, "prepare_dataset", _unpicklable_in_worker)
        rebuilt = cold(PARALLEL).prepare_datasets()
        assert "dataset.render" in get_recorder().sections
        for name in serial:
            assert (dataset_fingerprint(rebuilt[name])
                    == dataset_fingerprint(serial[name]))


class TestWorkerCount:
    """``SystemConfig.build_workers`` is the one setting of the pool size,
    capped at the number of artifacts missing from the cache."""

    @pytest.mark.parametrize("build_workers, pool_size",
                             [(1, None), (2, 2), (3, 2)])
    def test_system_config_supplies_the_default_worker_count(
            self, fresh_state, monkeypatch, build_workers, pool_size):
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            raise OSError("recorded; the serial pass builds")
        monkeypatch.setattr(common, "ProcessPoolExecutor", recording_pool)
        tiny = ExperimentConfig(duration_seconds=2.0, render_scale=0.05,
                                datasets=QUICK.datasets)
        builder = cold(SystemConfig(build_workers=build_workers), tiny)
        built = builder.prepare_datasets()
        assert list(built) == list(QUICK.datasets)
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_invalid_worker_count_rejected(self):
        for bad in (-1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError):
                SystemConfig(build_workers=bad)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(build_workers=0)


def _unpicklable_in_worker(*arguments):
    """``prepare_dataset`` whose pool workers return a lambda instead."""
    if multiprocessing.parent_process() is not None:
        return lambda: None
    return _PREPARE_DATASET(*arguments)


#: The dataset a poisoned pool worker dies on (see ``_die_in_worker``).
POISONED = QUICK.datasets[0]


def _die_in_worker(name, *arguments):
    """``prepare_workload`` that kills its pool worker on one dataset.

    It dies the way an OOM-killed worker would: no exception and no
    result.  Only a pool worker dies; the parent's serial pass never
    does.  Module-level, so the pool can pickle it by name.
    """
    if name == POISONED and multiprocessing.parent_process() is not None:
        os._exit(17)
    return _PREPARE_WORKLOAD(name, *arguments)


_PREPARE_DATASET = common.prepare_dataset
_PREPARE_WORKLOAD = common.prepare_workload


class TestKilledWorkerRecovery:
    """A pool worker killed mid-build changes nothing in the built corpus:
    the parent's serial pass rebuilds what the dead worker lost."""

    def test_killed_worker_recovers(self, serial_workloads, monkeypatch):
        monkeypatch.setattr(common, "prepare_workload", _die_in_worker)
        killed = cold(PARALLEL).build_workloads()
        assert [workload_fingerprint(workload)
                for workload in killed] == serial_workloads
        assert "workload.build" in get_recorder().sections

    def test_the_poison_kills_a_pool_worker(self):
        """The test above proves recovery only if a worker really died."""
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_die_in_worker, POISONED, QUICK).result()
