"""The in-process cache key: every input of a prepared artifact moves it,
and nothing else does.

``prepare_dataset`` and ``prepare_workload`` serve the cached artifact to
any call whose key matches, and ``WorkloadBuilder`` stores each result the
pool returns under the key the parent computes.  A key that misses an
input serves a stale artifact.  A key that holds a value the build never
reads builds one artifact twice, and the serial pass would not find what a
pool configured differently built.  The first half is checked against
:func:`common._dataset_key` / :func:`common._workload_key`; the second
also by building: a workload built under any value the key leaves out
equals the one built under the default.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_tools import clear_prepared_cache
from repro.codec.gop import DEFAULT_PARAMETERS
from repro.config import HardwareCalibration, SystemConfig
from repro.experiments import ExperimentConfig, prepare_workload
from repro.experiments import common

TINY = ExperimentConfig(duration_seconds=3.0, render_scale=0.05,
                        datasets=("jackson_square",))

#: ``prepare_dataset``'s arguments, each at the value the key is taken at.
DATASET_ARGUMENTS = dict(name="jackson_square", config=TINY, split="full",
                         base_parameters=DEFAULT_PARAMETERS)

#: ``prepare_workload``'s further arguments.
WORKLOAD_ARGUMENTS = dict(DATASET_ARGUMENTS, system_config=SystemConfig(),
                          target_f1=0.95, unlabelled_sample_period_seconds=5.0)

#: One changed value of every input of the footage and its analysis pass.
DATASET_INPUTS = {
    "name": ("name", "venice"),
    "split": ("split", "test"),
    "duration_seconds": ("config", replace(TINY, duration_seconds=4.0)),
    "render_scale": ("config", replace(TINY, render_scale=0.06)),
    "gop_size": ("base_parameters", DEFAULT_PARAMETERS.with_(gop_size=120)),
    "scenecut_threshold": ("base_parameters",
                           DEFAULT_PARAMETERS.with_(scenecut_threshold=0.0)),
    "min_gop_size": ("base_parameters",
                     DEFAULT_PARAMETERS.with_(min_gop_size=5)),
    "quality": ("base_parameters", DEFAULT_PARAMETERS.with_(quality=50)),
    "block_size": ("base_parameters", DEFAULT_PARAMETERS.with_(block_size=16)),
    "search_radius": ("base_parameters",
                      DEFAULT_PARAMETERS.with_(search_radius=4)),
}

#: ... and of every further input of a workload.
WORKLOAD_INPUTS = {
    **DATASET_INPUTS,
    "nn_input_resolution": ("system_config",
                            SystemConfig(nn_input_resolution=(320, 320))),
    "target_f1": ("target_f1", 0.9),
    "unlabelled_sample_period_seconds": (
        "unlabelled_sample_period_seconds", 2.0),
}

#: One changed value of every ``SystemConfig`` field a workload build never
#: reads: the simulation, the NN and the pool read them, the codec does not.
SYSTEM_ONLY_FIELDS = {
    "edge_cloud_bandwidth_mbps": 1.0,
    "camera_edge_bandwidth_mbps": 1.0,
    "edge_cloud_latency_ms": 0.0,
    "camera_edge_latency_ms": 0.0,
    "hardware": HardwareCalibration(decode_ms_per_frame_1080p=5.0),
    "nn_batch_size": 4,
    "build_workers": 2,
    "precision": "fast",
    "seed": 7,
}


def dataset_key(**changes):
    arguments = {**DATASET_ARGUMENTS, **changes}
    return common._dataset_key(arguments["name"], arguments["config"],
                               arguments["split"],
                               arguments["base_parameters"])


def workload_key(**changes):
    arguments = {**WORKLOAD_ARGUMENTS, **changes}
    return common._workload_key(
        arguments["name"], arguments["config"], arguments["split"],
        arguments["system_config"], arguments["base_parameters"],
        arguments["target_f1"], arguments["unlabelled_sample_period_seconds"])


def workload_fingerprint(workload):
    return (workload.name, workload.num_frames, workload.semantic_bytes,
            workload.default_bytes, workload.semantic_iframe_bytes,
            tuple(workload.semantic_samples), tuple(workload.mse_samples),
            tuple(workload.uniform_samples), workload.resized_frame_bytes,
            workload.timeline, workload.nominal_resolution)


def test_the_system_table_covers_every_other_field():
    """A new ``SystemConfig`` field is either a workload input or is shown
    here to leave the workload alone."""
    fields = set(SystemConfig.__dataclass_fields__)
    assert fields == set(SYSTEM_ONLY_FIELDS) | {"nn_input_resolution"}


@pytest.mark.parametrize("field", sorted(DATASET_INPUTS))
def test_every_dataset_input_moves_the_dataset_key(field):
    argument, changed = DATASET_INPUTS[field]
    assert dataset_key(**{argument: changed}) != dataset_key()


@pytest.mark.parametrize("field", sorted(WORKLOAD_INPUTS))
def test_every_workload_input_moves_the_workload_key(field):
    argument, changed = WORKLOAD_INPUTS[field]
    assert workload_key(**{argument: changed}) != workload_key()


@pytest.mark.parametrize("field", sorted(SYSTEM_ONLY_FIELDS))
def test_system_only_fields_leave_the_workload_key_alone(field):
    changed = replace(SystemConfig(), **{field: SYSTEM_ONLY_FIELDS[field]})
    assert workload_key(system_config=changed) == workload_key()


def test_the_run_selection_leaves_both_keys_alone():
    """A clip is the same whichever other datasets the run includes."""
    other_run = replace(TINY, datasets=("venice", "jackson_square"))
    assert dataset_key(config=other_run) == dataset_key()
    assert workload_key(config=other_run) == workload_key()


@given(duration=st.integers(min_value=1, max_value=120),
       scale=st.sampled_from([0.05, 0.125, 0.5, 1.0]))
@settings(max_examples=40, deadline=None)
def test_equal_numbers_share_a_key(duration, scale):
    """An int, a float and a numpy float of one value are one input."""
    keys = {workload_key(config=ExperimentConfig(
                duration_seconds=kind(duration), render_scale=kind(scale),
                datasets=()),
            target_f1=kind(0.5), unlabelled_sample_period_seconds=kind(2))
            for kind in (float, np.float64)}
    keys.add(workload_key(config=ExperimentConfig(
        duration_seconds=int(duration), render_scale=scale, datasets=()),
        target_f1=0.5, unlabelled_sample_period_seconds=2))
    assert len(keys) == 1


@pytest.fixture(scope="module")
def default_workload():
    clear_prepared_cache()
    fingerprint = workload_fingerprint(prepare_workload("jackson_square",
                                                        TINY))
    yield fingerprint
    clear_prepared_cache()


@pytest.mark.parametrize("field", sorted(SYSTEM_ONLY_FIELDS))
def test_system_only_fields_leave_the_workload_alone(default_workload, field):
    changed = replace(SystemConfig(), **{field: SYSTEM_ONLY_FIELDS[field]})
    clear_prepared_cache()
    built = prepare_workload("jackson_square", TINY, system_config=changed)
    assert workload_fingerprint(built) == default_workload
