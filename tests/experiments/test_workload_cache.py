"""The in-process dataset/workload cache: a repeat preparation in the same
process renders, analyses, tunes and encodes nothing, and returns what the
first one returned.  Asserted through the :mod:`repro.perf` stage
sections."""

import pytest

from cache_tools import clear_prepared_cache
from repro import SystemConfig
from repro.codec.gop import EncoderParameters
from repro.errors import ConfigurationError
from repro.experiments import (ExperimentConfig, figure3, prepare_dataset,
                               prepare_workload, table1, table2, table3)
from repro.perf import get_recorder

QUICK = ExperimentConfig(duration_seconds=8.0, render_scale=0.06,
                         datasets=("jackson_square",))

#: The stages a cache hit must not run.
HEAVY_STAGES = ("dataset.render", "dataset.analyze", "workload.build",
                "pipeline.tune", "pipeline.encode", "pipeline.mse_baseline")


@pytest.fixture()
def fresh_state():
    clear_prepared_cache()
    get_recorder().sections.clear()
    yield
    clear_prepared_cache()
    get_recorder().sections.clear()


def test_repeat_calls_return_the_same_objects(fresh_state):
    workload = prepare_workload("jackson_square", QUICK)
    dataset = prepare_dataset("jackson_square", QUICK, split="full")
    get_recorder().sections.clear()
    assert prepare_workload("jackson_square", QUICK) is workload
    assert prepare_dataset("jackson_square", QUICK, split="full") is dataset
    for stage in HEAVY_STAGES:
        assert stage not in get_recorder().sections, stage


def test_key_covers_experiment_scale(fresh_state):
    first = prepare_workload("jackson_square", QUICK)
    bigger = ExperimentConfig(duration_seconds=10.0, render_scale=0.06,
                              datasets=("jackson_square",))
    get_recorder().sections.clear()
    second = prepare_workload("jackson_square", bigger)
    assert "workload.build" in get_recorder().sections
    assert second.num_frames > first.num_frames


def test_nn_precision_shares_one_workload(fresh_state):
    """The workload is codec work, which has one numeric mode: either NN
    precision builds one workload and reads it back."""
    exact = prepare_workload("jackson_square", QUICK,
                             system_config=SystemConfig(precision="exact"))
    get_recorder().sections.clear()
    fast = prepare_workload("jackson_square", QUICK,
                            system_config=SystemConfig(precision="fast"))
    assert fast is exact
    assert "workload.build" not in get_recorder().sections


def figures_and_tables():
    """Figure 3 and Tables I-III on a tiny corpus, as comparable values.
    Wall-clock-dependent values (Table III's measured fps) are left out."""
    config = ExperimentConfig(duration_seconds=5.0, render_scale=0.05,
                              datasets=("jackson_square",))
    points = figure3.run(
        config, sieve_sweep=[EncoderParameters(gop_size=100,
                                               scenecut_threshold=0.0)],
        include_sift=False)
    table1_rows = table1.run(config, verify_synthetic=True)
    table2_rows = table2.run(config)
    table3_rows = table3.run(config, measure_wallclock=True)
    return {
        "figure3": [(p.dataset, p.method, p.sampling_fraction, p.accuracy)
                    for p in points],
        "table1": [(row["dataset"], row["synthetic_labels"],
                    row["synthetic_events"]) for row in table1_rows],
        "table2": [(row.dataset, row.semantic_parameters.describe(),
                    row.semantic_accuracy, row.semantic_sampling,
                    row.default_accuracy) for row in table2_rows],
        "table3": [(row.dataset, row.sieve_fps, row.mse_fps, row.sift_fps)
                   for row in table3_rows],
    }


def test_figures_and_tables_are_cache_pinned(fresh_state):
    """Figure 3 and Tables I-III route their footage through
    ``prepare_dataset``: a second run in the same process renders and
    analyses nothing, and reproduces every value."""
    first = figures_and_tables()
    # figure3/table2/table3's jackson_square splits (test + train) and
    # Table I's full-split corpus.
    assert get_recorder().sections["dataset.render"].calls >= 3
    get_recorder().sections.clear()
    second = figures_and_tables()
    for stage in HEAVY_STAGES:
        assert stage not in get_recorder().sections, stage
    assert second == first


class TestDatasetNames:
    """``ExperimentConfig.datasets`` holds Table I names, as a tuple."""

    def test_a_list_is_stored_as_a_tuple(self):
        config = ExperimentConfig(datasets=["venice", "taipei"])
        assert config.datasets == ("venice", "taipei")

    def test_an_empty_selection_is_allowed(self):
        assert ExperimentConfig(datasets=()).datasets == ()

    @pytest.mark.parametrize("datasets", ["venice", b"venice", 5, None,
                                          ("venice", "atlantis"), ("v",),
                                          (5,), ([1],)])
    def test_anything_else_is_refused(self, datasets):
        with pytest.raises(ConfigurationError, match="datasets"):
            ExperimentConfig(datasets=datasets)
