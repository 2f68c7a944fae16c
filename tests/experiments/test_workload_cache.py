"""Two-level dataset/workload cache: warm sessions skip every render.

Acceptance contract: a second Python session pointed at a warm
``REPRO_CACHE_DIR`` rebuilds its prepared datasets and workloads entirely
from disk — asserted through the :mod:`repro.perf` stage sections
(``dataset.render`` must not fire on the warm pass) — and produces
identical values.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cache_tools import (CacheCorruption, apply_cache_corruption,
                         clear_prepared_cache, list_keys)
from repro import SystemConfig
from repro.datasets import diskcache
from repro.experiments import ExperimentConfig, prepare_dataset, prepare_workload
from repro.experiments.common import DATASET_CACHE_KIND, WORKLOAD_CACHE_KIND
from repro.perf import get_recorder

QUICK = ExperimentConfig(duration_seconds=8.0, render_scale=0.06,
                         datasets=("jackson_square",))


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    clear_prepared_cache()
    get_recorder().sections.clear()
    yield tmp_path
    clear_prepared_cache()
    get_recorder().sections.clear()


def workload_fingerprint(workload):
    return (workload.name, workload.num_frames, workload.semantic_bytes,
            workload.default_bytes, workload.semantic_iframe_bytes,
            list(workload.semantic_samples), list(workload.mse_samples),
            list(workload.uniform_samples), workload.resized_frame_bytes)


class TestPreparedDatasetDiskCache:
    def test_disk_hit_reproduces_the_cold_result(self, cache_dir):
        cold = prepare_dataset("jackson_square", QUICK)
        sections = get_recorder().sections
        assert "dataset.render" in sections
        assert "dataset.disk_hit" not in sections

        # A fresh "session": the in-process layer is empty, the disk warm.
        clear_prepared_cache()
        get_recorder().sections.clear()
        warm = prepare_dataset("jackson_square", QUICK)
        sections = get_recorder().sections
        assert "dataset.render" not in sections
        assert "dataset.disk_hit" in sections
        assert np.array_equal(np.stack(cold.instance.video.as_arrays()),
                              np.stack(warm.instance.video.as_arrays()))
        assert cold.activities == warm.activities
        assert cold.timeline == warm.timeline
        assert cold.instance.video.metadata == warm.instance.video.metadata
        assert cold.instance.profile == warm.instance.profile

    def test_a_bundle_with_six_activity_arrays_still_loads(self, cache_dir):
        """Bundles written while an activity also carried its inter cost,
        intra cost and moving-block fraction hold three more arrays: they
        are a hit, and the extra arrays are ignored."""
        cold = prepare_dataset("jackson_square", QUICK)
        (key,) = list_keys(DATASET_CACHE_KIND)
        arrays, manifest = diskcache.load(DATASET_CACHE_KIND, key)
        assert sorted(name for name in arrays if name.startswith("activity_")) == [
            "activity_frame_index", "activity_is_first", "activity_novel"]
        frames = len(cold.activities)
        for name in ("activity_inter_cost", "activity_intra_cost",
                     "activity_moving"):
            arrays[name] = np.full(frames, 7.0)
        diskcache.store(DATASET_CACHE_KIND, key, arrays, manifest)
        clear_prepared_cache()
        get_recorder().sections.clear()
        warm = prepare_dataset("jackson_square", QUICK)
        sections = get_recorder().sections
        assert "dataset.render" not in sections
        assert "dataset.disk_hit" in sections
        assert warm.activities == cold.activities

    def test_corrupted_dataset_artifact_falls_back_to_render(self, cache_dir):
        prepare_dataset("jackson_square", QUICK)
        for key in list_keys(DATASET_CACHE_KIND):
            with open(diskcache.artifact_path(DATASET_CACHE_KIND, key),
                      "wb") as handle:
                handle.write(b"garbage")
        clear_prepared_cache()
        get_recorder().sections.clear()
        prepared = prepare_dataset("jackson_square", QUICK)
        assert "dataset.render" in get_recorder().sections
        assert prepared.timeline is not None



class TestUnwritableCacheDir:
    """The one "cache cannot help" path: ``REPRO_CACHE_DIR`` names a regular
    file, so no entry can ever be stored.  Every call must still succeed,
    recompute, and return what a run with a working cache returns."""

    @pytest.fixture()
    def blocker(self, cache_dir, monkeypatch):
        """Point the cache at a regular file (after the test's normal run)."""
        path = cache_dir / "not-a-directory"
        path.write_bytes(b"")

        def block():
            monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(path))
        yield block
        assert path.read_bytes() == b""

    def test_prepare_dataset_recomputes(self, blocker):
        dataset = prepare_dataset("jackson_square", QUICK)
        blocker()
        for _ in range(2):  # the second pass finds nothing on disk either
            clear_prepared_cache()
            get_recorder().sections.clear()
            again = prepare_dataset("jackson_square", QUICK)
            assert "dataset.render" in get_recorder().sections
            assert "dataset.disk_hit" not in get_recorder().sections
            assert np.array_equal(np.stack(dataset.instance.video.as_arrays()),
                                  np.stack(again.instance.video.as_arrays()))
            assert dataset.activities == again.activities
            assert dataset.timeline == again.timeline

    def test_prepare_workload_recomputes(self, blocker):
        workload = prepare_workload("jackson_square", QUICK)
        blocker()
        for _ in range(2):
            clear_prepared_cache()
            get_recorder().sections.clear()
            rebuilt = prepare_workload("jackson_square", QUICK)
            sections = get_recorder().sections
            assert "workload.build" in sections
            assert "workload.disk_hit" not in sections
            assert workload_fingerprint(workload) == workload_fingerprint(
                rebuilt)
            assert workload.timeline == rebuilt.timeline


class TestWorkloadDiskCache:
    def test_warm_hit_skips_build_and_matches(self, cache_dir):
        cold = prepare_workload("jackson_square", QUICK)
        assert "workload.build" in get_recorder().sections

        clear_prepared_cache()
        get_recorder().sections.clear()
        warm = prepare_workload("jackson_square", QUICK)
        sections = get_recorder().sections
        assert "workload.disk_hit" in sections
        # The warm hit touches neither the footage nor the tuner/encoder.
        for absent in ("dataset.render", "dataset.analyze", "workload.build",
                       "pipeline.tune", "pipeline.encode"):
            assert absent not in sections, absent
        assert workload_fingerprint(cold) == workload_fingerprint(warm)
        assert cold.timeline == warm.timeline
        assert cold.nominal_resolution == warm.nominal_resolution

    def test_truncated_workload_artifact_rebuilds(self, cache_dir):
        cold = prepare_workload("jackson_square", QUICK)
        (key,) = list_keys(WORKLOAD_CACHE_KIND)
        apply_cache_corruption(CacheCorruption(
            kind=WORKLOAD_CACHE_KIND, key=key, mode="truncate-bundle"))
        clear_prepared_cache()
        get_recorder().sections.clear()
        rebuilt = prepare_workload("jackson_square", QUICK)
        # The bad bundle was a miss; the footage came from the (intact)
        # dataset entry and the workload was rebuilt and stored again.
        sections = get_recorder().sections
        assert "workload.build" in sections
        assert "dataset.disk_hit" in sections
        assert "dataset.render" not in sections
        assert workload_fingerprint(rebuilt) == workload_fingerprint(cold)
        assert diskcache.load(WORKLOAD_CACHE_KIND, key) is not None

    def test_torn_write_is_a_miss_then_rebuilt(self, cache_dir):
        cold = prepare_workload("jackson_square", QUICK)
        (key,) = list_keys(WORKLOAD_CACHE_KIND)
        # The writer died between its temp write and the rename: the entry
        # is absent and only a stray temp file sits where it would live.
        diskcache.evict(WORKLOAD_CACHE_KIND, key)
        torn = apply_cache_corruption(CacheCorruption(
            kind=WORKLOAD_CACHE_KIND, key=key, mode="torn-write"))
        for expected in ("workload.build", "workload.disk_hit"):
            clear_prepared_cache()
            get_recorder().sections.clear()
            again = prepare_workload("jackson_square", QUICK)
            assert expected in get_recorder().sections
            assert workload_fingerprint(again) == workload_fingerprint(cold)
        assert os.path.exists(torn)
        assert list(list_keys(WORKLOAD_CACHE_KIND)) == [key]

    def test_in_process_layer_serves_repeat_calls(self, cache_dir):
        first = prepare_workload("jackson_square", QUICK)
        assert prepare_workload("jackson_square", QUICK) is first

    def test_key_covers_experiment_scale(self, cache_dir):
        prepare_workload("jackson_square", QUICK)
        bigger = ExperimentConfig(duration_seconds=10.0, render_scale=0.06,
                                  datasets=("jackson_square",))
        clear_prepared_cache()
        get_recorder().sections.clear()
        prepare_workload("jackson_square", bigger)
        # Different scale -> different key -> a real rebuild.
        assert "workload.build" in get_recorder().sections
        assert len(list(list_keys(WORKLOAD_CACHE_KIND))) == 2


#: One self-contained "pytest session": prepares the Figure 4 workload of
#: a quick config and dumps the perf stage sections plus a result
#: fingerprint as JSON on stdout.
_SESSION_SCRIPT = """
import json
import sys

sys.path.insert(0, {src!r})
from repro.experiments import ExperimentConfig, prepare_workload
from repro.perf import get_recorder

config = ExperimentConfig(duration_seconds=8.0, render_scale=0.06,
                          datasets=("jackson_square",))
workload = prepare_workload("jackson_square", config)
summary = get_recorder().summary()
print(json.dumps({{
    "sections": sorted(summary),
    "stage_seconds": {{name: stats["total_seconds"]
                       for name, stats in summary.items()}},
    "fingerprint": [workload.name, workload.num_frames,
                    workload.semantic_bytes, workload.default_bytes,
                    list(workload.semantic_samples),
                    list(workload.mse_samples),
                    list(workload.uniform_samples)],
}}))
"""


#: One self-contained session running Figure 3 and Tables I-III at a tiny
#: scale; dumps the perf stage sections (call counts) plus a value
#: fingerprint as JSON on stdout.  Wall-clock-dependent values (Table III's
#: measured fps) are deliberately excluded from the fingerprint.
_FIGURES_TABLES_SCRIPT = """
import json
import sys

sys.path.insert(0, {src!r})
from repro.codec.gop import EncoderParameters
from repro.experiments import (ExperimentConfig, figure3, table1, table2,
                               table3)
from repro.perf import get_recorder

config = ExperimentConfig(duration_seconds=5.0, render_scale=0.05,
                          datasets=("jackson_square",))
points = figure3.run(
    config, sieve_sweep=[EncoderParameters(gop_size=100,
                                           scenecut_threshold=0.0)],
    include_sift=False)
table1_rows = table1.run(config, verify_synthetic=True)
table2_rows = table2.run(config)
table3_rows = table3.run(config, measure_wallclock=True)
summary = get_recorder().summary()
print(json.dumps({{
    "sections": {{name: stats["calls"] for name, stats in summary.items()}},
    "fingerprint": {{
        "figure3": [[p.dataset, p.method, p.sampling_fraction, p.accuracy]
                    for p in points],
        "table1": [[row["dataset"], row["synthetic_labels"],
                    row["synthetic_events"]] for row in table1_rows],
        "table2": [[row.dataset, row.semantic_parameters.describe(),
                    row.semantic_accuracy, row.semantic_sampling,
                    row.default_accuracy] for row in table2_rows],
        "table3": [[row.dataset, row.sieve_fps, row.mse_fps, row.sift_fps]
                   for row in table3_rows],
    }},
}}))
"""


class TestFiguresAndTablesSecondSessionWarm:
    def test_figure3_and_tables_are_cache_pinned(self, cache_dir):
        """Figure 3 and Tables I-III all route their footage through
        ``prepare_dataset``/``prepare_workload`` now: a second interpreter
        session with a warm ``REPRO_CACHE_DIR`` must reproduce every value
        without rendering, analyzing, tuning or building anything."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        script = _FIGURES_TABLES_SCRIPT.format(src=src)
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))

        def run_session():
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    timeout=600)
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        first = run_session()
        # The cold session rendered at least figure3/table2/table3's
        # jackson_square splits (test + train) and Table I's full-split
        # corpus, sharing every overlapping (name, split) preparation.
        assert first["sections"].get("dataset.render", 0) >= 3

        second = run_session()
        for heavy_stage in ("dataset.render", "dataset.analyze",
                            "workload.build", "pipeline.tune",
                            "pipeline.encode", "pipeline.mse_baseline"):
            assert heavy_stage not in second["sections"], heavy_stage
        assert second["sections"].get("dataset.disk_hit", 0) >= 3
        assert second["fingerprint"] == first["fingerprint"]


class TestSecondSessionIsWarm:
    def test_second_python_session_skips_all_renders(self, cache_dir):
        """Two real interpreter sessions sharing one ``REPRO_CACHE_DIR``:
        the second must not render, analyze, tune or encode anything."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        script = _SESSION_SCRIPT.format(src=src)
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))

        def run_session():
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    timeout=300)
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        first = run_session()
        assert "dataset.render" in first["sections"]
        second = run_session()
        for heavy_stage in ("dataset.render", "dataset.analyze",
                            "workload.build", "pipeline.tune",
                            "pipeline.encode", "pipeline.mse_baseline"):
            assert heavy_stage not in second["sections"], heavy_stage
        assert "workload.disk_hit" in second["sections"]
        assert second["fingerprint"] == first["fingerprint"]
        # The warm session's cache path is much cheaper than the cold
        # stages it replaced (conservative factor; typically ~100x).
        cold_seconds = sum(first["stage_seconds"].values())
        warm_seconds = sum(second["stage_seconds"].values())
        assert warm_seconds < cold_seconds


def test_nn_precision_shares_the_codec_artifacts(cache_dir):
    """The workload is codec work, which has one numeric mode: either NN
    precision builds one artifact and reads it back."""
    exact = prepare_workload("jackson_square", QUICK,
                             system_config=SystemConfig(precision="exact"))
    clear_prepared_cache()
    get_recorder().sections.clear()
    fast = prepare_workload("jackson_square", QUICK,
                            system_config=SystemConfig(precision="fast"))
    assert "workload.disk_hit" in get_recorder().sections
    assert workload_fingerprint(fast) == workload_fingerprint(exact)
    assert len(list_keys(WORKLOAD_CACHE_KIND)) == 1
    assert len(list_keys(DATASET_CACHE_KIND)) == 1
