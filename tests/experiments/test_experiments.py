"""Tests for the experiment harnesses (quick configurations)."""

import pytest

from repro.core import ALL_DEPLOYMENT_MODES, DeploymentMode
from repro.errors import ConfigurationError
from repro.experiments import (ExperimentConfig, figure3, figure4, figure5, table1,
                               table2, table3, format_table, prepare_dataset)


#: A fast configuration for the harness tests.
QUICK = ExperimentConfig(duration_seconds=20.0, render_scale=0.08,
                         datasets=("jackson_square",))


@pytest.fixture(scope="module")
def quick_config():
    return QUICK


@pytest.fixture(scope="module")
def quick_prepared(quick_config):
    return {"jackson_square": prepare_dataset("jackson_square", quick_config)}


class TestCommon:
    def test_quick_config(self, quick_config):
        assert quick_config.duration_seconds < ExperimentConfig().duration_seconds
        assert quick_config.datasets == ("jackson_square",)

    @pytest.mark.parametrize("name", ["duration_seconds", "render_scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"),
                                       "x", None, True])
    def test_footage_scale_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ExperimentConfig(**{name: value})

    def test_format_table(self):
        text = format_table([{"a": 1.23456, "b": "x"}], ["a", "b"], title="T")
        assert text.startswith("T")
        assert "1.235" in text and "x" in text

    def test_prepare_dataset_caches_analysis(self, quick_prepared):
        prepared = quick_prepared["jackson_square"]
        assert len(prepared.activities) == prepared.video.metadata.num_frames
        assert prepared.timeline is not None


class TestTable1:
    def test_rows_match_registry(self):
        rows = table1.run()
        assert len(rows) == 5
        assert {row["dataset"] for row in rows} == {
            "jackson_square", "coral_reef", "venice", "taipei", "amsterdam"}
        assert "Table I" in table1.render(rows)

    def test_verified_rows(self, quick_config):
        rows = table1.run(quick_config, verify_synthetic=True)
        jackson = next(row for row in rows if row["dataset"] == "jackson_square")
        assert jackson["synthetic_events"] >= 1


class TestFigure3:
    def test_points_and_summary(self, quick_config, quick_prepared):
        points = figure3.run(quick_config, include_sift=False, prepared=quick_prepared)
        methods = {point.method for point in points}
        assert methods == {"sieve", "mse"}
        assert all(0.0 <= point.accuracy <= 1.0 for point in points)
        assert all(0.0 < point.sampling_fraction <= 1.0 for point in points)
        summary = figure3.summarize(points)
        assert "jackson_square" in summary
        assert set(summary["jackson_square"]) == methods
        text = figure3.render(points)
        assert "Figure 3" in text


class TestTable2:
    def test_semantic_beats_default_f1(self, quick_config):
        rows = table2.run(quick_config)
        assert len(rows) == 1
        row = rows[0]
        assert row.semantic_f1 >= row.default_f1
        assert row.semantic_accuracy >= row.default_accuracy
        assert 0 < row.semantic_sampling < 0.5
        assert "Table II" in table2.render(rows)


class TestTable3:
    def test_simulated_speeds_match_paper_shape(self):
        rows = table3.run(ExperimentConfig(datasets=("jackson_square", "coral_reef",
                                                     "venice")))
        by_name = {row.dataset: row for row in rows}
        # SiEVE is two orders of magnitude faster than the decode-based filters.
        for row in rows:
            assert row.sieve_speedup_vs_mse > 50
            assert row.sieve_speedup_vs_sift > 80
        # Lower resolution -> higher fps, as in Table III.
        assert by_name["jackson_square"].sieve_fps > by_name["coral_reef"].sieve_fps
        assert by_name["coral_reef"].sieve_fps > by_name["venice"].sieve_fps
        assert "Table III" in table3.render(rows)


class TestFigures4And5:
    @pytest.fixture(scope="class")
    def workloads(self):
        return figure4.build_workloads(QUICK,
                                       dataset_names=("jackson_square", "coral_reef"))

    def test_figure4_counts_and_values(self, workloads):
        results = figure4.run(workloads=workloads, video_counts=(1, 2),
                              modes=(DeploymentMode.IFRAME_EDGE_CLOUD_NN,
                                     DeploymentMode.MSE_EDGE_CLOUD_NN))
        assert set(results) == {DeploymentMode.IFRAME_EDGE_CLOUD_NN,
                                DeploymentMode.MSE_EDGE_CLOUD_NN}
        three_tier = results[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
        assert three_tier[2].total_frames > three_tier[1].total_frames
        assert three_tier[2].throughput_fps > \
            results[DeploymentMode.MSE_EDGE_CLOUD_NN][2].throughput_fps
        rows = figure4.as_rows(results)
        assert len(rows) == 4
        assert "Figure 4" in figure4.render(results)

    def test_figure5_ratios(self, workloads):
        results = figure5.run(workloads=workloads, modes=ALL_DEPLOYMENT_MODES)
        ratios = figure5.headline_ratios(results)
        assert ratios["full_video_over_iframes"] > 2.0
        assert ratios["mse_over_iframes"] > 1.0
        assert ratios["semantic_over_default_camera_edge"] > 1.0
        assert "Figure 5" in figure5.render(results)
