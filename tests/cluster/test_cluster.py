"""Tests for the simulated cluster: cost model and in-memory result store."""

import pytest

from repro.cluster import CostModel, ResultDatabase
from repro.errors import ClusterError
from repro.video import RESOLUTION_1080P, RESOLUTION_400P


class TestCostModel:
    def test_calibrated_seek_and_decode_at_1080p(self):
        model = CostModel()
        assert model.seek_seconds(1000, RESOLUTION_1080P) == pytest.approx(0.43)
        assert model.decode_seconds(1000, RESOLUTION_1080P) == pytest.approx(11.0)

    def test_resolution_scaling(self):
        model = CostModel()
        ratio = (model.decode_seconds(100, RESOLUTION_1080P)
                 / model.decode_seconds(100, RESOLUTION_400P))
        assert ratio == pytest.approx(RESOLUTION_1080P.pixels / RESOLUTION_400P.pixels)

    def test_speed_factor(self):
        model = CostModel()
        assert model.seek_seconds(100, RESOLUTION_1080P, speed_factor=2.0) == \
            pytest.approx(model.seek_seconds(100, RESOLUTION_1080P) / 2.0)

    def test_event_detection_fps_matches_table3_shape(self):
        model = CostModel()
        sieve = model.event_detection_fps("sieve", RESOLUTION_1080P)
        mse = model.event_detection_fps("mse", RESOLUTION_1080P)
        sift = model.event_detection_fps("sift", RESOLUTION_1080P)
        assert 2000 < sieve < 2600          # paper: 2300 fps
        assert 15 < mse < 30                # paper: 22 fps
        assert 10 < sift < 20               # paper: 16 fps
        assert 90 < sieve / mse < 180       # paper: ~104x
        assert 120 < sieve / sift < 220     # paper: ~142x

    def test_nn_costs(self):
        model = CostModel()
        assert model.nn_seconds(10, "edge") > model.nn_seconds(10, "cloud")
        with pytest.raises(ClusterError):
            model.nn_seconds(1, "gpu-farm")
        with pytest.raises(ClusterError):
            model.event_detection_fps("magic", RESOLUTION_1080P)

    def test_invalid_inputs(self):
        model = CostModel()
        with pytest.raises(ClusterError):
            model.decode_seconds(-1, RESOLUTION_1080P)
        with pytest.raises(ClusterError):
            model.decode_seconds(1, RESOLUTION_1080P, speed_factor=0)


class TestResultDatabase:
    def test_record_and_query(self):
        database = ResultDatabase()
        database.record("v", 0, {"car"})
        database.record("v", 5, set())
        database.record("w", 0, {"person"})
        assert database.labels_for("v", 0) == frozenset({"car"})
        assert database.labels_for("v", 1) is None
        assert [row.frame_index for row in database.records_for_video("v")] == [0, 5]
        assert database.frames_with_label("v", "car") == [0]
        assert database.video_names() == ["v", "w"]
        assert len(database) == 3
        database.clear()
        assert len(database) == 0
