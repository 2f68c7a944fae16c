"""Tests for the simulated cluster: cost model and in-memory result store."""

import numpy as np
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

    @pytest.mark.parametrize("frames, speed", [
        (3, float("inf")), (float("nan"), 1.0), (1.5, 1.0), (True, 1.0),
        (3, float("nan")), (3, True), ("3", 1.0)])
    def test_counts_are_whole_and_speeds_positive_and_finite(self, frames,
                                                             speed):
        """``seek_seconds(3, r, inf)`` returned 0.0 and a nan count a nan
        cost."""
        model = CostModel()
        with pytest.raises(ClusterError):
            model.seek_seconds(frames, RESOLUTION_1080P, speed)
        with pytest.raises(ClusterError):
            model.resize_seconds(frames, speed)
        if frames != 3:
            with pytest.raises(ClusterError):
                model.nn_seconds(frames, "edge")


def labels_for(database, video_name, frame_index):
    """The labels a frame was recorded with, ``None`` when absent."""
    return {row.frame_index: row.labels
            for row in database.records_for_video(video_name)}.get(frame_index)


def frames_with_label(database, video_name, label):
    """Frame indices of a video where ``label`` was recorded."""
    return [row.frame_index for row in database.records_for_video(video_name)
            if label in row.labels]


class TestResultDatabase:
    def test_record_and_query(self):
        database = ResultDatabase()
        database.record("v", 0, {"car"})
        database.record("v", 5, set())
        database.record("w", 0, {"person"})
        assert labels_for(database, "v", 0) == frozenset({"car"})
        assert labels_for(database, "v", 1) is None
        assert [row.frame_index for row in database.records_for_video("v")] == [0, 5]
        assert frames_with_label(database, "v", "car") == [0]
        assert len(database) == 3

    def test_rerecorded_frame_keeps_one_row_with_the_new_labels(self):
        database = ResultDatabase()
        database.record("v", 0, {"car"})
        database.record("v", 0, {"bus"})
        assert labels_for(database, "v", 0) == frozenset({"bus"})
        assert len(database) == 1
        assert [row.labels for row in database.records_for_video("v")] == [
            frozenset({"bus"})]

    def test_rows_stay_frame_ordered_when_recorded_out_of_order(self):
        database = ResultDatabase()
        for frame in (9, 2, 7, 0, 4):
            database.record("v", frame, {f"label-{frame}"})
        database.record("w", 1, {"person", "car"})
        assert [row.frame_index for row in database.records_for_video("v")
                ] == [0, 2, 4, 7, 9]
        assert frames_with_label(database, "w", "person") == [1]
        assert frames_with_label(database, "v", "label-7") == [7]
        assert frames_with_label(database, "v", "person") == []

    def test_numpy_integer_frames_are_accepted(self):
        database = ResultDatabase()
        row = database.record("v", np.int64(3), ("car",))
        assert row.frame_index == 3 and type(row.frame_index) is int
        assert labels_for(database, "v", 3) == frozenset({"car"})

    @pytest.mark.parametrize("frame_index", [
        -1, 1.5, 1.0, True, False, float("nan"), float("inf"), "3", None,
        np.bool_(True), np.int64(-2), np.float64(2.0)])
    def test_malformed_frame_index_is_refused(self, frame_index):
        database = ResultDatabase()
        database.record("v", 1, {"car"})
        with pytest.raises(ClusterError):
            database.record("v", frame_index, {"bus"})
        # Nothing was stored or overwritten.
        assert len(database) == 1
        assert labels_for(database, "v", 1) == frozenset({"car"})

    @pytest.mark.parametrize("video_name", [None, 7, b"v"])
    def test_non_str_video_name_is_refused(self, video_name):
        database = ResultDatabase()
        with pytest.raises(ClusterError):
            database.record(video_name, 0, {"car"})
        assert len(database) == 0

    def test_bare_str_labels_are_refused(self):
        database = ResultDatabase()
        with pytest.raises(ClusterError):
            database.record("v", 0, "car")
        assert len(database) == 0
        database.record("v", 0, ("car",))
        assert labels_for(database, "v", 0) == frozenset({"car"})

    def test_labels_are_normalised_to_a_frozen_set(self):
        database = ResultDatabase()
        database.record("v", 0, ["car", "car", "bus"])
        database.record("v", 1, (label for label in ("person",)))
        assert labels_for(database, "v", 0) == frozenset({"car", "bus"})
        assert labels_for(database, "v", 1) == frozenset({"person"})
        assert all(isinstance(row.labels, frozenset)
                   for row in database.records_for_video("v"))

    def test_empty_label_row_is_kept_but_matches_no_label(self):
        database = ResultDatabase()
        database.record("v", 3, ())
        assert labels_for(database, "v", 3) == frozenset()
        assert len(database) == 1
        assert frames_with_label(database, "v", "") == []
        assert frames_with_label(database, "v", "car") == []

    def test_unknown_video_reads_empty(self):
        database = ResultDatabase()
        database.record("v", 0, {"car"})
        assert labels_for(database, "other", 0) is None
        assert database.records_for_video("other") == []
        assert frames_with_label(database, "other", "car") == []

    def test_record_returns_the_stored_frozen_row(self):
        import dataclasses
        database = ResultDatabase()
        row = database.record("v", 2, {"car"})
        assert database.records_for_video("v") == [row]
        assert (row.video_name, row.frame_index) == ("v", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.frame_index = 3
