"""Tests for the numpy NN engine, YoloLite and the oracle."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import (Conv2D, Dense, GlobalAveragePool, MaxPool2D,
                      OracleDetector, ReLU, SequentialModel, Softmax,
                      build_yolo_lite, classify_frames, preprocess_frames)
from repro.video.events import EventTimeline


class TestLayers:
    def test_conv_shapes_and_parameters(self):
        conv = Conv2D(3, 8, kernel_size=3, padding="same", name="c")
        assert conv.output_shape((3, 16, 16)) == (8, 16, 16)
        assert conv.weights.shape == (8, 3, 3, 3) and conv.bias.shape == (8,)
        valid = Conv2D(3, 8, kernel_size=3, padding="valid")
        assert valid.output_shape((3, 16, 16)) == (8, 14, 14)

    def test_conv_identity_kernel(self):
        conv = Conv2D(1, 1, kernel_size=3, padding="same")
        conv.weights[:] = 0.0
        conv.weights[0, 0, 1, 1] = 1.0
        conv.bias[:] = 0.0
        inputs = np.random.default_rng(0).normal(size=(1, 8, 8))
        assert np.allclose(conv.forward(inputs), inputs, atol=1e-12)

    def test_relu_and_softmax(self):
        assert np.array_equal(ReLU().forward(np.array([-1.0, 2.0])), [0.0, 2.0])
        probabilities = Softmax().forward(np.array([1.0, 1.0, 1.0, 1.0]))
        assert probabilities.sum() == pytest.approx(1.0)
        assert np.allclose(probabilities, 0.25)

    def test_maxpool(self):
        plane = np.arange(16.0).reshape(1, 4, 4)
        pooled = MaxPool2D(2).forward(plane)
        assert pooled.shape == (1, 2, 2)
        assert pooled[0, 0, 0] == 5.0 and pooled[0, 1, 1] == 15.0

    def test_global_average_pool(self):
        plane = np.ones((3, 4, 4))
        assert np.allclose(GlobalAveragePool().forward(plane), 1.0)
        assert GlobalAveragePool().forward(plane).shape == (3,)

    def test_dense(self):
        dense = Dense(4, 2)
        dense.weights[:] = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        dense.bias[:] = np.array([1.0, -1.0])
        assert np.allclose(dense.forward(np.array([2.0, 3.0, 0, 0])), [3.0, 2.0])
        with pytest.raises(ModelError):
            dense.forward(np.zeros(5))

    def test_invalid_layer_parameters(self):
        with pytest.raises(ModelError):
            Conv2D(0, 4)
        with pytest.raises(ModelError):
            Dense(4, 0)

    @pytest.mark.parametrize("pool_size", [0, -1, 1.5, float("nan"),
                                           float("inf"), "x", None, True])
    def test_pool_size_must_be_a_whole_number(self, pool_size):
        with pytest.raises(ModelError, match="pool_size"):
            MaxPool2D(pool_size)


class TestSequentialModel:
    def test_shape_chain_validated_eagerly(self):
        with pytest.raises(ModelError):
            SequentialModel([Conv2D(3, 4), Dense(10, 2)], input_shape=(3, 8, 8))

    def test_forward_and_ranges(self):
        model = build_yolo_lite(input_size=(32, 32), width_multiplier=0.25)
        tensor = np.random.default_rng(0).normal(size=model.input_shape)
        full = model.forward(tensor)
        split = model.num_layers // 2
        partial = model.forward_range(tensor, 0, split)
        resumed = model.forward_range(partial, split, model.num_layers)
        assert np.allclose(full, resumed, atol=1e-9)
        assert full.shape == (len(model.classes),)
        assert full.sum() == pytest.approx(1.0)

    def test_layer_count_consistency(self):
        model = build_yolo_lite(input_size=(32, 32), width_multiplier=0.25)
        assert len(model.layers) == model.num_layers

    def test_invalid_range(self):
        model = build_yolo_lite(input_size=(32, 32), width_multiplier=0.25)
        with pytest.raises(ModelError):
            model.forward_range(np.zeros(model.input_shape), 3, 1)


class TestYoloLite:
    def test_classifier_outputs_known_label(self, rng):
        model = build_yolo_lite(input_size=(32, 32), width_multiplier=0.5)
        frame = rng.integers(0, 255, size=(60, 80), dtype=np.uint8)
        (label,), probabilities = classify_frames(model, [frame])
        assert label in model.classes
        assert probabilities.shape == (1, len(model.classes))
        assert probabilities.sum() == pytest.approx(1.0)

    def test_preprocess_shape(self, rng):
        tensor = preprocess_frames([rng.integers(0, 255, size=(45, 77, 3))], (32, 32))
        assert tensor.shape == (1, 1, 32, 32)

    def test_deterministic_weights(self):
        a = build_yolo_lite(input_size=(32, 32), width_multiplier=0.25, seed=3)
        b = build_yolo_lite(input_size=(32, 32), width_multiplier=0.25, seed=3)
        assert np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_invalid_configuration(self):
        with pytest.raises(ModelError):
            build_yolo_lite(classes=("only-one",))
        with pytest.raises(ModelError):
            build_yolo_lite(input_size=(8, 8))


class TestOracle:
    def _timeline(self):
        labels = [set()] * 5 + [{"car"}] * 5 + [set()] * 5
        return EventTimeline.from_frame_labels(labels)

    def test_perfect_oracle(self):
        timeline = self._timeline()
        oracle = OracleDetector(timeline)
        assert oracle.detect(7) == frozenset({"car"})
        assert oracle.detect(2) == frozenset()
        assert oracle.detect_batch([0, 7]) == [frozenset(), frozenset({"car"})]

    def test_error_rate_perturbs_some_frames(self):
        timeline = self._timeline()
        noisy = OracleDetector(timeline, error_rate=1.0, label_pool={"car", "bus"})
        wrong = sum(noisy.detect(i) != timeline.labels_at(i) for i in range(15))
        assert wrong >= 10

    def test_error_rate_validation(self):
        with pytest.raises(ModelError):
            OracleDetector(self._timeline(), error_rate=2.0)
