"""Batched inference must be exactly equal to per-example inference.

Every layer processes a batch through the same per-example-shaped GEMMs and
order-independent reductions, so batched outputs are bit-identical to
running the examples one by one — these tests pin that contract for every
layer type, for the full YoloLite model, and for the batched frame
classification / detection paths built on top.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import (Conv2D, Dense, Flatten, GlobalAveragePool, MaxPool2D,
                      NNDetector, ReLU, Softmax, build_yolo_lite,
                      classify_frame, classify_frames, preprocess_frames)


@pytest.fixture(scope="module")
def feature_batch():
    return np.random.default_rng(11).normal(size=(6, 3, 13, 17))


@pytest.fixture(scope="module")
def vector_batch():
    return np.random.default_rng(12).normal(size=(6, 24))


FEATURE_LAYERS = [
    Conv2D(3, 5, kernel_size=3, padding="same", name="c-same"),
    Conv2D(3, 5, kernel_size=3, padding="valid", name="c-valid"),
    Conv2D(3, 4, kernel_size=5, stride=2, padding="same", name="c-stride"),
    MaxPool2D(2, "p2"),
    MaxPool2D(3, "p3"),
    GlobalAveragePool("gap"),
    Flatten("flat"),
    ReLU("relu"),
]

VECTOR_LAYERS = [
    Dense(24, 7, name="dense"),
    Softmax("softmax"),
    ReLU("relu-v"),
]


class TestLayerBatchEquivalence:
    @pytest.mark.parametrize("layer", FEATURE_LAYERS, ids=lambda l: l.name)
    def test_feature_layer_batch_equals_per_example(self, layer, feature_batch):
        batched = layer.forward(feature_batch)
        singles = np.stack([layer.forward(example) for example in feature_batch])
        assert batched.shape == singles.shape
        assert np.array_equal(batched, singles)

    @pytest.mark.parametrize("layer", VECTOR_LAYERS, ids=lambda l: l.name)
    def test_vector_layer_batch_equals_per_example(self, layer, vector_batch):
        batched = layer.forward(vector_batch)
        singles = np.stack([layer.forward(example) for example in vector_batch])
        assert np.array_equal(batched, singles)

    def test_batch_of_one_equals_single(self, feature_batch):
        conv = Conv2D(3, 5, name="c1")
        single = conv.forward(feature_batch[0])
        assert np.array_equal(conv.forward(feature_batch[:1])[0], single)

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ModelError):
            Conv2D(1, 1).forward(np.zeros((2, 2)))
        with pytest.raises(ModelError):
            Dense(4, 2).forward(np.zeros(5))

    def test_dense_ravels_single_multi_dim_inputs(self):
        """Seed compat: a feature map can feed a Dense without a Flatten."""
        dense = Dense(12, 3)
        feature_map = np.random.default_rng(0).normal(size=(3, 2, 2))
        direct = dense.forward(feature_map)
        assert direct.shape == (3,)
        assert np.array_equal(direct, dense.forward(feature_map.ravel()))
        # A (batch, in_features) input is still a batch, not a ravel target.
        batch = np.random.default_rng(1).normal(size=(2, 12))
        assert dense.forward(batch).shape == (2, 3)

    def test_softmax_ravels_single_multi_dim_inputs(self):
        probabilities = Softmax().forward(np.ones((2, 3, 4)))
        assert probabilities.shape == (24,)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_flatten_keeps_batch_axis_for_flat_batches(self):
        """A (batch, features) batch must pass through Flatten unchanged."""
        batch = np.random.default_rng(2).normal(size=(5, 7))
        assert np.array_equal(Flatten().forward(batch), batch)

    def test_gap_flatten_dense_chain_batches(self):
        """Regression: [GAP, Flatten, Dense] batched == per-example."""
        from repro.nn import SequentialModel
        model = SequentialModel(
            [Conv2D(1, 4, name="c"), GlobalAveragePool(), Flatten(),
             Dense(4, 2)], input_shape=(1, 8, 8))
        batch = np.random.default_rng(3).normal(size=(3, 1, 8, 8))
        batched = model.forward(batch)
        singles = np.stack([model.forward(example) for example in batch])
        assert np.array_equal(batched, singles)


class TestModelBatchEquivalence:
    @pytest.fixture(scope="class")
    def model(self):
        return build_yolo_lite(input_size=(32, 32), width_multiplier=0.5)

    def test_forward_batch_equals_per_example(self, model):
        batch = np.random.default_rng(0).normal(size=(9,) + model.input_shape)
        batched = model.forward(batch)
        singles = np.stack([model.forward(example) for example in batch])
        assert np.array_equal(batched, singles)

    def test_forward_range_accepts_batches(self, model):
        batch = np.random.default_rng(1).normal(size=(4,) + model.input_shape)
        split = model.num_layers // 2
        partial = model.forward_range(batch, 0, split)
        resumed = model.forward_range(partial, split, model.num_layers)
        assert np.array_equal(resumed, model.forward(batch))

    def test_predict_classes_matches_predict_class(self, model):
        batch = np.random.default_rng(2).normal(size=(5,) + model.input_shape)
        indices, outputs = model.predict_classes(batch)
        for position, example in enumerate(batch):
            index, vector = model.predict_class(example)
            assert int(indices[position]) == index
            assert np.array_equal(outputs[position], vector)

    def test_predict_classes_rejects_single_example(self, model):
        with pytest.raises(ModelError):
            model.predict_classes(np.zeros(model.input_shape))

    def test_batch_shape_mismatch_rejected(self, model):
        with pytest.raises(ModelError):
            model.forward(np.zeros((3, 2, 32, 32)))


class TestClassifyFrames:
    @pytest.fixture(scope="class")
    def model(self):
        return build_yolo_lite(input_size=(32, 32), width_multiplier=0.5)

    @pytest.fixture(scope="class")
    def frames(self):
        rng = np.random.default_rng(3)
        return [rng.integers(0, 255, size=(48, 64), dtype=np.uint8)
                for _ in range(7)]

    def test_matches_classify_frame(self, model, frames):
        labels, probabilities = classify_frames(model, frames, batch_size=3)
        assert probabilities.shape == (len(frames), len(model.classes))
        for position, frame in enumerate(frames):
            label, vector = classify_frame(model, frame)
            assert labels[position] == label
            assert np.array_equal(probabilities[position], vector)

    def test_chunk_size_does_not_change_results(self, model, frames):
        first = classify_frames(model, frames, batch_size=1)
        second = classify_frames(model, frames, batch_size=100)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_empty_input(self, model):
        labels, probabilities = classify_frames(model, [], batch_size=4)
        assert labels == []
        assert probabilities.shape == (0, len(model.classes))

    def test_invalid_batch_size(self, model, frames):
        with pytest.raises(ModelError):
            classify_frames(model, frames, batch_size=0)

    def test_preprocess_frames_stacks(self, frames):
        tensors = preprocess_frames(frames, (32, 32))
        assert tensors.shape == (len(frames), 1, 32, 32)


class TestNNDetector:
    @pytest.fixture(scope="class")
    def model(self):
        return build_yolo_lite(input_size=(32, 32), width_multiplier=0.25)

    def test_batch_equals_per_frame(self, model):
        rng = np.random.default_rng(4)
        frames = [rng.integers(0, 255, size=(40, 40), dtype=np.uint8)
                  for _ in range(5)]
        detector = NNDetector(model, batch_size=2)
        batched = detector.detect_batch(list(range(5)), frames)
        assert batched == [detector.detect(index, frame)
                           for index, frame in enumerate(frames)]
        # Background maps to the empty label set, everything else to {label}.
        assert all(labels == frozenset() or len(labels) == 1
                   for labels in batched)

    def test_needs_pixels(self, model):
        detector = NNDetector(model)
        with pytest.raises(ModelError):
            detector.detect_batch([0], [None])

    def test_needs_class_list(self, model):
        from repro.nn import SequentialModel
        bare = SequentialModel(model.layers, model.input_shape)
        with pytest.raises(ModelError):
            NNDetector(bare)

