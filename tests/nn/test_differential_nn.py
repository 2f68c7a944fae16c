"""Differential exact-vs-fast harness for the NN engine.

``precision="fast"``, passed to ``SequentialModel.forward``,
``predict_classes`` or ``classify_frames``, runs the NN in float32 merged
GEMMs.  Its accuracy budgets are the module
constants below:

* fast outputs stay within ``NN_LOGITS_ATOL`` + ``NN_LOGITS_RTOL`` · |exact|
  of the exact float64 outputs, elementwise,
* fast argmax classifications agree with exact on at least
  ``NN_CLASSES_MIN_AGREEMENT`` of the examples and can only disagree on
  genuine logit near-ties,
* the default (exact) path remains bit-identical: same arrays as before the
  fast path existed, batched == per-example, float64 throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.nn import SequentialModel, build_yolo_lite, classify_frames
from repro.nn.layers import Conv2D, Dense, MaxPool2D, ReLU, Softmax
from repro.nn.model import activation_dtype
from repro.video import SyntheticScene, make_scenario

#: Elementwise budget of fast NN outputs (softmax probabilities) against
#: the exact float64 forward pass.  One fused-reduction step loses ~1e-7
#: relative per term and YoloLite's deepest accumulation chains are a few
#: hundred terms, so 1e-4 relative is two orders of magnitude above the
#: observed error while still catching any real numerical defect.
NN_LOGITS_ATOL = 1e-5
NN_LOGITS_RTOL = 1e-4

#: Minimum fraction of examples whose fast argmax class equals the exact
#: one: room only for genuine near-ties.
NN_CLASSES_MIN_AGREEMENT = 0.98


def logit_margin(reference) -> np.ndarray:
    """The allowed absolute deviation around exact output values."""
    return NN_LOGITS_ATOL + NN_LOGITS_RTOL * np.abs(
        np.asarray(reference, dtype=np.float64))


def max_violation(exact, fast) -> float:
    """Largest deviation in excess of the logit budget (<= 0 is within)."""
    exact = np.asarray(exact, dtype=np.float64)
    fast = np.asarray(fast, dtype=np.float64)
    return float((np.abs(fast - exact) - logit_margin(exact)).max())


def within_logit_budget(exact, fast) -> bool:
    return max_violation(exact, fast) <= 0.0


def class_agreement(exact, fast) -> float:
    """Fraction of aligned classifications (indices or labels) that agree."""
    exact, fast = list(exact), list(fast)
    assert len(exact) == len(fast)
    return sum(a == b for a, b in zip(exact, fast)) / len(exact)


@pytest.fixture(scope="module")
def tiny_model():
    """A small but multi-stage YoloLite (fast enough for hypothesis)."""
    return build_yolo_lite(input_size=(16, 16), width_multiplier=0.25)


@pytest.fixture(scope="module")
def scenario_frames():
    """A few frames from daylight and adversarial night scenarios."""
    frames = []
    for name in ("jackson_square", "night"):
        profile = make_scenario(name, duration_seconds=2.0, render_scale=0.08)
        video = SyntheticScene(profile).video()
        for frame in video.frames():
            frames.append(frame.to_grayscale())
            if len(frames) % 8 == 0:
                break
    return frames


def batch_strategy():
    return st.integers(min_value=1, max_value=5)


class TestLogitBudget:
    @settings(max_examples=15, deadline=None)
    @given(batch=batch_strategy(), seed=st.integers(0, 2**31 - 1))
    def test_fast_probabilities_within_budget(self, tiny_model, batch, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(0.0, 1.0, size=(batch, *tiny_model.input_shape))
        exact = tiny_model.forward(inputs)
        fast = tiny_model.forward(inputs, precision="fast")
        assert fast.dtype == np.float32
        assert within_logit_budget(exact, fast), (
            f"violation={max_violation(exact, fast)}")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_forward_range_split_point_also_within_budget(self, tiny_model, seed):
        """The edge/cloud split ships a fast intermediate activation."""
        rng = np.random.default_rng(seed)
        inputs = rng.normal(0.0, 1.0, size=(2, *tiny_model.input_shape))
        split = tiny_model.num_layers // 2
        exact_mid = tiny_model.forward_range(inputs, 0, split)
        fast_mid = tiny_model.forward_range(inputs, 0, split, "fast")
        exact = tiny_model.forward_range(exact_mid, split, tiny_model.num_layers)
        fast = tiny_model.forward_range(fast_mid, split,
                                        tiny_model.num_layers, "fast")
        assert within_logit_budget(exact, fast)


class TestClassAgreement:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_agreement_and_disagreements_are_near_ties(self, tiny_model, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(0.0, 1.0, size=(24, *tiny_model.input_shape))
        exact_idx, exact_out = tiny_model.predict_classes(inputs)
        fast_idx, fast_out = tiny_model.predict_classes(inputs, "fast")
        assert class_agreement(exact_idx, fast_idx) >= NN_CLASSES_MIN_AGREEMENT
        # Any disagreement must be a genuine near-tie: the exact margin
        # between the two top classes fits inside the logit budget.
        matrix = exact_out.reshape(exact_out.shape[0], -1)
        for example in np.nonzero(exact_idx != fast_idx)[0]:
            top_two = np.sort(matrix[example])[-2:]
            margin = float(top_two[1] - top_two[0])
            allowed = 2.0 * float(logit_margin(top_two).max())
            assert margin <= allowed, (
                f"fast argmax flipped on a clear margin {margin}")

    def test_adversarial_logit_tie(self):
        """A handcrafted dead-tie output stays inside the contract."""
        model = SequentialModel([Dense(4, 2, name="tie"), Softmax("sm")],
                                input_shape=(4,))
        dense = model.layers[0]
        dense.weights = np.array([[1.0, 1.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0, 1.0]])
        dense.bias = np.zeros(2)
        inputs = np.array([[0.5, 0.25, 0.25, 0.5]])  # both logits == 0.75
        exact_idx, _ = model.predict_classes(inputs)
        fast_idx, fast_out = model.predict_classes(inputs, "fast")
        # Softmax of a tie is (0.5, 0.5) in both modes (within budget), and
        # argmax resolves to the first class in both modes.
        assert within_logit_budget([0.5, 0.5], fast_out.ravel())
        assert exact_idx[0] == fast_idx[0] == 0


class TestClassifierSurfaces:
    def test_classify_frames_agreement_on_scenarios(self, scenario_frames):
        model = build_yolo_lite()
        exact_labels, exact_probs = classify_frames(model, scenario_frames)
        fast_labels, fast_probs = classify_frames(model, scenario_frames,
                                                  precision="fast")
        assert class_agreement(exact_labels, fast_labels) >= (
            NN_CLASSES_MIN_AGREEMENT)
        assert within_logit_budget(exact_probs, fast_probs)

    def test_classify_frames_fast_single(self, scenario_frames):
        model = build_yolo_lite()
        (label,), probabilities = classify_frames(
            model, scenario_frames[:1], precision="fast")
        assert probabilities.dtype == np.float32
        assert label in model.classes

    def test_activation_dtype_follows_precision(self):
        assert activation_dtype("exact") is np.float64
        assert activation_dtype("fast") is np.float32
        with pytest.raises(ConfigurationError):
            activation_dtype("fp16")


class TestExactStaysExact:
    """precision="exact" (the default) must remain bit-identical."""

    @settings(max_examples=10, deadline=None)
    @given(batch=batch_strategy(), seed=st.integers(0, 2**31 - 1))
    def test_default_equals_explicit_exact_and_is_float64(self, tiny_model,
                                                          batch, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(0.0, 1.0, size=(batch, *tiny_model.input_shape))
        default = tiny_model.forward(inputs)
        explicit = tiny_model.forward(inputs, precision="exact")
        assert default.dtype == np.float64
        assert np.array_equal(default, explicit)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_exact_batched_equals_per_example_bitwise(self, tiny_model, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(0.0, 1.0, size=(4, *tiny_model.input_shape))
        batched = tiny_model.forward(inputs)
        stacked = np.stack([tiny_model.forward(example) for example in inputs])
        assert np.array_equal(batched, stacked)

    def test_exact_layer_kernels_unchanged_by_fast_state(self):
        """Running the fast path must not perturb subsequent exact runs."""
        conv = Conv2D(2, 3, kernel_size=3, name="c", seed=5)
        dense = Dense(12, 4, name="d", seed=5)
        rng = np.random.default_rng(0)
        feature_map = rng.normal(size=(2, 2, 6, 6))
        vector = rng.normal(size=(3, 12))
        conv_before = conv.forward(feature_map)
        dense_before = dense.forward(vector)
        conv.forward(feature_map.astype(np.float32))
        dense.forward(vector.astype(np.float32))
        assert np.array_equal(conv.forward(feature_map), conv_before)
        assert np.array_equal(dense.forward(vector), dense_before)

    def test_fast_path_sees_weight_updates(self):
        """Assigning new weights after a fast run must affect the next fast
        run — the float32 kernels are derived per call, never cached."""
        dense = Dense(3, 2, name="d", seed=1)
        conv = Conv2D(1, 1, kernel_size=1, name="c", seed=1)
        vector = np.ones((1, 3), dtype=np.float32)
        feature_map = np.ones((1, 1, 2, 2), dtype=np.float32)
        before_dense = dense.forward(vector)
        before_conv = conv.forward(feature_map)
        dense.weights = dense.weights * 2.0
        conv.weights = conv.weights * 2.0
        assert np.allclose(dense.forward(vector) - dense.bias.astype(np.float32),
                           2.0 * (before_dense - dense.bias.astype(np.float32)))
        assert np.allclose(conv.forward(feature_map) - conv.bias[0],
                           2.0 * (before_conv - conv.bias[0]))

    def test_pool_relu_preserve_float32(self):
        """Fast activations stay float32 through the parameter-free layers."""
        feature_map = np.random.default_rng(1).normal(
            size=(2, 3, 8, 8)).astype(np.float32)
        pooled = MaxPool2D(2).forward(ReLU().forward(feature_map))
        assert pooled.dtype == np.float32
