"""The model-owned inference workspace against the allocate-per-call layers.

The functions prefixed ``fresh_`` are the bodies ``nn/layers.py`` carried
before ``Conv2D``, ``MaxPool2D`` and ``ReLU`` took their scratch and their
output from a :class:`~repro.nn.Workspace`: a fresh ``np.pad`` copy, fresh
im2col columns and a fresh output per convolution, four strided passes per
max-pool, a copy per ReLU.  They live here as the oracle.  Exact-mode
probabilities feed the benchmark's golden digests, so results are compared on
``.tobytes()`` (dtype included); and because the workspace is reused by every
call, nothing a caller was handed may ever change under it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.nn import (Conv2D, Dense, GlobalAveragePool, MaxPool2D, ReLU,
                      SequentialModel, Softmax, Workspace, build_yolo_lite,
                      classify_frames)
from repro.nn.layers import _CONV_BUFFER_BYTES, _as_batched_maps


# --------------------------------------------------------------------- #
# The oracle: every array fresh, verbatim in behaviour
# --------------------------------------------------------------------- #
def fresh_conv_forward(layer, inputs):
    inputs, batched = _as_batched_maps(inputs, layer.name)
    if inputs.dtype == np.float32:
        output = fresh_conv_forward_fast(layer, inputs)
        return output if batched else output[0]
    batch, channels, height, width = inputs.shape
    out_channels, out_h, out_w = layer.output_shape((channels, height, width))
    pad = layer._pad_amount()
    if pad:
        inputs = np.pad(inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k = layer.kernel_size
    stride = layer.stride
    kernel_matrix = layer.weights.reshape(out_channels, -1)
    output = np.empty((batch, out_channels, out_h, out_w))
    per_example = channels * k * k * out_h * out_w * 8
    chunk_size = max(int(_CONV_BUFFER_BYTES // max(per_example, 1)), 1)
    out_matrix = output.reshape(batch, out_channels, out_h * out_w)
    for start in range(0, batch, chunk_size):
        chunk = inputs[start:start + chunk_size]
        columns = np.empty((chunk.shape[0], channels, k, k, out_h, out_w))
        for tap_y in range(k):
            for tap_x in range(k):
                columns[:, :, tap_y, tap_x] = chunk[
                    :, :,
                    tap_y:tap_y + out_h * stride:stride,
                    tap_x:tap_x + out_w * stride:stride]
        column_matrix = columns.reshape(
            chunk.shape[0], channels * k * k, out_h * out_w)
        out_chunk = out_matrix[start:start + chunk_size]
        np.matmul(kernel_matrix[None], column_matrix, out=out_chunk)
        out_chunk += layer.bias[:, None]
    return output if batched else output[0]


def fresh_conv_forward_fast(layer, inputs):
    batch, channels, height, width = inputs.shape
    out_channels, out_h, out_w = layer.output_shape((channels, height, width))
    pad = layer._pad_amount()
    if pad:
        inputs = np.pad(inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kernel32 = layer.weights.reshape(layer.out_channels, -1).astype(np.float32)
    bias32 = layer.bias.astype(np.float32)
    k = layer.kernel_size
    stride = layer.stride
    positions = out_h * out_w
    output = np.empty((batch, out_channels, out_h, out_w), dtype=np.float32)
    out_matrix = output.reshape(batch, out_channels, positions)
    per_example = channels * k * k * positions * 4
    chunk_size = max(int(_CONV_BUFFER_BYTES // max(per_example, 1)), 1)
    for start in range(0, batch, chunk_size):
        chunk = inputs[start:start + chunk_size]
        chunk_cm = chunk.transpose(1, 0, 2, 3)
        columns = np.empty((channels, k, k, chunk.shape[0], out_h, out_w),
                           dtype=np.float32)
        for tap_y in range(k):
            for tap_x in range(k):
                columns[:, tap_y, tap_x] = chunk_cm[
                    :, :,
                    tap_y:tap_y + out_h * stride:stride,
                    tap_x:tap_x + out_w * stride:stride]
        column_matrix = columns.reshape(channels * k * k,
                                        chunk.shape[0] * positions)
        merged = kernel32 @ column_matrix
        merged += bias32[:, None]
        out_matrix[start:start + chunk.shape[0]] = merged.reshape(
            out_channels, chunk.shape[0], positions).transpose(1, 0, 2)
    return output


def fresh_pool_forward(layer, inputs):
    inputs, batched = _as_batched_maps(inputs, layer.name)
    batch, channels, height, width = inputs.shape
    p = layer.pool_size
    out_h, out_w = height // p, width // p
    if out_h == 0 or out_w == 0:
        raise ModelError(f"{layer.name}: input {inputs.shape[1:]} too small to pool")
    trimmed = inputs[:, :, :out_h * p, :out_w * p]
    output = trimmed[:, :, ::p, ::p].copy()
    for tap_y in range(p):
        for tap_x in range(p):
            if tap_y or tap_x:
                np.maximum(output, trimmed[:, :, tap_y::p, tap_x::p],
                           out=output)
    return output if batched else output[0]


def fresh_layer_forward(layer, inputs):
    if isinstance(layer, Conv2D):
        return fresh_conv_forward(layer, inputs)
    if isinstance(layer, MaxPool2D):
        return fresh_pool_forward(layer, inputs)
    if isinstance(layer, ReLU):
        return np.maximum(inputs, 0.0)
    return layer.forward(inputs)  # vectors: these layers never changed


def fresh_forward_range(model, inputs, start, stop, dtype=np.float64):
    activation = np.asarray(inputs, dtype=dtype)
    for layer in model.layers[start:stop]:
        activation = fresh_layer_forward(layer, activation)
    return activation


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def same_bits(result, expected):
    return (result.dtype == expected.dtype and result.shape == expected.shape
            and result.tobytes() == expected.tobytes())


def aliases_workspace(workspace, array):
    return workspace.owns(array) or any(
        np.shares_memory(array, buffer)
        for buffer in workspace._buffers.values())


def odd_model():
    """Every geometry the default network does not have: kernels 1 / 3 / 5,
    ``valid`` padding, stride 2, pools of 2 and 3 on maps they do not divide,
    a convolution that is the model's first *and* one that follows a pool."""
    layers = [
        Conv2D(2, 5, kernel_size=3, padding="same", name="c3-same", seed=1),
        ReLU("r1"),
        MaxPool2D(2, "p2"),                      # 23x19 -> 11x9
        Conv2D(5, 6, kernel_size=5, stride=2, padding="same",
               name="c5-stride", seed=2),        # -> 6x5
        ReLU("r2"),
        Conv2D(6, 4, kernel_size=1, padding="valid", name="c1", seed=3),
        MaxPool2D(3, "p3"),                      # 6x5 -> 2x1
        Conv2D(4, 7, kernel_size=1, padding="valid", name="c1b", seed=4),
        ReLU("r3"),
        GlobalAveragePool("gap"),
        Dense(7, 5, name="fc", seed=5),
        Softmax("softmax"),
    ]
    model = SequentialModel(layers, input_shape=(2, 23, 19), name="odd")
    # Non-zero biases, so the bias add is visible in the bits.
    rng = np.random.default_rng(99)
    for layer in model.layers:
        if hasattr(layer, "bias"):
            layer.bias = rng.normal(size=layer.bias.shape)
    return model


def valid_model():
    """``valid`` 3x3 and 5x5 convolutions (no padded buffer at all)."""
    layers = [
        Conv2D(1, 3, kernel_size=5, padding="valid", name="v5", seed=6),
        ReLU("r1"),
        MaxPool2D(2, "p2"),                      # 17x14 -> 13x10 -> 6x5
        Conv2D(3, 4, kernel_size=3, stride=2, padding="valid", name="v3",
               seed=7),                          # -> 2x2
        ReLU("r2"),
        GlobalAveragePool("gap"),
        Dense(4, 3, name="fc", seed=8),
        Softmax("softmax"),
    ]
    return SequentialModel(layers, input_shape=(1, 17, 14), name="valid")


MODELS = {"odd": odd_model, "valid": valid_model,
          "yolo": lambda: build_yolo_lite(input_size=(16, 24),
                                          width_multiplier=0.25)}

#: A batch size, or ``None`` for one 3-D example without a batch axis.
request_sizes = st.lists(st.one_of(st.none(), st.integers(1, 17)),
                         min_size=2, max_size=6)


def draw_input(rng, model, size):
    shape = model.input_shape if size is None else (size,) + model.input_shape
    return rng.normal(size=shape) * 3.0


# --------------------------------------------------------------------- #
# Equal bits
# --------------------------------------------------------------------- #
class TestWorkspaceEqualsFreshArrays:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @settings(max_examples=15, deadline=None)
    @given(sizes=request_sizes, seed=st.integers(0, 2 ** 16))
    def test_forward_in_mixed_batch_order(self, name, sizes, seed):
        """One model, growing and shrinking requests: a smaller batch in a
        buffer a larger one left behind reads none of its leftovers."""
        model = MODELS[name]()
        rng = np.random.default_rng(seed)
        for size in sizes:
            inputs = draw_input(rng, model, size)
            assert same_bits(model.forward(inputs),
                             fresh_forward_range(model, inputs, 0,
                                                 model.num_layers))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_forward_range_at_every_split(self, name):
        model = MODELS[name]()
        rng = np.random.default_rng(5)
        for size in (4, None, 9, 2):
            inputs = draw_input(rng, model, size)
            for split in range(model.num_layers + 1):
                head = model.forward_range(inputs, 0, split)
                assert same_bits(head, fresh_forward_range(model, inputs, 0,
                                                           split))
                tail = model.forward_range(head, split, model.num_layers)
                assert same_bits(tail, fresh_forward_range(
                    model, head, split, model.num_layers))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_predict_classes(self, name):
        model = MODELS[name]()
        rng = np.random.default_rng(6)
        for size in (7, 1, 17, 3):
            batch = draw_input(rng, model, size)
            indices, outputs = model.predict_classes(batch)
            expected = fresh_forward_range(model, batch, 0, model.num_layers)
            assert same_bits(outputs, expected)
            assert np.array_equal(indices, np.argmax(
                expected.reshape(size, -1), axis=1))
            index, vector = model.predict_class(batch[0])
            assert index == int(indices[0]) and same_bits(vector, expected[0])

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_fast_precision_is_the_parents_fast_path(self, name):
        """The float32 path keeps its merged GEMMs operand for operand, so it
        too is unchanged bit for bit (its contract only asks for a
        tolerance)."""
        model = MODELS[name]()
        rng = np.random.default_rng(7)
        for size in (5, None, 12, 2):
            inputs = draw_input(rng, model, size)
            result = model.forward(inputs, precision="fast")
            assert same_bits(result, fresh_forward_range(
                model, inputs, 0, model.num_layers, dtype=np.float32))

    def test_chunked_batches(self, monkeypatch):
        """A column budget of one example makes every convolution loop over
        chunks of the padded buffer and the columns.  Exact results do not
        depend on the chunking at all; the merged fast GEMM is compared with
        the oracle under the same budget."""
        import sys

        import repro.nn.layers as layers_module
        model = odd_model()
        inputs = draw_input(np.random.default_rng(8), model, 5)
        expected = fresh_forward_range(model, inputs, 0, model.num_layers)
        monkeypatch.setattr(layers_module, "_CONV_BUFFER_BYTES", 1)
        assert same_bits(model.forward(inputs), expected)
        monkeypatch.setattr(sys.modules[__name__], "_CONV_BUFFER_BYTES", 1)
        assert same_bits(
            model.forward(inputs, precision="fast"),
            fresh_forward_range(model, inputs, 0, model.num_layers,
                                dtype=np.float32))

    @pytest.mark.parametrize("layer", [
        Conv2D(3, 5, kernel_size=3, padding="same", name="same"),
        Conv2D(3, 5, kernel_size=3, padding="valid", name="valid"),
        Conv2D(3, 4, kernel_size=5, stride=2, padding="same", name="stride"),
        Conv2D(3, 2, kernel_size=1, name="k1"),
        MaxPool2D(1, "p1"), MaxPool2D(2, "p2"), MaxPool2D(3, "p3"),
        ReLU("relu"),
    ], ids=lambda layer: layer.name)
    def test_layer_on_its_own(self, layer):
        """No workspace given: the same body on a throw-away one, and the
        result is the caller's to keep."""
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(4, 3, 13, 17))
        first = layer.forward(batch)
        assert same_bits(first, fresh_layer_forward(layer, batch))
        kept = first.copy()
        layer.forward(rng.normal(size=(4, 3, 13, 17)))
        assert same_bits(first, kept)
        single = layer.forward(batch[0])
        assert same_bits(single, fresh_layer_forward(layer, batch[0]))
        integers = rng.integers(-5, 5, size=(2, 3, 9, 9))
        assert same_bits(layer.forward(integers),
                         fresh_layer_forward(layer, integers))

    def test_pooling_after_relu_has_only_positive_zeros(self):
        """The one thing the order of a window's maxima can change is the
        sign of a zero, in a window whose maximum is a zero of both signs.
        ReLU writes +0.0 for every non-positive input, so pooling behind it
        (every pool in this repository) never sees such a window."""
        maps = np.array([[[[-1.0, 0.0, -0.0, -3.0],
                           [-0.0, -1.0, -2.0, -0.0]]]])
        rectified = ReLU().forward(maps)
        assert not np.signbit(rectified).any()
        pool = MaxPool2D(2)
        assert same_bits(pool.forward(rectified),
                         fresh_pool_forward(pool, rectified))
        # Without the ReLU the values still agree; only a zero's sign may not.
        assert np.array_equal(pool.forward(maps), fresh_pool_forward(pool, maps))


# --------------------------------------------------------------------- #
# Nothing a caller holds is workspace memory
# --------------------------------------------------------------------- #
class TestNoAliasing:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_results_survive_the_next_call_at_every_split(self, name):
        model = MODELS[name]()
        rng = np.random.default_rng(10)
        first_input = draw_input(rng, model, 6)
        second_input = draw_input(rng, model, 6)
        for start in range(model.num_layers + 1):
            for stop in range(start, model.num_layers + 1):
                head = fresh_forward_range(model, first_input, 0, start)
                result = model.forward_range(head, start, stop)
                assert not aliases_workspace(model.workspace, result)
                kept = result.copy()
                model.forward_range(
                    fresh_forward_range(model, second_input, 0, start),
                    start, stop)
                assert same_bits(result, kept)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_the_callers_input_is_never_written(self, name, precision):
        """Also when the range starts at a ReLU, which works in place on
        anything the workspace owns — and on nothing else."""
        model = MODELS[name]()
        rng = np.random.default_rng(11)
        dtype = np.float64 if precision == "exact" else np.float32
        for start in range(model.num_layers):
            given_input = fresh_forward_range(
                model, draw_input(rng, model, 3), 0, start, dtype=dtype)
            before = given_input.copy()
            model.forward_range(given_input, start, model.num_layers, precision)
            assert same_bits(given_input, before)

    def test_predictions_and_classifications_own_their_memory(self):
        model = build_yolo_lite(input_size=(16, 16), width_multiplier=0.25)
        rng = np.random.default_rng(12)
        batch = rng.normal(size=(5,) + model.input_shape)
        indices, outputs = model.predict_classes(batch)
        index, vector = model.predict_class(batch[0])
        frames = [rng.integers(0, 255, size=(20, 30), dtype=np.uint8)
                  for _ in range(5)]
        labels, probabilities = classify_frames(model, frames, batch_size=2)
        for array in (indices, outputs, vector, probabilities):
            assert not aliases_workspace(model.workspace, array)
        kept = probabilities.copy()
        classify_frames(model, frames[::-1], batch_size=3)
        assert same_bits(probabilities, kept)

    def test_zero_border_after_a_larger_call(self):
        """The padded buffer is shared by every convolution and keeps the
        bytes of the last one; a small call after a large one must still
        see zeros all around its input."""
        model = odd_model()
        rng = np.random.default_rng(13)
        model.forward(draw_input(rng, model, 17) + 100.0)
        small = draw_input(rng, model, 2)
        assert same_bits(model.forward(small), odd_model().forward(small))
        assert same_bits(model.forward(small[0]),
                         fresh_forward_range(model, small[0], 0,
                                             model.num_layers))

    def test_two_models_do_not_share_a_workspace(self):
        first, second = odd_model(), odd_model()
        assert first.workspace is not second.workspace
        inputs = draw_input(np.random.default_rng(14), first, 3)
        result = first.forward(inputs)
        second.forward(inputs + 1.0)
        assert same_bits(result, first.forward(inputs))


# --------------------------------------------------------------------- #
# The buffers are kept
# --------------------------------------------------------------------- #
class TestBuffersAreKept:
    def test_warm_forwards_allocate_no_workspace_buffer(self):
        model = build_yolo_lite(input_size=(32, 32), width_multiplier=0.5)
        rng = np.random.default_rng(15)
        assert model.workspace.allocations == 0
        model.forward(rng.normal(size=(9,) + model.input_shape))
        warm = model.workspace.allocations
        held = model.workspace.nbytes
        # Four roles: padded input, columns (shared with pooling), two
        # activations.
        assert len(model.workspace._buffers) == 4
        for size in (9, 1, 4, 9, None, 7):
            inputs = draw_input(rng, model, size)
            model.forward(inputs)
            model.forward(inputs, precision="fast")
            model.predict_classes(inputs if size else inputs[None])
        assert model.workspace.allocations == warm
        assert model.workspace.nbytes == held

    def test_a_larger_request_grows_then_keeps(self):
        model = build_yolo_lite(input_size=(16, 16), width_multiplier=0.25)
        rng = np.random.default_rng(16)
        model.forward(rng.normal(size=(2,) + model.input_shape))
        small = model.workspace.nbytes
        model.forward(rng.normal(size=(8,) + model.input_shape))
        assert model.workspace.nbytes > small
        grown = model.workspace.allocations
        model.forward(rng.normal(size=(2,) + model.input_shape))
        model.forward(rng.normal(size=(8,) + model.input_shape))
        assert model.workspace.allocations == grown

    def test_roles_are_views_of_flat_buffers(self):
        workspace = Workspace()
        columns = workspace.take(Workspace.COLUMNS, (3, 4, 5), np.float64)
        assert columns.shape == (3, 4, 5) and columns.dtype == np.float64
        assert workspace.owns(columns) and workspace.owns(columns[1, ::2])
        assert not workspace.owns(np.zeros(3))
        # A smaller request of another dtype reuses the same bytes.
        again = workspace.take(Workspace.COLUMNS, (2, 7), np.float32)
        assert np.shares_memory(again, columns)
        assert workspace.allocations == 1
        # An activation never lands in the buffer its input lives in.
        first = workspace.activation((2, 2), np.float64, columns)
        second = workspace.activation((2, 2), np.float64, first)
        third = workspace.activation((2, 2), np.float64, second)
        assert not np.shares_memory(first, second)
        assert np.shares_memory(first, third)
