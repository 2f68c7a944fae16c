"""Neural-network layers for the numpy inference engine.

The paper treats the object-detection network (YOLOv3 in their prototype) as
a per-frame black box that is expensive to evaluate and that can be split
between edge and cloud by the "NN deployment service".  PyTorch is not
available in this environment, so this module provides a small but real
inference engine: convolution (via im2col), pooling, dense layers and the
usual activations, each reporting its parameter count, FLOPs and output size
— the quantities the deployment service's partitioning algorithm needs.

Feature maps follow the ``(channels, height, width)`` layout and dense
activations are plain vectors.  Every layer also accepts a leading batch
dimension — ``(batch, channels, height, width)`` feature maps and
``(batch, features)`` vectors — and processes the whole batch in one
vectorised pass; a single example always goes through the same batched code
path (as a batch of one), so batched and per-example inference are exactly
equal.

Precision dispatch: every layer computes in the dtype of its input.  The
default engine runs in float64 through the exact kernels that are pinned
bit-identical to the seed implementation.  Feeding float32 activations
(what :meth:`SequentialModel.forward_range` does under
``precision="fast"``) routes Conv2D and Dense through *merged* float32
GEMMs — one BLAS call for a whole batch chunk instead of one
identically-shaped product per example — which reassociates the reductions
and therefore lives under the tolerance contract of
:data:`repro.contracts.FAST_CONTRACT` rather than the bit-identity
contract.

Memory: the layers that move whole feature maps (:class:`Conv2D`,
:class:`MaxPool2D`, :class:`ReLU`) take their scratch and their output from
a :class:`Workspace`.  A :class:`~repro.nn.model.SequentialModel` owns one
and keeps it between calls, so a warm forward pass touches no fresh pages;
a layer called on its own runs the same body on a throw-away one.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError
from ..rng import make_rng

Shape = Tuple[int, ...]

#: Target size of the convolution im2col buffer; batches whose column matrix
#: would exceed this are processed in chunks so the working set stays inside
#: the CPU cache (a 30+ MB buffer made batched inference slower than
#: per-example inference).
_CONV_BUFFER_BYTES = 4 * 1024 * 1024


class Workspace:
    """Memory an inference engine keeps between forward passes.

    One flat byte buffer per role, grown to the largest request so far and
    handed out as a view of the requested shape and dtype — the exact and
    the fast precision share the same bytes.  Fresh multi-megabyte arrays
    per layer call cost more in page faults than the arithmetic they hold
    (glibc gives the pages back on every free); kept buffers are faulted in
    once.

    Roles: the zero-bordered convolution input, the im2col columns — which
    max-pooling borrows for its row stage, since no layer convolves and
    pools at once — and two activations that consecutive layers alternate
    between.  Whatever a layer returns may live here and is overwritten by
    a later call, so whoever owns the workspace copies out what it hands
    to its own caller (see :meth:`owns`).
    """

    PADDED = "padded"
    COLUMNS = "columns"
    _ACTIVATIONS = ("activation-0", "activation-1")

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        #: Buffers created or grown so far; constant once the workspace has
        #: seen its largest request.
        self.allocations = 0

    def take(self, role: str, shape: Shape, dtype) -> np.ndarray:
        """An uninitialised array of ``shape`` in the buffer of ``role``."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < nbytes:
            buffer = self._buffers[role] = np.empty(nbytes, dtype=np.uint8)
            self.allocations += 1
        return buffer[:nbytes].view(dtype).reshape(shape)

    def activation(self, shape: Shape, dtype, inputs: np.ndarray) -> np.ndarray:
        """An output array in whichever activation buffer ``inputs`` is not in."""
        first, second = self._ACTIVATIONS
        held = self._buffers.get(first)
        reading_first = held is not None and np.may_share_memory(held, inputs)
        return self.take(second if reading_first else first, shape, dtype)

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is (a view of) memory of this workspace.

        Separate allocations never overlap, so the bounds check of
        ``may_share_memory`` is exact here.
        """
        return any(np.may_share_memory(buffer, array)
                   for buffer in self._buffers.values())

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return sum(buffer.size for buffer in self._buffers.values())


class Layer:
    """Base class of all layers.

    Subclasses implement :meth:`forward` and :meth:`output_shape`, and report
    :attr:`num_parameters` and :meth:`flops` so the profiler can build a cost
    model without running the network.
    """

    #: Human-readable layer name, set by subclasses.
    name: str = "layer"

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        """Compute the layer output for one example or a leading-axis batch.

        With a ``workspace`` the result may be a view of its memory, valid
        until the next layer call on the same workspace; without one the
        result is the caller's own.
        """
        raise NotImplementedError

    def output_shape(self, input_shape: Shape) -> Shape:
        """Shape of the output given a (single-example) input shape."""
        raise NotImplementedError

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters."""
        return 0

    def flops(self, input_shape: Shape) -> int:
        """Approximate multiply-accumulate count for one forward pass."""
        return 0

    def output_size_bytes(self, input_shape: Shape, dtype_bytes: int = 4) -> int:
        """Size of the layer's output activation in bytes."""
        return int(np.prod(self.output_shape(input_shape))) * dtype_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid.
        return f"{type(self).__name__}(name={self.name!r})"


def _as_batched_maps(inputs: np.ndarray, layer_name: str
                     ) -> Tuple[np.ndarray, bool]:
    """Normalise a feature-map input to ``(batch, C, H, W)``.

    Returns the batched view plus whether the caller passed a batch (so the
    result can be un-batched on the way out).
    """
    inputs = np.asarray(inputs)
    if inputs.ndim == 3:
        return inputs[None], False
    if inputs.ndim == 4:
        return inputs, True
    raise ModelError(
        f"{layer_name} expects a (channels, height, width) tensor or a "
        f"(batch, channels, height, width) batch, got shape {inputs.shape}")


class Conv2D(Layer):
    """2-D convolution with 'same' or 'valid' padding, implemented via im2col.

    Args:
        in_channels: Number of input channels.
        out_channels: Number of filters.
        kernel_size: Square kernel edge length.
        stride: Spatial stride.
        padding: ``"same"`` or ``"valid"``.
        name: Layer name.
        seed: Seed for the deterministic He-style weight initialisation.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, padding: str = "same", name: str = "conv",
                 seed: int = 0) -> None:
        if in_channels < 1 or out_channels < 1 or kernel_size < 1 or stride < 1:
            raise ModelError("Conv2D dimensions must be positive")
        if padding not in ("same", "valid"):
            raise ModelError(f"unknown padding {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.name = name
        rng = make_rng(seed, "conv", name)
        scale = np.sqrt(2.0 / (in_channels * kernel_size * kernel_size))
        self.weights = rng.normal(
            0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size))
        self.bias = np.zeros(out_channels)

    @property
    def num_parameters(self) -> int:
        return int(self.weights.size + self.bias.size)

    def _pad_amount(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        if channels != self.in_channels:
            raise ModelError(
                f"{self.name}: expected {self.in_channels} input channels, got {channels}")
        pad = self._pad_amount()
        out_h = (height + 2 * pad - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * pad - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ModelError(f"{self.name}: input {input_shape} too small")
        return (self.out_channels, out_h, out_w)

    def flops(self, input_shape: Shape) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = self.in_channels * self.kernel_size * self.kernel_size
        return int(self.out_channels * out_h * out_w * per_output)

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        if workspace is None:
            workspace = Workspace()
        inputs, batched = _as_batched_maps(inputs, self.name)
        fast = inputs.dtype == np.float32
        dtype = np.dtype(np.float32 if fast else np.float64)
        batch, channels, height, width = inputs.shape
        out_channels, out_h, out_w = self.output_shape((channels, height, width))
        pad = self._pad_amount()
        k = self.kernel_size
        stride = self.stride
        taps = channels * k * k
        positions = out_h * out_w
        kernel_matrix = self.weights.reshape(out_channels, taps)
        bias = self.bias[:, None]
        if fast:
            # Cast per call rather than caching: `weights`/`bias` are public
            # mutable attributes, and a cached float32 copy would silently go
            # stale after an assignment.  The cast is a few tens of kilobytes
            # — noise next to the GEMM it feeds.
            kernel_matrix = kernel_matrix.astype(np.float32)
            bias = bias.astype(np.float32)
        output = workspace.activation((batch, out_channels, out_h, out_w),
                                      dtype, inputs)
        out_matrix = output.reshape(batch, out_channels, positions)
        # The batch is processed in chunks that keep the column buffer
        # inside the cache; chunking cannot change exact results because
        # every example is multiplied by one identically-shaped GEMM either
        # way (which is also what keeps batched results exactly equal to
        # per-example results).
        per_example = taps * positions * dtype.itemsize
        chunk_size = max(int(_CONV_BUFFER_BYTES // max(per_example, 1)), 1)
        for start in range(0, batch, chunk_size):
            chunk = inputs[start:start + chunk_size]
            count = chunk.shape[0]
            if pad:
                padded = workspace.take(
                    Workspace.PADDED,
                    (count, channels, height + 2 * pad, width + 2 * pad), dtype)
                # The buffer last held another layer's geometry, so the
                # border is cleared on every use: four thin strips.
                padded[:, :, :pad] = 0
                padded[:, :, -pad:] = 0
                padded[:, :, pad:-pad, :pad] = 0
                padded[:, :, pad:-pad, -pad:] = 0
                padded[:, :, pad:-pad, pad:-pad] = chunk
                chunk = padded
            # im2col: one strided copy per kernel tap (k² of them), no big
            # permutation afterwards — the reshapes below are views.  Exact
            # keeps every example's (C*k*k, positions) matrix to itself;
            # fast lays the chunk out (C*k*k, chunk*positions) so it
            # multiplies in a single sgemm.
            if fast:
                columns = workspace.take(
                    Workspace.COLUMNS, (channels, k, k, count, out_h, out_w),
                    dtype)
                by_tap = columns.transpose(1, 2, 3, 0, 4, 5)
            else:
                columns = workspace.take(
                    Workspace.COLUMNS, (count, channels, k, k, out_h, out_w),
                    dtype)
                by_tap = columns.transpose(2, 3, 0, 1, 4, 5)
            for tap_y in range(k):
                for tap_x in range(k):
                    by_tap[tap_y, tap_x] = chunk[
                        :, :,
                        tap_y:tap_y + out_h * stride:stride,
                        tap_x:tap_x + out_w * stride:stride]
            out_chunk = out_matrix[start:start + count]
            if fast:
                # The merged reduction (and float32 itself) round
                # differently from the exact path, which is precisely what
                # the fast tolerance contract budgets for.
                merged = kernel_matrix @ columns.reshape(taps, count * positions)
                merged += bias
                out_chunk[...] = merged.reshape(
                    out_channels, count, positions).transpose(1, 0, 2)
            else:
                np.matmul(kernel_matrix[None],
                          columns.reshape(count, taps, positions), out=out_chunk)
                # Bias is added per chunk while the output slice is
                # cache-hot; a whole-batch add afterwards would re-traverse
                # the full array.
                out_chunk += bias
        return output if batched else output[0]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self, name: str = "relu") -> None:
        self.name = name

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        # In place on an activation the workspace owns (the previous layer's
        # output, which nobody else reads); never on a caller's array.
        inputs = np.asarray(inputs)
        in_place = (workspace is not None and inputs.dtype.kind == "f"
                    and workspace.owns(inputs))
        return np.maximum(inputs, 0.0, out=inputs if in_place else None)

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def flops(self, input_shape: Shape) -> int:
        return int(np.prod(input_shape))


class MaxPool2D(Layer):
    """Max pooling with a square window and equal stride."""

    def __init__(self, pool_size: int = 2, name: str = "maxpool") -> None:
        if pool_size < 1:
            raise ModelError("pool_size must be >= 1")
        self.pool_size = pool_size
        self.name = name

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        return (channels, height // self.pool_size, width // self.pool_size)

    def flops(self, input_shape: Shape) -> int:
        return int(np.prod(self.output_shape(input_shape))) * self.pool_size ** 2

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        if workspace is None:
            workspace = Workspace()
        inputs, batched = _as_batched_maps(inputs, self.name)
        batch, channels, height, width = inputs.shape
        p = self.pool_size
        out_h, out_w = height // p, width // p
        if out_h == 0 or out_w == 0:
            raise ModelError(f"{self.name}: input {inputs.shape[1:]} too small to pool")
        trimmed = inputs[:, :, :out_h * p, :out_w * p]
        # Two stages of elementwise maxima over tap slices (numpy's reduce
        # machinery costs more per element than the comparison itself for
        # short axes): first across the p rows of a window, which reads
        # whole contiguous rows, then across its p columns on the 1/p of
        # the data that is left.  The maximum of a window does not depend
        # on the order it is taken in; the sign of a zero does, for a
        # window whose maximum is a zero present with both signs.
        rows = workspace.take(Workspace.COLUMNS,
                              (batch, channels, out_h, out_w * p), inputs.dtype)
        _maximum_of([trimmed[:, :, tap::p] for tap in range(p)], rows)
        output = workspace.activation((batch, channels, out_h, out_w),
                                      inputs.dtype, inputs)
        _maximum_of([rows[:, :, :, tap::p] for tap in range(p)], output)
        return output if batched else output[0]


def _maximum_of(arrays: Sequence[np.ndarray], out: np.ndarray) -> None:
    """Elementwise maximum of equally shaped ``arrays``, written to ``out``."""
    if len(arrays) == 1:
        out[...] = arrays[0]
        return
    np.maximum(arrays[0], arrays[1], out=out)
    for array in arrays[2:]:
        np.maximum(out, array, out=out)


class GlobalAveragePool(Layer):
    """Average every channel's feature map down to one value."""

    def __init__(self, name: str = "gap") -> None:
        self.name = name

    def output_shape(self, input_shape: Shape) -> Shape:
        return (input_shape[0],)

    def flops(self, input_shape: Shape) -> int:
        return int(np.prod(input_shape))

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        inputs, batched = _as_batched_maps(inputs, self.name)
        output = inputs.mean(axis=(2, 3))
        return output if batched else output[0]


class Flatten(Layer):
    """Flatten a feature map into a vector (per example in a batch)."""

    def __init__(self, name: str = "flatten") -> None:
        self.name = name

    def output_shape(self, input_shape: Shape) -> Shape:
        return (int(np.prod(input_shape)),)

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        inputs = np.asarray(inputs)
        if inputs.ndim >= 3:
            # A single feature map stays 3-D; anything higher-rank carries a
            # leading batch axis.
            if inputs.ndim == 3:
                return inputs.ravel()
            return inputs.reshape(inputs.shape[0], -1)
        if inputs.ndim == 2:
            # (batch, features): already flat per example — keep the batch
            # axis so batched and per-example pipelines stay equivalent.
            return inputs
        return inputs.ravel()


class Dense(Layer):
    """Fully connected layer."""

    def __init__(self, in_features: int, out_features: int, name: str = "dense",
                 seed: int = 0) -> None:
        if in_features < 1 or out_features < 1:
            raise ModelError("Dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        rng = make_rng(seed, "dense", name)
        scale = np.sqrt(2.0 / in_features)
        self.weights = rng.normal(0.0, scale, size=(out_features, in_features))
        self.bias = np.zeros(out_features)

    @property
    def num_parameters(self) -> int:
        return int(self.weights.size + self.bias.size)

    def output_shape(self, input_shape: Shape) -> Shape:
        if int(np.prod(input_shape)) != self.in_features:
            raise ModelError(
                f"{self.name}: expected {self.in_features} inputs, got {input_shape}")
        return (self.out_features,)

    def flops(self, input_shape: Shape) -> int:
        return self.in_features * self.out_features

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        inputs = np.asarray(inputs)
        if inputs.ndim == 2 and inputs.shape[1] == self.in_features:
            vectors, batched = inputs, True
        elif inputs.size == self.in_features:
            # A single example in any shape (the original implementation
            # ravelled multi-dimensional inputs, e.g. a conv feature map fed
            # straight into a dense layer without a Flatten).
            vectors, batched = inputs.reshape(1, -1), False
        else:
            raise ModelError(
                f"{self.name}: expected {self.in_features} inputs or a "
                f"(batch, {self.in_features}) batch, got shape {inputs.shape}")
        if vectors.dtype == np.float32:
            # Fast path: one merged float32 GEMM over the whole batch,
            # covered by the tolerance contract instead of bit-identity.
            # Weights are cast per call (not cached) so mutating the public
            # `weights`/`bias` attributes can never leave a stale copy.
            output = (vectors @ self.weights.T.astype(np.float32)
                      + self.bias.astype(np.float32))
            return output if batched else output[0]
        # One identically-shaped (1, in) @ (in, out) product per example, so
        # batched results are exactly equal to per-example results (a single
        # merged GEMM may round differently).
        output = (vectors[:, None, :] @ self.weights.T)[:, 0, :] + self.bias
        return output if batched else output[0]


class Softmax(Layer):
    """Numerically stable softmax over a vector (row-wise for batches)."""

    def __init__(self, name: str = "softmax") -> None:
        self.name = name

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def flops(self, input_shape: Shape) -> int:
        return 3 * int(np.prod(input_shape))

    def forward(self, inputs: np.ndarray,
                workspace: Optional[Workspace] = None) -> np.ndarray:
        # The fast path keeps float32 end to end; everything else computes
        # in float64 exactly as the seed implementation did.
        dtype = np.float32 if np.asarray(inputs).dtype == np.float32 else np.float64
        inputs = np.asarray(inputs, dtype=dtype)
        if inputs.ndim == 2:
            vectors, batched = inputs, True
        else:
            # Any other rank is one example; the original implementation
            # ravelled multi-dimensional single inputs, so keep doing that.
            vectors, batched = inputs.reshape(1, -1), False
        shifted = vectors - vectors.max(axis=1, keepdims=True)
        exponentials = np.exp(shifted)
        output = exponentials / exponentials.sum(axis=1, keepdims=True)
        return output if batched else output[0]
