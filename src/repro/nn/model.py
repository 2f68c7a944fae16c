"""Sequential model container for the numpy inference engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..contracts import PRECISION_EXACT, activation_dtype
from ..errors import ModelError
from .layers import Layer, Shape, Workspace


@dataclass(frozen=True)
class LayerSummary:
    """Static description of one layer inside a model.

    Attributes:
        index: Position of the layer in the model.
        name: Layer name.
        kind: Layer class name.
        output_shape: Activation shape produced by the layer.
        num_parameters: Trainable parameter count.
        flops: Multiply-accumulate estimate for one forward pass.
        output_bytes: Size of the activation in bytes (float32).
    """

    index: int
    name: str
    kind: str
    output_shape: Shape
    num_parameters: int
    flops: int
    output_bytes: int


class SequentialModel:
    """A feed-forward stack of layers.

    The model owns one :class:`~repro.nn.layers.Workspace`: the layers take
    their scratch and intermediate activations from it, so after the first
    call of a given batch size inference allocates nothing large.  Results
    are copied out of it before they are returned — no array a caller holds
    is ever overwritten by a later call.  (One workspace means one forward
    pass at a time per model, like everything else in this single-threaded
    engine.)

    Args:
        layers: Layers in execution order.
        input_shape: Shape of the model input (``(channels, height, width)``
            for convolutional models).
        name: Model name used in summaries and experiment tables.
    """

    def __init__(self, layers: Sequence[Layer], input_shape: Shape,
                 name: str = "model") -> None:
        if not layers:
            raise ModelError("a model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(int(dim) for dim in input_shape)
        self.name = name
        # Validate the shape chain eagerly so misconfigured models fail fast.
        self._shapes = self._compute_shapes()
        self.workspace = Workspace()

    def _compute_shapes(self) -> List[Shape]:
        shapes = [self.input_shape]
        current = self.input_shape
        for layer in self.layers:
            current = layer.output_shape(current)
            shapes.append(current)
        return shapes

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        """Number of layers."""
        return len(self.layers)

    @property
    def output_shape(self) -> Shape:
        """Shape of the model output."""
        return self._shapes[-1]

    @property
    def num_parameters(self) -> int:
        """Total trainable parameter count."""
        return sum(layer.num_parameters for layer in self.layers)

    def layer_input_shape(self, index: int) -> Shape:
        """Input shape of the layer at ``index``."""
        self._check_index(index)
        return self._shapes[index]

    def layer_output_shape(self, index: int) -> Shape:
        """Output shape of the layer at ``index``."""
        self._check_index(index)
        return self._shapes[index + 1]

    def summary(self) -> List[LayerSummary]:
        """Per-layer static summary (used by the profiler and README docs)."""
        summaries = []
        for index, layer in enumerate(self.layers):
            input_shape = self._shapes[index]
            summaries.append(LayerSummary(
                index=index,
                name=layer.name,
                kind=type(layer).__name__,
                output_shape=self._shapes[index + 1],
                num_parameters=layer.num_parameters,
                flops=layer.flops(input_shape),
                output_bytes=layer.output_size_bytes(input_shape),
            ))
        return summaries

    def total_flops(self) -> int:
        """Total multiply-accumulate count of one forward pass."""
        return sum(entry.flops for entry in self.summary())

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.layers):
            raise ModelError(
                f"layer index {index} out of range [0, {len(self.layers)})")

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray,
                precision: str = PRECISION_EXACT) -> np.ndarray:
        """Run a full forward pass on one example or a leading-axis batch."""
        return self.forward_range(inputs, 0, self.num_layers, precision)

    def forward_range(self, inputs: np.ndarray, start: int, stop: int,
                      precision: str = PRECISION_EXACT) -> np.ndarray:
        """Run layers ``start`` (inclusive) to ``stop`` (exclusive).

        This is the primitive the NN deployment service uses: the edge engine
        runs ``forward_range(x, 0, split)`` and ships the intermediate
        activation to the cloud engine, which runs
        ``forward_range(activation, split, num_layers)``.

        ``inputs`` may be one activation of the expected shape or a batch of
        them with one extra leading axis; a batch flows through every layer's
        vectorised path in one go.

        ``precision`` selects the numeric mode: ``"exact"`` (the default)
        computes in float64 through the bit-identical kernels; ``"fast"``
        casts the activation to float32, routing every layer through its
        merged-GEMM fast kernel under the tolerance contract of
        :data:`repro.contracts.FAST_CONTRACT`.
        """
        if not 0 <= start <= stop <= self.num_layers:
            raise ModelError(
                f"invalid layer range [{start}, {stop}) for {self.num_layers} layers")
        activation = np.asarray(inputs, dtype=activation_dtype(precision))
        expected = tuple(self._shapes[start])
        shape = tuple(activation.shape)
        if shape != expected and shape[1:] != expected:
            raise ModelError(
                f"layer {start} expects input of shape {expected} "
                f"(or a (batch, *{expected}) batch), got {activation.shape}")
        workspace = self.workspace
        for index in range(start, stop):
            activation = self.layers[index].forward(activation, workspace)
        return activation.copy() if workspace.owns(activation) else activation

    def predict_class(self, inputs: np.ndarray,
                      precision: str = PRECISION_EXACT) -> Tuple[int, np.ndarray]:
        """Full forward pass followed by an argmax over the output vector."""
        output = self.forward(inputs, precision)
        vector = np.asarray(output).ravel()
        return int(np.argmax(vector)), vector

    def predict_classes(self, batch: np.ndarray,
                        precision: str = PRECISION_EXACT
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`predict_class`.

        Args:
            batch: Batch of inputs with one extra leading axis.
            precision: Numeric mode (see :meth:`forward_range`).

        Returns:
            ``(indices, outputs)`` — the per-example argmax indices of shape
            ``(batch,)`` and the raw output matrix of shape
            ``(batch, *output_shape)``.
        """
        batch = np.asarray(batch, dtype=activation_dtype(precision))
        if tuple(batch.shape[1:]) != tuple(self.input_shape):
            raise ModelError(
                f"predict_classes expects a (batch, *{self.input_shape}) "
                f"array, got {batch.shape}")
        outputs = self.forward(batch, precision)
        matrix = outputs.reshape(batch.shape[0], -1)
        return np.argmax(matrix, axis=1), outputs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid.
        return (f"SequentialModel(name={self.name!r}, layers={self.num_layers}, "
                f"parameters={self.num_parameters})")
