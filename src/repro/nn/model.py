"""Sequential model container for the numpy inference engine."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..config import PRECISION_EXACT, PRECISION_FAST, validate_precision
from ..errors import ModelError
from .layers import Layer, Shape, Workspace


def activation_dtype(precision: str):
    """The numpy dtype the NN engine computes in under ``precision``."""
    validate_precision(precision)
    return np.float32 if precision == PRECISION_FAST else np.float64


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

        :meth:`forward` is ``forward_range(x, 0, num_layers)``; a partial
        range resumes from the activation a previous range returned, so
        ``forward_range(forward_range(x, 0, k), k, num_layers)`` equals
        ``forward(x)``.

        ``inputs`` may be one activation of the expected shape or a batch of
        them with one extra leading axis; a batch flows through every layer's
        vectorised path in one go.

        ``precision`` selects the numeric mode: ``"exact"`` (the default)
        computes in float64 through the bit-identical kernels; ``"fast"``
        casts the activation to float32, routing every layer through its
        merged-GEMM fast kernel, within the accuracy budgets
        ``tests/nn/test_differential_nn.py`` pins.
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

    def predict_classes(self, batch: np.ndarray,
                        precision: str = PRECISION_EXACT
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward pass and per-example argmax over the output vector.

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
        return f"SequentialModel(name={self.name!r}, layers={self.num_layers})"
