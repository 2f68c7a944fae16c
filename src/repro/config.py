"""Library-wide configuration objects.

Most components take their own dataclass configs (encoder parameters, scene
profiles, node specs, ...).  This module holds the handful of settings that
are shared across subsystems, most importantly the default hardware
calibration used by the discrete-event cost model that stands in for the
paper's physical edge/cloud testbed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import Optional, Tuple, Type

from .errors import ConfigurationError, SieveError

#: Default wide-area bandwidth between edge and cloud, from Section V of the
#: paper ("We control the bandwidth from edge to cloud server to be 30 Mbps").
DEFAULT_EDGE_CLOUD_BANDWIDTH_MBPS = 30.0

#: Default local bandwidth between camera and edge (not constrained in the
#: paper; cameras stream over a local network).
DEFAULT_CAMERA_EDGE_BANDWIDTH_MBPS = 100.0

#: Resolution the paper resizes I-frames to before shipping them to the
#: cloud-side YOLO model ("resizing them to the resolution of the YOLO model
#: (i.e., 300x300)").
NN_INPUT_RESOLUTION = (300, 300)


#: The NN numeric modes a :class:`SystemConfig` can select: ``"exact"``
#: float64 kernels, bit-identical to the seed, or ``"fast"`` float32 merged
#: GEMMs (see :func:`repro.nn.model.activation_dtype`).
PRECISION_EXACT = "exact"
PRECISION_FAST = "fast"
PRECISION_MODES: Tuple[str, ...] = (PRECISION_EXACT, PRECISION_FAST)


def validate_precision(precision: str) -> str:
    """Return ``precision`` unchanged, raising on unknown modes."""
    if precision not in PRECISION_MODES:
        raise ConfigurationError(
            f"precision must be one of {PRECISION_MODES}, got {precision!r}")
    return precision


def whole_number(value: object, name: str,
                 error: Type[SieveError] = ConfigurationError,
                 least: Optional[int] = None) -> int:
    """``value`` as an ``int`` (one >= ``least`` when given), else ``error``
    (a :class:`ConfigurationError` by default).

    Anything :func:`real_number` refuses (bools and text among them),
    fractions, ``nan`` and ``inf`` are refused rather than truncated.
    """
    if type(value) is not int:  # a plain int needs no type check
        real_number(value, name, error)
    try:
        integral = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        integral = None
    if integral is None or integral != value:
        raise error(
            f"{name} must be a whole number, got {value!r}")
    if least is not None and integral < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    return integral


def real_number(value: object, name: str,
                error: Type[SieveError] = ConfigurationError) -> Real:
    """``value`` unchanged if it is a real number, else ``error`` (a
    :class:`ConfigurationError` by default).

    A ``bool`` is refused although Python counts it as an integer: ``True``
    as a threshold or a count of seconds is a caller's mistake.  ``nan`` and
    ``inf`` pass; ranges are the caller's to check.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class HardwareCalibration:
    """Per-operation costs used by the simulated cluster.

    The values are calibrated to the measurements reported in Section V of
    the paper for the edge desktop (Intel i7-5600) and mirror the relative
    costs the evaluation depends on:

    * I-frame seeking costs ``seek_ms_per_frame_1080p`` scaled by resolution
      (0.43 ms/frame at 1080p, Table III discussion).
    * Full-frame decode costs ``decode_ms_per_frame_1080p`` scaled by
      resolution (8 ms/frame at 1080p).
    * MSE / SIFT similarity add their own per-pixel costs on top of decode.
    * NN inference has a fixed per-frame cost that differs between edge and
      cloud (the cloud Xeon is faster for batch NN serving in the paper's
      setup because it hosts the full model).

    Attributes:
        seek_ms_per_frame_1080p: Metadata-only I-frame seek cost at 1080p.
        decode_ms_per_frame_1080p: Full decode cost per frame at 1080p.
        mse_ms_per_frame_1080p: MSE similarity cost per decoded frame at 1080p.
        sift_ms_per_frame_1080p: SIFT feature+match cost per frame at 1080p.
        jpeg_decode_ms_per_frame_1080p: Still-image decode of one I-frame.
        resize_ms_per_frame: Cost of resizing a decoded frame to the NN input.
        edge_nn_ms_per_frame: NN inference per frame on the edge device.
        cloud_nn_ms_per_frame: NN inference per frame on the cloud server.
        edge_speed_factor: Relative CPU speed of the edge device (1.0 = edge).
        cloud_speed_factor: Relative CPU speed of the cloud server.
    """

    seek_ms_per_frame_1080p: float = 0.43
    decode_ms_per_frame_1080p: float = 11.0
    mse_ms_per_frame_1080p: float = 37.0
    sift_ms_per_frame_1080p: float = 54.0
    jpeg_decode_ms_per_frame_1080p: float = 6.0
    resize_ms_per_frame: float = 1.5
    edge_nn_ms_per_frame: float = 150.0
    cloud_nn_ms_per_frame: float = 45.0
    edge_speed_factor: float = 1.0
    cloud_speed_factor: float = 2.2

    def __post_init__(self) -> None:
        # Chained, so nan (which passes ``<= 0``) and inf are refused: an
        # infinite speed factor makes every cost 0.0, a nan one every
        # cost nan.
        for name, value in asdict(self).items():
            if not 0 < real_number(value, f"HardwareCalibration.{name}"
                                   ) < math.inf:
                raise ConfigurationError(
                    f"HardwareCalibration.{name} must be positive and "
                    f"finite, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for an end-to-end SiEVE deployment.

    Attributes:
        edge_cloud_bandwidth_mbps: Simulated WAN bandwidth edge -> cloud.
        camera_edge_bandwidth_mbps: Simulated LAN bandwidth camera -> edge.
        edge_cloud_latency_ms: One-way propagation latency edge -> cloud.
        camera_edge_latency_ms: One-way propagation latency camera -> edge.
        hardware: Per-operation cost calibration.
        nn_input_resolution: (width, height) frames are resized to before NN
            inference / upload.
        nn_batch_size: Frames fed through the NN per batched forward pass
            (the analysis pipeline and the dataflow detector operators chunk
            their sampled frames to this size).
        build_workers: Worker *processes* used to build experiment
            workloads (dataset render -> analysis -> tuning -> size-only
            encodes; see :class:`repro.parallel.WorkloadBuilder`).  ``1``
            (the default) keeps the serial build path; larger values
            prepare datasets concurrently, each worker writing its own
            content-keyed disk-cache entries, and the parent assembles
            the results deterministically by dataset — byte-identical
            cache artifacts and equal workload objects either way.
        precision: Numeric mode of NN inference.  ``"exact"`` (the
            default) computes in float64, bit-identical to the seed
            implementation; ``"fast"`` runs float32 merged batched GEMMs,
            whose accuracy budgets ``tests/nn/test_differential_nn.py``
            pins.  No library code reads this field: a caller selects the
            float32 path by passing ``precision`` to
            :meth:`repro.nn.model.SequentialModel.forward`,
            ``predict_classes`` or :func:`repro.nn.yolo_lite.classify_frames`.
            The codec has one numeric mode and ignores it.
        seed: Root seed for all stochastic components.
    """

    edge_cloud_bandwidth_mbps: float = DEFAULT_EDGE_CLOUD_BANDWIDTH_MBPS
    camera_edge_bandwidth_mbps: float = DEFAULT_CAMERA_EDGE_BANDWIDTH_MBPS
    edge_cloud_latency_ms: float = 40.0
    camera_edge_latency_ms: float = 5.0
    hardware: HardwareCalibration = field(default_factory=HardwareCalibration)
    nn_input_resolution: tuple = NN_INPUT_RESOLUTION
    nn_batch_size: int = 16
    build_workers: int = 1
    precision: str = PRECISION_EXACT
    seed: int = 20200601

    def __post_init__(self) -> None:
        # Real numbers (a bool is none), compared chained, so nan (which
        # passes ``<= 0``) and inf are refused here rather than becoming
        # every transfer's duration.
        for name in ("edge_cloud_bandwidth_mbps", "camera_edge_bandwidth_mbps"):
            if not 0 < real_number(getattr(self, name), name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        for name in ("edge_cloud_latency_ms", "camera_edge_latency_ms"):
            if not 0 <= real_number(getattr(self, name), name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and non-negative")
        resolution = self.nn_input_resolution
        if not (isinstance(resolution, Sequence) and len(resolution) == 2):
            raise ConfigurationError(
                f"nn_input_resolution must be a (width, height) pair, got "
                f"{resolution!r}")
        for side in resolution:
            if not 0 < real_number(side, "nn_input_resolution") < math.inf:
                raise ConfigurationError("nn_input_resolution must be positive")
        # The dataclass is frozen, so normalised values (whole numbers as
        # ints) are written through object.__setattr__ once here.
        for name in ("nn_batch_size", "build_workers"):
            object.__setattr__(self, name, whole_number(
                getattr(self, name), name, least=1))
        validate_precision(self.precision)


DEFAULT_SYSTEM_CONFIG = SystemConfig()
