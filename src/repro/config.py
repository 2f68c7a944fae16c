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
from types import MappingProxyType
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


#: The bounds of the common ranges: ``**POSITIVE`` is "> 0 and finite",
#: ``**NON_NEGATIVE`` ">= 0 and finite", ``**FINITE`` neither nan nor inf.
POSITIVE = MappingProxyType({"above": 0, "below": math.inf})
NON_NEGATIVE = MappingProxyType({"least": 0, "below": math.inf})
FINITE = MappingProxyType({"above": -math.inf, "below": math.inf})


def whole_number(value: object, name: str,
                 error: Type[SieveError] = ConfigurationError,
                 least: Optional[Real] = None, *,
                 above: Optional[Real] = None, most: Optional[Real] = None,
                 below: Optional[Real] = None) -> int:
    """``value`` as an ``int`` within the bounds :func:`real_number` takes,
    else ``error``: what :func:`real_number` refuses, fractions, ``nan``
    and ``inf`` are refused rather than truncated."""
    if type(value) is not int:  # a plain int needs no type check
        real_number(value, name, error)
    try:
        integral = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        integral = None
    if integral is None or integral != value:
        raise error(f"{name} must be a whole number, got {value!r}")
    # Inline, not a call to real_number: the call count guards would see it.
    if ((least is None or integral >= least)
            and (above is None or integral > above)
            and (most is None or integral <= most)
            and (below is None or integral < below)):
        return integral
    _out_of_bounds(value, name, error, least, above, most, below)


def real_number(value: object, name: str,
                error: Type[SieveError] = ConfigurationError,
                least: Optional[Real] = None, *,
                above: Optional[Real] = None, most: Optional[Real] = None,
                below: Optional[Real] = None) -> Real:
    """``value`` unchanged if it is a real number within the bounds, else
    ``error``.

    The bounds are ``value >= least``, ``> above``, ``<= most`` and
    ``< below``, each checked as holding, so with any bound given ``nan``
    (for which every comparison is false) is refused; ``below=math.inf``
    means "finite".  A ``bool`` is refused: ``True`` as a threshold or a
    count of seconds is a caller's mistake.
    """
    if type(value) not in (float, int) and (  # those need no type check
            isinstance(value, bool) or not isinstance(value, Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    if ((least is None or value >= least) and (above is None or value > above)
            and (most is None or value <= most)
            and (below is None or value < below)):
        return value
    _out_of_bounds(value, name, error, least, above, most, below)


def _out_of_bounds(value, name, error, least, above, most, below) -> None:
    """Raise ``error`` for a ``value`` that misses a bound."""
    raise error(f"{name} must be " + " and ".join(
        f"{sign} {bound}" for sign, bound in (
            (">=", least), (">", above), ("<=", most), ("<", below))
        if bound is not None) + f", got {value!r}")


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
        # An infinite speed factor would make every cost 0.0, a nan one
        # every cost nan.
        for name, value in asdict(self).items():
            real_number(value, f"HardwareCalibration.{name}", **POSITIVE)


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
            encodes; see :class:`repro.experiments.WorkloadBuilder`), the
            one setting of the worker count.  ``1`` (the default) keeps
            the serial build path; larger values build datasets
            concurrently, and the pool returns each result to the
            parent, which reads them off its cache in dataset order:
            equal to the serial build either way.
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
        for name in ("edge_cloud_bandwidth_mbps", "camera_edge_bandwidth_mbps"):
            real_number(getattr(self, name), name, **POSITIVE)
        for name in ("edge_cloud_latency_ms", "camera_edge_latency_ms"):
            real_number(getattr(self, name), name, **NON_NEGATIVE)
        if not isinstance(self.hardware, HardwareCalibration):
            raise ConfigurationError(
                f"hardware must be a HardwareCalibration, got {self.hardware!r}")
        resolution = self.nn_input_resolution
        if not (isinstance(resolution, Sequence) and len(resolution) == 2):
            raise ConfigurationError(
                f"nn_input_resolution must be a (width, height) pair, got "
                f"{resolution!r}")
        for side in resolution:
            real_number(side, "nn_input_resolution", **POSITIVE)
        # The dataclass is frozen, so normalised values (whole numbers as
        # ints) are written through object.__setattr__ once here.
        for name in ("nn_batch_size", "build_workers"):
            object.__setattr__(self, name, whole_number(
                getattr(self, name), name, least=1))
        whole_number(self.seed, "seed")
        validate_precision(self.precision)


DEFAULT_SYSTEM_CONFIG = SystemConfig()
