"""Exception hierarchy for the SiEVE reproduction.

Every error raised by the library derives from :class:`SieveError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class SieveError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(SieveError):
    """Raised when a component is constructed or used with invalid parameters."""


class CodecError(SieveError):
    """Base class for errors raised by the video codec substrate."""


class BitstreamError(CodecError):
    """Raised when a serialized bitstream is malformed or truncated."""


class DecodeError(CodecError):
    """Raised when a frame or video cannot be decoded."""


class EncodeError(CodecError):
    """Raised when a frame or video cannot be encoded."""


class DatasetError(SieveError):
    """Raised when a dataset specification is unknown or inconsistent."""


class ModelError(SieveError):
    """Raised by the neural-network substrate for invalid models or inputs."""


class DataflowError(SieveError):
    """Raised by the event scheduler and its service stations (an event in
    the past, a negative service time, a station without workers)."""


class NetworkError(SieveError):
    """Raised by the simulated network layer."""


class ClusterError(SieveError):
    """Raised by the simulated cluster (camera/edge/cloud) layer."""


class PipelineError(SieveError):
    """Raised by the end-to-end SiEVE pipeline."""


class TuningError(SieveError):
    """Raised by the offline encoder-parameter tuner."""


class ServiceError(SieveError):
    """Raised by the real-time streaming service layer."""


class FaultError(SieveError):
    """Raised by the fault-injection plane for invalid plans or misuse."""


class AdmissionError(ServiceError):
    """Raised when a new stream session is refused admission: a duplicate
    camera, a full service, an unknown tenant or one at its quota, or a
    pinned edge that is malformed, out of range or offline.  Every refusal
    is final; the caller decides whether to retry."""


class BackpressureError(ServiceError):
    """Raised when a frame push exceeds a session's backpressure bounds."""
