"""Simulated network links.

The paper controls the edge -> cloud bandwidth to 30 Mbps to emulate an
average WAN connection.  :class:`NetworkLink` models a point-to-point link
with a fixed bandwidth and propagation latency and keeps running totals of
what it delivered (transfers, bytes, seconds), which is what the
data-transfer evaluation (Figure 5) reads out.  A link's memory does not
grow with the number of transfers it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from ..config import NON_NEGATIVE, POSITIVE, real_number
from ..errors import NetworkError


@dataclass
class NetworkLink:
    """A point-to-point link with fixed bandwidth and latency.

    Attributes:
        name: Link name (``"camera-edge"``, ``"edge-cloud"``).
        bandwidth_mbps: Link bandwidth in megabits per second.
        latency_ms: One-way propagation latency in milliseconds.
        transfer_count: Transfers delivered so far.
        total_bytes: Bytes delivered so far.
        total_seconds: Nominal transfer seconds delivered so far, added
            one transfer at a time in delivery order (a left fold from 0,
            which is what ``sum`` does on Python 3.11 and not on 3.12).
    """

    name: str
    bandwidth_mbps: float
    latency_ms: float = 0.0
    transfer_count: int = 0
    total_bytes: int = 0
    total_seconds: float = 0.0

    def __post_init__(self) -> None:
        # An infinite bandwidth would move anything in 0.0 s.
        real_number(self.bandwidth_mbps, "bandwidth_mbps", NetworkError,
                    **POSITIVE)
        real_number(self.latency_ms, "latency_ms", NetworkError,
                    **NON_NEGATIVE)

    def transfer_seconds(self, size_bytes: int) -> float:
        """Time to move ``size_bytes`` over the link (latency included)."""
        if type(size_bytes) is not int and type(size_bytes) is not float:
            real_number(size_bytes, "size_bytes", NetworkError)
        if not 0 <= size_bytes < inf:
            raise NetworkError(
                f"size_bytes must be finite and >= 0, got {size_bytes}")
        return (size_bytes * 8) / (self.bandwidth_mbps * 1e6) + self.latency_ms / 1e3

    def transfer(self, size_bytes: int) -> None:
        """Add one delivered transfer to the totals."""
        # Duration first: it is what refuses a size int() would choke on.
        duration = self.transfer_seconds(size_bytes)
        self.transfer_count += 1
        self.total_bytes += int(size_bytes)
        self.total_seconds += duration
