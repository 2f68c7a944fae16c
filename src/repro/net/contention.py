"""Shared-link contention driven by the discrete-event scheduler.

A :class:`~repro.net.link.NetworkLink` is pure accounting: ``transfer``
records how long a payload *would* take, but concurrent transfers do not
delay one another.  :class:`ContendedLink` layers queueing on top — it is
the :class:`~repro.dataflow.scheduler.ServiceStation` the link's transfers
are served by, so when many cameras (or many edge servers) share one
uplink, later transfers wait in virtual time and the fleet simulator
observes the resulting queue depths and latency inflation.  The underlying
link still receives one :class:`~repro.net.link.TransferRecord` per
payload, so byte and duration totals stay comparable with the uncontended
accounting.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Optional

from ..dataflow.scheduler import EventScheduler, ServiceStation, _StationJob
from ..errors import NetworkError
from .link import NetworkLink, TransferRecord


class _Transfer(_StationJob):
    """A station job that carries the accounting entry of its transfer."""

    __slots__ = ("record",)


class ContendedLink(ServiceStation):
    """A network link whose transfers queue on a shared event scheduler.

    The link *is* the station its transfers wait at (named
    ``link:<link name>``), so queueing statistics (``stats``,
    ``queue_depth``, ``in_service``, ``utilisation``) and the
    fault-injection hooks (``pause`` partitions the link, ``resume`` lifts
    the partition, ``fail_all`` loses every queued and in-flight transfer)
    are :class:`ServiceStation`'s own.

    Args:
        scheduler: The shared virtual clock.
        link: The link providing bandwidth/latency and byte accounting.
        channels: Number of transfers the link can carry simultaneously
            (1 models strict serialisation, matching a saturated uplink).
    """

    def __init__(self, scheduler: EventScheduler, link: NetworkLink,
                 channels: int = 1) -> None:
        if not (1 <= channels < inf and channels == int(channels)):
            raise NetworkError(
                f"channels must be a whole number >= 1, got {channels}")
        super().__init__(scheduler, f"link:{link.name}", capacity=channels)
        self.link = link
        self._slowdown = 1.0

    @property
    def slowdown(self) -> float:
        """Current degradation factor (1.0 = full bandwidth)."""
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Stretch transfer times of *subsequently submitted* transfers.

        ``factor`` >= 1.0 models degraded bandwidth (a factor of 2 halves
        the effective rate); 1.0 restores full speed.  At exactly 1.0 the
        duration arithmetic is skipped entirely, so the fault-free path
        produces bit-identical floats.
        """
        if not 1.0 <= factor < inf:
            raise NetworkError(
                f"slowdown factor must be finite and >= 1.0, got {factor}")
        self._slowdown = float(factor)

    def submit(self, size_bytes: int, description: str = "",
               on_complete: Optional[Callable[[Any], None]] = None,
               payload: Any = None,
               on_start: Optional[Callable[[Any], None]] = None,
               on_fail: Optional[Callable[[Any, str], None]] = None) -> None:
        """Queue a transfer; ``on_complete(payload)`` fires on delivery.

        The transfer's :class:`~repro.net.link.TransferRecord` — its size,
        label and nominal (un-slowed) duration, computed once here — rides
        on the station job and lands in ``link.transfers`` at delivery,
        just before ``on_complete``; a transfer lost to :meth:`fail_all`
        records nothing.  Starting follows the station's direct-start rule
        (see :meth:`ServiceStation.submit`): an idle, online link carries
        the transfer without queueing it.

        ``on_start(payload)`` fires when the transfer actually occupies the
        link (after any queueing).  ``on_fail(payload, reason)`` fires only
        if the transfer is failed out by :meth:`fail_all`.
        """
        nominal = self.link.transfer_seconds(size_bytes)
        job = _Transfer(
            nominal if self._slowdown == 1.0 else nominal * self._slowdown,
            on_complete, payload, on_start, on_fail)
        job.record = TransferRecord(description, int(size_bytes), nominal)
        self._admit(job)

    def _finish(self, job: _Transfer) -> None:
        if job in self._active:  # else lost to fail_all: nothing moved
            self.link.transfers.append(job.record)
        # Named, not super(): two of a chunk's five events come through
        # here and super() doubles the cost of the hop.
        ServiceStation._finish(self, job)
