"""Shared-link contention driven by the discrete-event scheduler.

A :class:`~repro.net.link.NetworkLink` is pure accounting: ``transfer``
records how long a payload *would* take, but concurrent transfers do not
delay one another.  :class:`ContendedLink` layers queueing on top — it is
the one-channel :class:`~repro.dataflow.scheduler.ServiceStation` the
link's transfers are served by, so when many cameras (or many edge
servers) share one uplink, later transfers wait in virtual time and the
fleet simulator observes the resulting queue depths and latency
inflation.  Each delivered payload adds its size and duration to the
underlying link's totals, so they stay comparable with the uncontended
accounting.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..dataflow.scheduler import EventScheduler, ServiceStation, _StationJob
from .link import NetworkLink


class _Transfer(_StationJob):
    """A station job that carries its transfer's size to the link's
    totals."""

    __slots__ = ("size_bytes",)


class ContendedLink(ServiceStation):
    """A network link whose transfers queue on a shared event scheduler.

    The link *is* the station its transfers wait at (named
    ``link:<link name>``), carrying one transfer at a time (strict
    serialisation, matching a saturated uplink).  Queueing statistics
    (``stats``, ``queue_depth``, ``in_service``, ``utilisation``) and the
    fault-injection hooks (``pause`` partitions the link, ``resume`` lifts
    the partition, ``fail_all`` loses every queued and in-flight transfer)
    are :class:`ServiceStation`'s own.

    Args:
        scheduler: The shared virtual clock.
        link: The link providing bandwidth/latency and byte accounting.
    """

    def __init__(self, scheduler: EventScheduler, link: NetworkLink) -> None:
        super().__init__(scheduler, f"link:{link.name}")
        self.link = link

    def submit(self, size_bytes: int,
               on_complete: Optional[Callable[[Any], None]] = None,
               payload: Any = None,
               on_fail: Optional[Callable[[Any, str], None]] = None) -> None:
        """Queue a transfer; ``on_complete(payload)`` fires on delivery.

        The transfer's size and duration, computed once here, ride on the
        station job and are added to the link's totals at delivery, just
        before ``on_complete``; a transfer lost to :meth:`fail_all` counts
        nothing.  Starting follows the station's direct-start rule (see
        :meth:`ServiceStation.submit`): an idle, online link carries the
        transfer without queueing it.

        ``on_fail(payload, reason)`` fires only if the transfer is failed
        out by :meth:`fail_all`.
        """
        job = _Transfer(self.link.transfer_seconds(size_bytes),
                        on_complete, payload, on_fail)
        job.size_bytes = int(size_bytes)
        self._admit(job)

    def _finish(self, job: _Transfer) -> None:
        if job in self._active:  # else lost to fail_all: nothing moved
            link = self.link
            link.transfer_count += 1
            link.total_bytes += job.size_bytes
            link.total_seconds += job.service_seconds
        # Named, not super(): two of a chunk's five events come through
        # here and super() doubles the cost of the hop.
        ServiceStation._finish(self, job)
