"""The camera -> LAN -> edge -> WAN -> cloud stage chain, defined once.

SiEVE is a 3-tier pipeline: a camera ships footage over its LAN link to
an edge server (seek + decode), the edge ships what survives over its WAN
uplink to the cloud (NN inference).  Every simulator in this repository
that moves work through those tiers — the batch
:class:`~repro.cluster.fleet.FleetOrchestrator`, the per-edge shard
simulation of :mod:`repro.parallel.fleet` and the live
:class:`~repro.service.service.StreamingService` — is a thin driver over
the :class:`StageChain` below: it defines a *unit* of work (a camera job,
a frame chunk, a shard row) and hands it to the chain.

The chain owns three things and nothing else:

* **the resources** — one compute station and one WAN uplink per edge,
  LAN links keyed by whatever the driver shares them on (edge position
  for the batch fleets, session id for the live service), and the cloud
  station;
* **the stage order** — ``enter_lan -> enter_edge -> enter_wan ->
  enter_cloud -> on_finish``.  Every entry re-reads the unit's
  ``edge_index`` / ``lan_key`` *at fire time*, so a unit whose placement
  was rewritten mid-flight (fault failover) lands on its new edge at the
  next stage boundary, and :meth:`StageChain.reenter` requeues a failed
  stage the same way;
* **the stage-boundary callbacks** — ``on_finish``, ``on_fail`` and
  ``on_stage_start``.  All default to ``None``, and a ``None`` hook is
  passed straight through to the stations, so a chain with no hooks
  schedules exactly the events the bare stations would.

``EndToEndSimulation.run_serial`` in :mod:`repro.core.pipeline` is the
closed-form oracle the chain is regression-tested against; it shares no
code with this module on purpose.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from ..config import SystemConfig
from ..dataflow.scheduler import EventScheduler, ServiceStation
from ..net.contention import ContendedLink
from ..net.link import NetworkLink

#: The stages a unit moves through, in order (values of ``unit.stage``).
STAGES = ("lan", "edge", "wan", "cloud")


class StageUnit:
    """One unit of work moving through a :class:`StageChain`.

    Drivers subclass this and add what the chain reads at every stage
    entry: ``edge_index`` (position of the unit's edge in the chain) and
    ``lan_key`` (key of its LAN link) — as plain attributes or as
    properties over the driver's own placement record — and optionally
    the transfer-record labels below.

    Attributes:
        work: The planned costs — any object with ``camera_edge_bytes``,
            ``edge_seconds``, ``edge_cloud_bytes`` and ``cloud_seconds``
            (a :class:`~repro.cluster.fleet.CameraJob` or a
            :class:`~repro.service.session.FrameChunk`; edge-only chains
            never read ``cloud_seconds``).
        stage: The stage the unit last entered (one of :data:`STAGES`).
    """

    __slots__ = ("work", "stage")

    #: Labels recorded on the unit's LAN / WAN transfer records.
    lan_description = ""
    wan_description = ""

    def __init__(self, work: Any) -> None:
        self.work = work
        self.stage = STAGES[0]


Hook = Optional[Callable[[Any], None]]


class StageChain:
    """Stations and links of N edges plus the stage order over them.

    Args:
        scheduler: The shared virtual clock every resource queues on.
        config: Bandwidths and latencies of the WAN uplinks (and of LAN
            links added without their own config).
        edge_indices: Global index of each edge, used in resource names;
            ``unit.edge_index`` is the *position* in this sequence (the
            two coincide for a whole fleet, ``range(n)``).
        edge_workers: Parallel compute slots per edge station.
        cloud_workers: Cloud station slots, or ``None`` for an
            **edge-only** chain: no cloud station exists and a unit's WAN
            delivery fires ``on_finish`` — the cloud-arrival instant —
            instead of entering the cloud stage.
        lan_per_edge: Build one LAN link per edge, keyed by edge position
            (the batch shape).  ``False`` starts with none; the driver
            adds keyed links through :meth:`add_lan_link`.
        on_finish: ``(unit)`` — the unit left the chain's last stage.
        on_fail: ``(unit, reason)`` — the unit's current stage submission
            was failed out by the fault plane (``fail_all``).
        on_stage_start: ``(unit)`` — the unit left a queue and occupies
            its stage's resource; ``unit.stage`` names the stage and the
            scheduler clock reads the service-start instant.
    """

    def __init__(self, scheduler: EventScheduler, config: SystemConfig,
                 edge_indices: Sequence[int], edge_workers: int = 1,
                 cloud_workers: Optional[int] = None, *,
                 lan_per_edge: bool = True, on_finish: Hook = None,
                 on_fail: Optional[Callable[[Any, str], None]] = None,
                 on_stage_start: Hook = None) -> None:
        self.scheduler = scheduler
        self.config = config
        self.edge_stations: List[ServiceStation] = [
            ServiceStation(scheduler, f"edge:{index}", capacity=edge_workers)
            for index in edge_indices]
        self.wan_links: List[ContendedLink] = [
            ContendedLink(scheduler, NetworkLink(
                name=f"edge-cloud:{index}",
                bandwidth_mbps=config.edge_cloud_bandwidth_mbps,
                latency_ms=config.edge_cloud_latency_ms))
            for index in edge_indices]
        self.lan_links: Dict[Hashable, ContendedLink] = {}
        self.lan_per_edge = lan_per_edge
        if lan_per_edge:
            for position, index in enumerate(edge_indices):
                self.add_lan_link(position, f"camera-edge:{index}")
        self.cloud_station: Optional[ServiceStation] = (
            ServiceStation(scheduler, "cloud", capacity=cloud_workers)
            if cloud_workers is not None else None)
        self.on_finish = on_finish
        self.on_fail = on_fail
        self.on_stage_start = on_stage_start

    def add_lan_link(self, key: Hashable, name: str,
                     config: Optional[SystemConfig] = None) -> None:
        """Build the LAN link units with ``lan_key == key`` ingest over."""
        config = config if config is not None else self.config
        self.lan_links[key] = ContendedLink(self.scheduler, NetworkLink(
            name=name,
            bandwidth_mbps=config.camera_edge_bandwidth_mbps,
            latency_ms=config.camera_edge_latency_ms))

    def edge_resources(self, position: int) -> list:
        """Everything that goes down with one edge, in pipeline order."""
        shared_lan = ([self.lan_links[position]] if self.lan_per_edge else [])
        return shared_lan + [self.edge_stations[position],
                             self.wan_links[position]]

    # ------------------------------------------------------------------ #
    # The stage order
    # ------------------------------------------------------------------ #
    def submit_at(self, time: float, unit: StageUnit) -> None:
        """Start ``unit`` down the chain at absolute virtual ``time``."""
        self.scheduler.schedule_at(time, self.enter_lan, unit)

    def enter_lan(self, unit: StageUnit) -> None:
        """Camera -> edge transfer over the unit's LAN link."""
        unit.stage = "lan"
        self.lan_links[unit.lan_key].submit(
            unit.work.camera_edge_bytes, description=unit.lan_description,
            on_complete=self.enter_edge, payload=unit,
            on_start=self.on_stage_start, on_fail=self.on_fail)

    def enter_edge(self, unit: StageUnit) -> None:
        """Edge compute on the unit's (current) edge station."""
        unit.stage = "edge"
        self.edge_stations[unit.edge_index].submit(
            unit.work.edge_seconds, on_complete=self.enter_wan, payload=unit,
            on_start=self.on_stage_start, on_fail=self.on_fail)

    def enter_wan(self, unit: StageUnit) -> None:
        """Edge -> cloud transfer over the (current) edge's uplink."""
        unit.stage = "wan"
        self.wan_links[unit.edge_index].submit(
            unit.work.edge_cloud_bytes, description=unit.wan_description,
            on_complete=(self.enter_cloud if self.cloud_station is not None
                         else self.on_finish),
            payload=unit, on_start=self.on_stage_start, on_fail=self.on_fail)

    def enter_cloud(self, unit: StageUnit) -> None:
        """Cloud compute; its completion is the unit's finish."""
        unit.stage = "cloud"
        self.cloud_station.submit(
            unit.work.cloud_seconds, on_complete=self.on_finish, payload=unit,
            on_start=self.on_stage_start, on_fail=self.on_fail)

    def reenter(self, unit: StageUnit) -> None:
        """Requeue ``unit`` at the stage it was in (after a failed stage).

        The entry re-reads the unit's placement, so a requeue after a
        failover lands on the unit's new edge.
        """
        getattr(self, f"enter_{unit.stage}")(unit)
