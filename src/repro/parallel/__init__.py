"""Multiprocess execution layer.

The simulators and experiment harnesses are single-threaded by design
(deterministic virtual clocks, bit-stable numerics); this package is where
the library crosses process boundaries instead.  Residents:

* the fleet decomposition — per-edge pipeline simulations dealt longest
  first over a ``ProcessPoolExecutor``, with an exact single-pass cloud
  replay — used by :class:`repro.cluster.fleet.FleetOrchestrator` when
  ``SystemConfig.fleet_workers > 1``;
* the shard transport — shared memory where the platform has it, the
  pool's pickle channel where it does not — moving the packed per-job
  arrays between the fleet parent and its workers;
* the workload builder — dataset render/analyze/tune/encode pipelines
  sharded per dataset behind the content-keyed disk cache — used by the
  experiment harnesses when ``SystemConfig.build_workers > 1``.
"""

from .fleet import (EdgeShardStats, ShardOutcome, ShardWorkerSpec,
                    empty_edge_result, replay_cloud, replay_order,
                    run_fleet_shard, run_parallel)
from .transport import (ArraySpec, PickleTransport, ShardHandle,
                        SharedMemoryTransport, ShardTransport,
                        active_segment_names, open_handle, pick_transport,
                        shm_available)
from .workloads import (BuildTask, WorkloadBuilder, execute_build_task,
                        task_cache_entries)

__all__ = [
    "EdgeShardStats", "ShardOutcome", "ShardWorkerSpec", "empty_edge_result",
    "replay_cloud", "replay_order", "run_fleet_shard", "run_parallel",
    "ArraySpec", "PickleTransport", "ShardHandle", "SharedMemoryTransport",
    "ShardTransport", "active_segment_names", "open_handle",
    "pick_transport", "shm_available",
    "BuildTask", "WorkloadBuilder", "execute_build_task",
    "task_cache_entries",
]
