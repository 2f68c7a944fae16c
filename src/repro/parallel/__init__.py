"""Multiprocess execution layer.

The simulators and experiment harnesses are single-threaded by design
(deterministic virtual clocks, bit-stable numerics); this package is where
the library crosses process boundaries instead.  Its one resident is the
workload builder — dataset render/analyze/tune/encode pipelines sharded
per dataset behind the content-keyed disk cache — used by the experiment
harnesses when ``SystemConfig.build_workers > 1``.
"""

from .workloads import BuildTask, WorkloadBuilder, execute_build_task

__all__ = ["BuildTask", "WorkloadBuilder", "execute_build_task"]
