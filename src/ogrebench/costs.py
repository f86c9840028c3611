"""Declared cost-model defaults for the simulated fabric, stores and runtimes.

These stand in for overheads that real systems pay (scheduler daemon startup,
per-task dispatch, shared-filesystem metadata and bandwidth limits), as real
sleeps that never affect results or counters.  Only ``Cluster.charge`` calls
them: its ``fabric.CHARGES`` table is where a delay meets its counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class CostModel:
    # Charged once per job submitted to a resource manager (daemon/JVM startup
    # analogue; only the per-iteration-job engines pay it repeatedly).
    job_launch_ms: float = 200.0
    # Charged per compute unit spawned inside a pilot.
    cu_launch_ms: float = 5.0
    # Charged per process-based task launch (map/reduce tasks).
    process_task_ms: float = 50.0
    # Charged per thread-based task dispatched by an application-level
    # runtime inside long-running containers.
    thread_task_ms: float = 40.0
    # Charged per container grant inside the resource manager's serialized
    # event loop (per-container negotiation; paid again by every fresh job).
    container_grant_ms: float = 20.0
    # Link profile: fixed per-message latency and per-byte transfer time.
    link_latency_us: float = 50.0
    link_bandwidth_bps: float = 1e9
    # Store model: local-disk bandwidth, the shared-store per-byte factor
    # relative to local, and per-operation metadata latencies.
    store_local_bandwidth_bps: float = 500e6
    shared_store_byte_factor: float = 4.0
    store_op_ms: float = 1.0
    shared_store_op_ms: float = 5.0
    # Master switch: with injected delays off, only byte/message accounting
    # happens and results are unchanged.
    inject_delays: bool = True

    def sleep_ms(self, ms: float) -> None:
        if self.inject_delays and ms > 0:
            time.sleep(ms / 1000.0)

    def charge_message(self, nbytes: int) -> None:
        if self.inject_delays:
            secs = self.link_latency_us / 1e6 + nbytes / self.link_bandwidth_bps
            if secs > 0:
                time.sleep(secs)

    def charge_store(self, nbytes: int, shared: bool) -> None:
        if not self.inject_delays:
            return
        per_byte = 1.0 / self.store_local_bandwidth_bps
        op_ms = self.store_op_ms
        if shared:
            per_byte *= self.shared_store_byte_factor
            op_ms = self.shared_store_op_ms
        time.sleep(op_ms / 1000.0 + nbytes * per_byte)


ZERO_COSTS = CostModel(inject_delays=False)
