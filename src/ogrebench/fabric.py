"""The simulated resource fabric: node workers with execution slots,
point-to-point serialization-metered links, and task execution.

Nodes are worker groups inside one process; the message-only discipline
(everything cross-node goes through ``Cluster.send``) preserves distributed
semantics and makes all communication measurable.  Link parameters affect
timing only, never results.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from . import wire
from .costs import CostModel
from .metrics import MetricsCollector


class NodeDown(RuntimeError):
    """Delivery to or execution on a node that has been shut down."""


@dataclass(frozen=True)
class ClusterTopology:
    node_count: int = 4
    cores_per_node: int = 4
    memory_per_node: int = 4 << 30

    def __post_init__(self):
        if self.node_count < 1 or self.cores_per_node < 1 or self.memory_per_node < 1:
            raise ValueError("topology fields must be positive")

    @property
    def total_slots(self) -> int:
        return self.node_count * self.cores_per_node


class Node:
    """One simulated node: an isolated worker with cores_per_node slots."""

    def __init__(self, node_id: int, cores: int):
        self.id = node_id
        self.cores = cores
        self._executor = ThreadPoolExecutor(
            max_workers=cores, thread_name_prefix=f"node{node_id}"
        )
        self.alive = True

    def submit(self, fn, *args, **kwargs) -> Future:
        if not self.alive:
            raise NodeDown(f"node {self.id} is down")
        return self._executor.submit(fn, *args, **kwargs)

    def shutdown(self):
        self.alive = False
        self._executor.shutdown(wait=True)


class Cluster:
    """Spawned fabric: nodes, links, task launch and the metrics collector."""

    def __init__(self, topology: ClusterTopology, costs: CostModel | None = None,
                 metrics: MetricsCollector | None = None):
        self.topology = topology
        self.costs = costs or CostModel()
        self.metrics = metrics or MetricsCollector()
        self.nodes = [Node(i, topology.cores_per_node) for i in range(topology.node_count)]
        self._channels: dict[tuple[int, int, str], queue.Queue] = {}
        self._channels_lock = threading.Lock()

    # -- messaging ---------------------------------------------------------

    def _channel(self, src: int, dst: int, tag: str) -> queue.Queue:
        key = (src, dst, tag)
        with self._channels_lock:
            chan = self._channels.get(key)
            if chan is None:
                chan = self._channels[key] = queue.Queue()
            return chan

    def send(self, src: int, dst: int, payload, tag: str = "",
             compressed: bool = False) -> int:
        """Serialize, account, and deliver FIFO per (src, dst, tag) channel.

        Returns the accounted (serialized) byte size.
        """
        self._check_node(src)
        self._check_node(dst)
        data = (wire.encode_compressed(payload) if compressed
                else wire.encode(payload))
        nbytes = len(data)
        if src == dst:
            self.metrics.add("intra_node_messages")
            self.metrics.add("intra_node_bytes", nbytes)
        else:
            self.metrics.add("network_messages")
            self.metrics.add("network_bytes", nbytes)
            self.costs.charge_message(nbytes)
        self._channel(src, dst, tag).put(data)
        return nbytes

    def recv(self, src: int, dst: int, tag: str = "", timeout: float | None = 120.0):
        data = self._channel(src, dst, tag).get(timeout=timeout)
        return wire.decode(data)

    # -- task execution ----------------------------------------------------

    def charge_task_launch(self, kind: str) -> None:
        """Account a task launch and charge its dispatch overhead class."""
        self.metrics.add("tasks_launched")
        if kind == "process":
            self.costs.sleep_ms(self.costs.process_task_ms)
        elif kind == "thread":
            self.costs.sleep_ms(self.costs.thread_task_ms)
        elif kind == "cu":
            self.costs.sleep_ms(self.costs.cu_launch_ms)
        elif kind != "worker":
            raise ValueError(f"unknown task kind {kind!r}")

    def run_task(self, node_id: int, fn, *args, kind: str = "process") -> Future:
        """Launch a task on a node slot; queues when all slots are busy."""
        node = self._check_node(node_id)

        def body():
            self.charge_task_launch(kind)
            return fn(*args)

        return node.submit(body)

    # -- lifecycle ---------------------------------------------------------

    def _check_node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise KeyError(f"no node {node_id}")
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeDown(f"node {node_id} is down")
        return node

    def shutdown(self):
        for node in self.nodes:
            node.shutdown()


def spawn_cluster(topology: ClusterTopology, costs: CostModel | None = None,
                  metrics: MetricsCollector | None = None) -> Cluster:
    return Cluster(topology, costs, metrics)
