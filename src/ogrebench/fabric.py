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
import time
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

from . import wire
from .costs import CostModel
from .metrics import MetricsCollector


class NodeDown(RuntimeError):
    """Delivery to or execution on a node that has been shut down."""


class ClusterAborted(RuntimeError):
    """A receive interrupted because another task of the run failed."""


# How long a blocked recv waits between checks for an abort.
ABORT_POLL_S = 0.05


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
        self._abort_cause: BaseException | None = None

    # -- messaging ---------------------------------------------------------

    def _channel(self, key: tuple[int, int, str]) -> queue.Queue:
        """The channel's queue, made if absent; the caller holds
        _channels_lock."""
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
        with self._channels_lock:
            self._channel((src, dst, tag)).put(data)
        return nbytes

    def recv(self, src: int, dst: int, tag: str = "", timeout: float | None = 120.0):
        """Next message on the (src, dst, tag) channel, which has one receiver
        at a time.  A channel is dropped once drained; a later send makes a
        new one.  Raises ClusterAborted, chained to the cause, once the run
        is aborted, and queue.Empty after ``timeout`` seconds."""
        key = (src, dst, tag)
        with self._channels_lock:
            chan = self._channel(key)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self.check_abort()
            poll = ABORT_POLL_S
            if deadline is not None:
                poll = min(poll, max(deadline - time.monotonic(), 0.0))
            try:
                data = chan.get(timeout=poll)
                break
            except queue.Empty:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
        with self._channels_lock:
            # A send takes this lock to put, so an empty channel that is
            # still registered has no message in flight.
            if chan.empty() and self._channels.get(key) is chan:
                del self._channels[key]
        return wire.decode(data)

    def abort(self, cause: BaseException) -> None:
        """Make every blocked and later recv raise ClusterAborted from cause;
        the first cause is kept."""
        with self._channels_lock:
            if self._abort_cause is None:
                self._abort_cause = cause

    def check_abort(self) -> None:
        """Raise ClusterAborted, chained to the cause, once the run is
        aborted."""
        if self._abort_cause is not None:
            raise ClusterAborted(
                f"run aborted: {self._abort_cause!r}") from self._abort_cause

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

    def join(self, futures: list[Future]) -> list:
        """The tasks' results in order.  On the first failure, or if the run
        is already aborted, cancel the tasks that have not started, abort the
        run, wait for every started task and raise the run's first cause."""
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        cause = next((fut.exception() for fut in futures
                      if fut in done and fut.exception() is not None), None)
        if cause is None and self._abort_cause is None:
            return [fut.result() for fut in futures]
        for fut in futures:
            fut.cancel()
        self.abort(cause)
        wait(futures)
        raise self._abort_cause

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
