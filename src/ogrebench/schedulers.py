"""The three resource-management architectures plus the pilot-job overlay.

* Centralized: job-level gang scheduling of whole nodes, all-or-nothing,
  FIFO, no task-level visibility.
* Multi-level: a resource manager granting containers elastically to
  registered application masters, with locality-preferred placement and a
  bounded locality wait.
* Decentralized: sampling-based task placement (probe s nodes, pick the
  shortest queue).
* Pilot: a placeholder allocation obtained once from an underlying scheduler,
  inside which compute units are slot-scheduled with no further
  resource-manager interaction.

``run_wave(app_id, preferred, task)`` runs ``task(i, node)`` for each task
of a wave and returns the node each ran on.  Centralized: one gang lease of
every node, task i on leased node i mod n, preferences ignored.  Multi-level:
one job, one tagged container per task preferring its nodes; a task starts
as its grant arrives and frees its container as it ends.  Decentralized: its
own job launch, then one sampled placement per task.  No slot goes back
while a task on it still runs, and a failing task aborts the run before its
own slot goes back, so no later task of the wave runs.

The resource manager processes requests in a serialized (lock-protected)
grant pass; pending requests are served FIFO and nodes are scanned in
ascending id order, so grant streams are deterministic for a fixed call
sequence.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fabric import Cluster

LOCALITY_WAIT_ROUNDS = 3


class SchedulerError(RuntimeError):
    pass


class RejectedJob(SchedulerError):
    pass


class RejectedRequest(SchedulerError):
    pass


class DuplicateApplication(SchedulerError):
    pass


class UnknownContainer(SchedulerError):
    pass


@dataclass(frozen=True)
class JobRequest:
    app_id: str
    node_count: int


@dataclass(frozen=True)
class ResourceRequest:
    app_id: str
    count: int
    cores: int = 1
    memory: int = 1 << 30
    preferred_nodes: tuple[int, ...] = ()
    tag: str = ""  # client correlation tag, echoed on granted containers

    def __post_init__(self):
        if self.count < 1 or self.cores < 1 or self.memory < 1:
            raise RejectedRequest("container counts and shapes must be positive")


class ContainerState(enum.Enum):
    GRANTED = "granted"
    RELEASED = "released"
    REVOKED = "revoked"


@dataclass
class Container:
    id: int
    node: int
    cores: int
    memory: int
    state: ContainerState = ContainerState.GRANTED
    locality_preferred: bool | None = None  # None: no preference expressed
    request_tag: str = ""


@dataclass(frozen=True)
class GangAllocation:
    job: JobRequest
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class NodeLease:
    """Whole nodes held for one application, and how to give them back."""

    nodes: tuple[int, ...]
    release: Callable[[], None]


def _guarded(cluster: Cluster, task, i: int, node: int):
    """A wave's task i on node: skipped once the run is aborted, and a
    failure aborts the run before the task's slot is given back."""
    cluster.check_abort()
    try:
        return task(i, node)
    except BaseException as exc:
        cluster.abort(exc)
        raise


def _run_placed(cluster: Cluster, nodes: list[int], task) -> list[int]:
    """Run task(i, nodes[i]) for every i and wait for all of them."""
    cluster.join([cluster.run_task(node, _guarded, cluster, task, i, node)
                  for i, node in enumerate(nodes)])
    return nodes


# ---------------------------------------------------------------------------
# Centralized gang scheduler
# ---------------------------------------------------------------------------


class CentralizedScheduler:
    """Whole-node gang scheduling: blocks until the full node set is free."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._free = set(range(cluster.topology.node_count))
        self._cond = threading.Condition()
        self._waiters: deque[int] = deque()
        self._ticket = itertools.count()

    def submit_job(self, job: JobRequest) -> GangAllocation:
        if job.node_count > self.cluster.topology.node_count:
            raise RejectedJob(
                f"job wants {job.node_count} nodes, cluster has "
                f"{self.cluster.topology.node_count}"
            )
        self.cluster.metrics.add("jobs_launched")
        self.cluster.costs.sleep_ms(self.cluster.costs.job_launch_ms)
        ticket = next(self._ticket)
        with self._cond:
            self._waiters.append(ticket)
            while not (self._waiters[0] == ticket and len(self._free) >= job.node_count):
                self._cond.wait()
            self._waiters.popleft()
            nodes = tuple(sorted(self._free)[: job.node_count])
            self._free.difference_update(nodes)
            self._cond.notify_all()
        return GangAllocation(job, nodes)

    def release(self, allocation: GangAllocation) -> None:
        with self._cond:
            self._free.update(allocation.nodes)
            self._cond.notify_all()

    def lease(self, app_id: str, n: int) -> NodeLease:
        """n whole nodes as one gang job."""
        allocation = self.submit_job(JobRequest(app_id, n))
        return NodeLease(allocation.nodes, lambda: self.release(allocation))

    def run_wave(self, app_id: str, preferred, task) -> list[int]:
        """Job-level scheduling: no task visibility, no locality awareness."""
        lease = self.lease(app_id, self.cluster.topology.node_count)
        nodes = [lease.nodes[i % len(lease.nodes)] for i in range(len(preferred))]
        try:
            return _run_placed(self.cluster, nodes, task)
        finally:
            lease.release()

    def free_nodes(self) -> int:
        with self._cond:
            return len(self._free)


# ---------------------------------------------------------------------------
# Multi-level scheduler (resource manager + application masters)
# ---------------------------------------------------------------------------


@dataclass
class GrantEvent:
    container: Container


@dataclass
class RevokeEvent:
    container: Container


@dataclass
class _Pending:
    session: "AppMasterSession"
    request: ResourceRequest
    remaining: int
    rounds_waited: int = 0


class AppMasterSession:
    """Per-application agent session: receives grant and revoke events."""

    def __init__(self, rm: "MultilevelScheduler", app_id: str):
        self.rm = rm
        self.app_id = app_id
        self.events: queue.Queue = queue.Queue()
        self.live: dict[int, Container] = {}
        self.closed = False

    def request_containers(self, request: ResourceRequest) -> None:
        self.rm._request(self, request)

    def next_event(self, timeout: float | None = 120.0):
        return self.events.get(timeout=timeout)

    def wait_for_grants(self, count: int, timeout: float | None = 120.0) -> list[Container]:
        """Convenience: block until `count` grant events arrive."""
        grants = []
        while len(grants) < count:
            ev = self.next_event(timeout=timeout)
            if isinstance(ev, GrantEvent):
                grants.append(ev.container)
        return grants

    def release(self, containers) -> None:
        self.rm._release(self, [c.id for c in containers])

    def deregister(self) -> None:
        self.rm._deregister(self)


class MultilevelScheduler:
    """Resource manager granting containers elastically, FIFO over requests,
    with locality-preferred placement and a bounded locality wait."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        topo = cluster.topology
        self._lock = threading.Lock()
        self._sessions: dict[str, AppMasterSession] = {}
        self._pending: deque[_Pending] = deque()
        self._used_cores = [0] * topo.node_count
        self._used_memory = [0] * topo.node_count
        self._containers: dict[int, Container] = {}
        self._next_container = itertools.count()

    # -- application-facing API -------------------------------------------

    def register_app_master(self, app_id: str) -> AppMasterSession:
        with self._lock:
            if app_id in self._sessions:
                raise DuplicateApplication(app_id)
            session = AppMasterSession(self, app_id)
            self._sessions[app_id] = session
            return session

    def submit_job(self, app_id: str) -> AppMasterSession:
        """Register an application and charge one job submission."""
        self.cluster.metrics.add("jobs_launched")
        self.cluster.costs.sleep_ms(self.cluster.costs.job_launch_ms)
        return self.register_app_master(app_id)

    def lease(self, app_id: str, n: int) -> NodeLease:
        """n whole-node containers, one per node, under one job submission;
        the lease holds them until the application deregisters."""
        session = self.submit_job(app_id)
        topo = self.cluster.topology
        session.request_containers(ResourceRequest(
            app_id, count=n, cores=topo.cores_per_node,
            memory=topo.memory_per_node))
        grants = session.wait_for_grants(n)
        return NodeLease(tuple(sorted(c.node for c in grants)),
                         session.deregister)

    def run_wave(self, app_id: str, preferred, task) -> list[int]:
        """Elastic usage: a freed container lets a pending request in."""
        session = self.submit_job(app_id)

        def run(container: Container):
            try:
                return _guarded(self.cluster, task, int(container.request_tag),
                                container.node)
            finally:
                session.release([container])

        nodes = [0] * len(preferred)
        futures = []
        try:
            for i, prefs in enumerate(preferred):
                session.request_containers(ResourceRequest(
                    app_id, count=1, preferred_nodes=prefs, tag=str(i)))
            while len(futures) < len(preferred):
                ev = session.next_event()
                if isinstance(ev, GrantEvent):
                    container = ev.container
                    nodes[int(container.request_tag)] = container.node
                    futures.append(self.cluster.run_task(container.node, run,
                                                         container))
            self.cluster.join(futures)
            return nodes
        finally:
            session.deregister()

    def revoke_containers(self, session: AppMasterSession, container_ids) -> None:
        """Ask the application to give containers back; capacity returns when
        the application releases them (i.e. after task completion)."""
        with self._lock:
            for cid in container_ids:
                container = self._containers.get(cid)
                if container is None or container.id not in session.live:
                    raise UnknownContainer(cid)
                container.state = ContainerState.REVOKED
                session.events.put(RevokeEvent(container))

    # -- internal, called via the session ---------------------------------

    def _request(self, session: AppMasterSession, request: ResourceRequest) -> None:
        topo = self.cluster.topology
        if request.cores > topo.cores_per_node or request.memory > topo.memory_per_node:
            raise RejectedRequest(
                f"container shape {request.cores}c/{request.memory}B exceeds node capacity"
            )
        if session.closed or self._sessions.get(session.app_id) is not session:
            raise SchedulerError("request without a registered application master")
        with self._lock:
            self._pending.append(_Pending(session, request, request.count))
            self._grant_pass()

    def _release(self, session: AppMasterSession, container_ids) -> None:
        with self._lock:
            for cid in container_ids:
                container = self._containers.pop(cid, None)
                if container is None:
                    raise UnknownContainer(cid)
                container.state = ContainerState.RELEASED
                session.live.pop(cid, None)
                self._used_cores[container.node] -= container.cores
                self._used_memory[container.node] -= container.memory
            self._grant_pass()

    def _deregister(self, session: AppMasterSession) -> None:
        with self._lock:
            session.closed = True
            self._pending = deque(p for p in self._pending if p.session is not session)
            self._sessions.pop(session.app_id, None)
            for cid in list(session.live):
                container = self._containers.pop(cid)
                container.state = ContainerState.RELEASED
                session.live.pop(cid)
                self._used_cores[container.node] -= container.cores
                self._used_memory[container.node] -= container.memory
            self._grant_pass()

    def _fits(self, node: int, request: ResourceRequest) -> bool:
        topo = self.cluster.topology
        return (self._used_cores[node] + request.cores <= topo.cores_per_node
                and self._used_memory[node] + request.memory <= topo.memory_per_node)

    def _grant_on(self, pending: _Pending, node: int, preferred: bool | None) -> None:
        request = pending.request
        self.cluster.costs.sleep_ms(self.cluster.costs.container_grant_ms)
        container = Container(next(self._next_container), node, request.cores,
                              request.memory, locality_preferred=preferred,
                              request_tag=request.tag)
        self._containers[container.id] = container
        self._used_cores[node] += request.cores
        self._used_memory[node] += request.memory
        pending.session.live[container.id] = container
        pending.remaining -= 1
        pending.session.events.put(GrantEvent(container))

    def _grant_pass(self) -> None:
        """One scheduling round, FIFO over pending requests.  A request held
        up only by its locality preference lets later requests through (and
        ages toward the locality-wait bound); a request starved of capacity
        blocks the queue, so FIFO order prevents permanent starvation.  Runs
        under the lock."""
        topo = self.cluster.topology
        for pending in list(self._pending):
            request = pending.request
            while pending.remaining > 0:
                node = None
                preferred: bool | None = None
                if request.preferred_nodes:
                    for cand in request.preferred_nodes:
                        if not 0 <= cand < topo.node_count:
                            raise RejectedRequest(f"unknown preferred node {cand}")
                        if self._fits(cand, request):
                            node, preferred = cand, True
                            break
                    if node is None and pending.rounds_waited >= LOCALITY_WAIT_ROUNDS:
                        for cand in range(topo.node_count):
                            if self._fits(cand, request):
                                node, preferred = cand, False
                                break
                else:
                    for cand in range(topo.node_count):
                        if self._fits(cand, request):
                            node = cand
                            break
                if node is None:
                    break
                self._grant_on(pending, node, preferred)
            if pending.remaining == 0:
                self._pending.remove(pending)
                continue
            if not any(self._fits(n, request) for n in range(topo.node_count)):
                break  # starved of capacity: strict FIFO from here on
            pending.rounds_waited += 1  # held up by locality preference only

    # -- invariant probe (used by tests) -----------------------------------

    def capacity_ok(self) -> bool:
        topo = self.cluster.topology
        with self._lock:
            return all(u <= topo.cores_per_node for u in self._used_cores) and all(
                m <= topo.memory_per_node for m in self._used_memory
            )


# ---------------------------------------------------------------------------
# Decentralized sampling scheduler
# ---------------------------------------------------------------------------


class DecentralizedScheduler:
    """Probe s sampled nodes, place on the shortest queue (ties: lowest id).

    Queue lengths are this scheduler's own running view of outstanding
    placements, so placement streams are reproducible for a fixed seed.
    """

    def __init__(self, cluster: Cluster, seed: int = 0, sample_size: int = 2):
        if sample_size < 1:
            raise ValueError("sample size must be >= 1")
        self.cluster = cluster
        self.sample_size = sample_size
        self._rng = np.random.default_rng([seed, 3])
        self._lock = threading.Lock()
        self._outstanding = [0] * cluster.topology.node_count

    def place(self, queue_lengths: list[int] | None = None) -> int:
        n = self.cluster.topology.node_count
        s = min(self.sample_size, n)
        with self._lock:
            probes = sorted(self._rng.choice(n, size=s, replace=False).tolist())
            lengths = queue_lengths if queue_lengths is not None else self._outstanding
            node = min(probes, key=lambda i: (lengths[i], i))
            if queue_lengths is None:
                self._outstanding[node] += 1
            return node

    def complete(self, node: int) -> None:
        with self._lock:
            self._outstanding[node] -= 1

    def run_wave(self, app_id: str, preferred, task) -> list[int]:
        """No resource manager: the wave pays its own job launch."""
        self.cluster.metrics.add("jobs_launched")
        self.cluster.costs.sleep_ms(self.cluster.costs.job_launch_ms)
        nodes = [self.place() for _ in preferred]
        try:
            return _run_placed(self.cluster, nodes, task)
        finally:
            for node in nodes:
                self.complete(node)


# ---------------------------------------------------------------------------
# Pilot overlay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PilotShape:
    node_count: int
    cores_per_slot: int = 1


class PilotHandle:
    """A placeholder allocation; compute units run inside it with no further
    resource-manager interaction."""

    def __init__(self, cluster: Cluster, lease: NodeLease, shape: PilotShape):
        self.cluster = cluster
        self._lease = lease
        self.nodes = lease.nodes
        self.shape = shape
        self._cu_count = 0

    @property
    def slot_count(self) -> int:
        return len(self.nodes) * self.cluster.topology.cores_per_node

    def submit_cu(self, fn, *args, cores: int = 1, node: int | None = None):
        """FIFO compute-unit submission onto the pilot's own slots."""
        if cores > self.shape.cores_per_slot:
            raise RejectedRequest(
                f"compute unit wants {cores} cores, pilot slots have "
                f"{self.shape.cores_per_slot}"
            )
        if node is None:
            node = self.nodes[self._cu_count % len(self.nodes)]
        elif node not in self.nodes:
            raise RejectedRequest(f"node {node} is outside the pilot allocation")
        self._cu_count += 1
        return self.cluster.run_task(node, fn, *args, kind="cu")

    def shutdown(self) -> None:
        self._lease.release()


def pilot_acquire(cluster: Cluster, scheduler, shape: PilotShape,
                  app_id: str = "pilot") -> PilotHandle:
    """Obtain the pilot's placeholder allocation with a single job submission
    to a scheduler that leases whole nodes."""
    return PilotHandle(cluster, scheduler.lease(app_id, shape.node_count), shape)
