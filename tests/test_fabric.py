"""Fabric behavior: topology, slot execution, metered messaging, and
result independence from the injected-delay profile."""

import sys
import threading
import time

import numpy as np
import pytest

from ogrebench.costs import ZERO_COSTS, CostModel
from ogrebench.fabric import (ClusterAborted, ClusterTopology, NodeDown,
                             spawn_cluster)
from ogrebench.kernel import PartialSums
from ogrebench import wire


@pytest.fixture
def cluster():
    c = spawn_cluster(ClusterTopology(4, 4), ZERO_COSTS)
    yield c
    c.shutdown()


class TestTopology:
    def test_total_slots(self):
        assert ClusterTopology(4, 4).total_slots == 16

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology(0, 4)


class TestMessaging:
    def test_fifo_per_channel(self, cluster):
        cluster.send(0, 1, "first", tag="t")
        cluster.send(0, 1, "second", tag="t")
        assert cluster.recv(0, 1, tag="t") == "first"
        assert cluster.recv(0, 1, tag="t") == "second"

    def test_network_bytes_equal_serialized_size(self, cluster):
        p = PartialSums(np.zeros((2, 2)), np.zeros(2, dtype=np.int64))
        nbytes = cluster.send(0, 1, p, tag="x")
        assert nbytes == len(wire.encode(p))
        snap = cluster.metrics.snapshot()
        assert snap.network_bytes == nbytes
        assert snap.network_messages == 1

    def test_self_send_is_intra_node(self, cluster):
        cluster.send(2, 2, "loop", tag="x")
        snap = cluster.metrics.snapshot()
        assert snap.intra_node_messages == 1
        assert snap.network_messages == 0

    def test_single_node_cluster_loops_back(self):
        c = spawn_cluster(ClusterTopology(1, 2), ZERO_COSTS)
        try:
            c.send(0, 0, "hello")
            assert c.recv(0, 0) == "hello"
            assert c.metrics.snapshot().network_bytes == 0
        finally:
            c.shutdown()

    def test_drained_channel_is_dropped(self, cluster):
        cluster.send(0, 1, "first", tag="t")
        cluster.send(0, 1, "second", tag="t")
        cluster.recv(0, 1, tag="t")
        assert list(cluster._channels) == [(0, 1, "t")]
        assert cluster.recv(0, 1, tag="t") == "second"
        assert cluster._channels == {}
        cluster.send(0, 1, "third", tag="t")
        assert cluster.recv(0, 1, tag="t") == "third"

    def test_racing_drops_lose_no_message(self, cluster):
        # Receivers drain and drop their channels while senders recreate
        # them; a send landing in a dropped queue would be lost, and the
        # receiver would time out.
        pairs, count = 8, 300
        got = {pair: [] for pair in range(pairs)}

        def sender(pair):
            for i in range(count):
                cluster.send(pair % 4, (pair + 1) % 4, i, tag=f"race{pair}")

        def receiver(pair):
            for _ in range(count):
                got[pair].append(
                    cluster.recv(pair % 4, (pair + 1) % 4, tag=f"race{pair}",
                                 timeout=5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fn, args=(pair,))
                       for pair in range(pairs) for fn in (sender, receiver)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {pair: list(range(count)) for pair in range(pairs)}
        assert cluster._channels == {}

    def test_abort_wakes_a_blocked_recv_with_the_cause(self, cluster):
        cause = RuntimeError("peer broke")
        got = []

        def blocked():
            try:
                cluster.recv(0, 1, tag="never")
            except ClusterAborted as exc:
                got.append(exc)

        waiter = threading.Thread(target=blocked)
        waiter.start()
        time.sleep(0.05)
        cluster.abort(cause)
        waiter.join(timeout=2)
        assert not waiter.is_alive()
        assert got and got[0].__cause__ is cause

    def test_unknown_node_rejected(self, cluster):
        with pytest.raises(KeyError):
            cluster.send(0, 99, "x")


class TestCharge:
    def test_unknown_task_kind_is_rejected_uncounted(self, cluster):
        with pytest.raises(ValueError):
            cluster.charge_task_launch("daemon")
        assert cluster.metrics.snapshot().tasks_launched == 0

    def test_a_snapshot_never_splits_an_event(self, cluster):
        # A link message adds its count and its bytes under one lock, so no
        # snapshot sees the one without the other.
        nbytes, per_writer = 7, 3000
        torn = []
        done = threading.Event()

        def writer():
            for _ in range(per_writer):
                cluster.charge("link_message", nbytes)

        def reader():
            while not done.is_set():
                snap = cluster.metrics.snapshot()
                if snap.network_bytes != nbytes * snap.network_messages:
                    torn.append(snap)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader) for _ in range(2)]
            writers = [threading.Thread(target=writer) for _ in range(6)]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=20)
            done.set()
            for t in readers:
                t.join(timeout=5)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert not torn
        assert cluster.metrics.snapshot().network_messages == 6 * per_writer


class TestTasks:
    def test_sixteen_tasks_run_concurrently(self, cluster):
        barrier = threading.Barrier(16, timeout=10)
        futs = [cluster.run_task(n, barrier.wait, kind="worker")
                for n in range(4) for _ in range(4)]
        for f in futs:
            f.result(timeout=10)

    def test_extra_task_queues(self, cluster):
        release = threading.Event()
        futs = [cluster.run_task(0, release.wait, 10, kind="worker")
                for _ in range(4)]
        time.sleep(0.05)
        extra = cluster.run_task(0, lambda: "done", kind="worker")
        time.sleep(0.05)
        assert not extra.done()
        release.set()
        assert extra.result(timeout=10) == "done"
        for f in futs:
            f.result(timeout=10)

    def test_failing_task_surfaces_and_metrics_survive(self, cluster):
        def boom():
            raise RuntimeError("task broke")

        fut = cluster.run_task(0, boom, kind="process")
        with pytest.raises(RuntimeError):
            fut.result(timeout=10)
        assert cluster.metrics.snapshot().tasks_launched == 1

    def test_join_returns_results_in_order(self, cluster):
        futs = [cluster.run_task(n % 4, lambda n=n: n * n, kind="worker")
                for n in range(8)]
        assert cluster.join(futs) == [n * n for n in range(8)]

    def test_join_cancels_aborts_waits_and_raises_the_cause(self, cluster):
        cause = RuntimeError("task broke")
        release = threading.Event()
        finished = []

        def boom():
            release.wait(10)
            raise cause

        def peer():
            try:
                cluster.recv(1, 0, tag="never")
            finally:
                finished.append("peer")

        # Node 0's 4 slots hold the blocked peer and three sleepers, so a
        # fifth task there queues; the failing task runs on node 1.
        futs = [cluster.run_task(1, boom, kind="worker"),
                cluster.run_task(0, peer, kind="worker")]
        futs += [cluster.run_task(0, time.sleep, 0.5, kind="worker")
                 for _ in range(3)]
        queued = cluster.run_task(0, finished.append, "queued", kind="worker")
        release.set()
        with pytest.raises(RuntimeError) as info:
            cluster.join(futs + [queued])
        assert info.value is cause
        assert queued.cancelled()
        assert all(f.done() for f in futs)
        assert finished == ["peer"]
        with pytest.raises(ClusterAborted):
            cluster.check_abort()

    def test_shutdown_rejects_new_work(self, cluster):
        cluster.shutdown()
        with pytest.raises(NodeDown):
            cluster.run_task(0, lambda: None)


class TestDelayProfileIndependence:
    def test_results_identical_under_any_profile(self):
        # Link parameters affect timing only; payloads are unchanged.
        fast = CostModel(inject_delays=False)
        slow = CostModel(link_latency_us=500.0, link_bandwidth_bps=1e7)
        payload = PartialSums(np.arange(6, dtype=float).reshape(2, 3),
                              np.array([1, 2]))
        got = []
        for costs in (fast, slow):
            c = spawn_cluster(ClusterTopology(2, 1), costs)
            try:
                c.send(0, 1, payload)
                got.append(c.recv(0, 1))
            finally:
                c.shutdown()
        np.testing.assert_array_equal(got[0].sums, got[1].sums)
        np.testing.assert_array_equal(got[0].counts, got[1].counts)
