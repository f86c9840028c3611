"""Schedulers: gang atomicity, elastic container grants, locality-preferred
placement, release and regrant, sampling placement, and whole-node leases."""

import threading
import time

import pytest

from ogrebench.costs import ZERO_COSTS
from ogrebench.fabric import ClusterTopology, spawn_cluster
from ogrebench.schedulers import (CentralizedScheduler, DecentralizedScheduler,
                                  JobRequest, MultilevelScheduler, RejectedJob,
                                  RejectedRequest, ResourceRequest,
                                  SchedulerError)


@pytest.fixture
def cluster():
    c = spawn_cluster(ClusterTopology(4, 4), ZERO_COSTS)
    yield c
    c.shutdown()


class TestCentralized:
    def test_idle_cluster_grants_immediately(self, cluster):
        sched = CentralizedScheduler(cluster)
        alloc = sched.submit_job(JobRequest("j", 4))
        assert sorted(alloc.nodes) == [0, 1, 2, 3]

    def test_oversized_job_rejected(self, cluster):
        sched = CentralizedScheduler(cluster)
        with pytest.raises(RejectedJob):
            sched.submit_job(JobRequest("j", 5))

    def test_waits_for_full_gang_never_partial(self, cluster):
        sched = CentralizedScheduler(cluster)
        first = sched.submit_job(JobRequest("hold", 2))
        granted = []

        def submit():
            granted.append(sched.submit_job(JobRequest("big", 4)))

        t = threading.Thread(target=submit)
        t.start()
        time.sleep(0.05)
        # 2 nodes are free but the 4-node job must not be granted piecemeal.
        assert not granted
        assert sched.free_nodes() == 2
        sched.release(first)
        t.join(timeout=10)
        assert len(granted[0].nodes) == 4

    def test_two_three_node_jobs_serialize(self, cluster):
        sched = CentralizedScheduler(cluster)
        a = sched.submit_job(JobRequest("a", 3))
        done = []

        def submit():
            done.append(sched.submit_job(JobRequest("b", 3)))

        t = threading.Thread(target=submit)
        t.start()
        time.sleep(0.05)
        assert not done  # pigeonhole: only 1 free node
        sched.release(a)
        t.join(timeout=10)
        sched.release(done[0])
        assert sched.free_nodes() == 4


class TestMultilevel:
    def test_request_without_registration_rejected(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.deregister()
        with pytest.raises(SchedulerError):
            session.request_containers(ResourceRequest("app", count=1))

    def test_full_immediate_grant_without_preferences(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.request_containers(ResourceRequest("app", count=8))
        grants = session.wait_for_grants(8, timeout=10)
        assert len(grants) == 8
        assert rm.capacity_ok()

    def test_elastic_24_on_16_capacity(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.request_containers(ResourceRequest("app", count=24))
        initial = session.wait_for_grants(16, timeout=10)
        assert len(initial) == 16
        assert session.events.empty()  # no grant beyond capacity
        session.release(initial[:8])
        later = session.wait_for_grants(8, timeout=10)
        assert len(later) == 8
        assert rm.capacity_ok()

    def test_locality_preferred_with_spill(self, cluster):
        rm = MultilevelScheduler(cluster)
        blocker = rm.register_app_master("blocker")
        # Fill nodes 0 and 1 completely; free capacity only on {2, 3}.
        blocker.request_containers(ResourceRequest("blocker", count=8))
        held = blocker.wait_for_grants(8, timeout=10)
        assert {c.node for c in held} == {0, 1}
        app = rm.register_app_master("app")
        prefs = (0, 1, 2)
        app.request_containers(ResourceRequest(
            "app", count=4, preferred_nodes=prefs))
        # Node 2 is free and preferred: grants land there first.
        grants = app.wait_for_grants(4, timeout=10)
        hit = [c for c in grants if c.node in prefs]
        assert hit and all(c.node == 2 for c in hit)
        # The locality wait expires and remaining grants spill to node 3.
        spilled = [c for c in grants if c.node not in prefs]
        # Spill only happens once node 2 fills up.
        assert all(c.node == 3 for c in spilled)
        assert rm.capacity_ok()

    def test_locality_wait_ages_via_later_releases(self, cluster):
        rm = MultilevelScheduler(cluster)
        blocker = rm.register_app_master("blocker")
        blocker.request_containers(ResourceRequest("blocker", count=4))
        held = blocker.wait_for_grants(4, timeout=10)
        assert {c.node for c in held} == {0}
        app = rm.register_app_master("app")
        prefs = (0,)
        app.request_containers(ResourceRequest(
            "app", count=1, preferred_nodes=prefs))
        # Held up by preference only (node 0 stays full); grant passes
        # triggered by unrelated churn on other nodes age it past the wait
        # bound, after which it spills to a non-preferred node.
        churn = rm.register_app_master("churn")
        for _ in range(4):
            churn.request_containers(ResourceRequest("churn", count=1))
            churn.release(churn.wait_for_grants(1, timeout=10))
        grant = app.wait_for_grants(1, timeout=10)[0]
        assert grant.node not in prefs

    def test_release_returns_capacity_for_regrant(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.request_containers(ResourceRequest("app", count=4))
        grants = session.wait_for_grants(4, timeout=10)
        session.release([grants[0]])
        assert len(session.live) == 3
        # The reclaimed capacity is immediately grantable elsewhere.
        other = rm.register_app_master("other")
        other.request_containers(ResourceRequest("other", count=13))
        assert len(other.wait_for_grants(13, timeout=10)) == 13

    def test_deregistration_releases_everything(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.request_containers(ResourceRequest("app", count=16))
        session.wait_for_grants(16, timeout=10)
        session.deregister()
        fresh = rm.register_app_master("fresh")
        fresh.request_containers(ResourceRequest("fresh", count=16))
        assert len(fresh.wait_for_grants(16, timeout=10)) == 16

    def test_oversized_container_shape_rejected(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        with pytest.raises(RejectedRequest):
            session.request_containers(ResourceRequest("app", count=1, cores=5))

    def test_grant_tags_echoed(self, cluster):
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.request_containers(ResourceRequest("app", count=1, tag="b7"))
        assert session.next_event(timeout=10).request_tag == "b7"

    def test_unknown_preferred_node_rejected_before_queueing(self):
        cluster = spawn_cluster(ClusterTopology(2, 1), ZERO_COSTS)
        try:
            rm = MultilevelScheduler(cluster)
            holder = rm.register_app_master("holder")
            holder.request_containers(ResourceRequest(
                "holder", count=1, preferred_nodes=(0,)))
            assert holder.wait_for_grants(1, timeout=10)[0].node == 0
            app = rm.register_app_master("app")
            with pytest.raises(RejectedRequest, match="unknown preferred node 7"):
                app.request_containers(ResourceRequest(
                    "app", count=1, preferred_nodes=(0, 7)))
            # The rejected request was never queued: another application's
            # request is still granted.
            other = rm.register_app_master("other")
            other.request_containers(ResourceRequest("other", count=1))
            assert other.wait_for_grants(1, timeout=10)[0].node == 1
        finally:
            cluster.shutdown()


class TestDecentralized:
    def test_sample_of_two_picks_shorter_queue(self, cluster):
        sched = DecentralizedScheduler(cluster, seed=0, sample_size=2)
        assert sched.place(queue_lengths=[5, 0, 5, 5]) in (0, 1, 2, 3)
        # Force the documented probe set {1, 3} by passing explicit lengths
        # until the sampled pair includes node 1.
        for _ in range(50):
            node = sched.place(queue_lengths=[5, 0, 5, 5])
            if node == 1:
                break
        assert node == 1

    def test_full_sample_is_globally_shortest(self, cluster):
        sched = DecentralizedScheduler(cluster, seed=0, sample_size=4)
        assert sched.place(queue_lengths=[3, 2, 7, 2]) == 1  # tie: lowest id

    def test_own_view_balances_outstanding_work(self, cluster):
        sched = DecentralizedScheduler(cluster, seed=1, sample_size=4)
        placements = [sched.place() for _ in range(8)]
        # Full sampling with its own counters round-robins perfectly.
        assert sorted(placements) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_placement_stream_deterministic_for_seed(self, cluster):
        a = DecentralizedScheduler(cluster, seed=9)
        b = DecentralizedScheduler(cluster, seed=9)
        assert [a.place() for _ in range(20)] == [b.place() for _ in range(20)]


class TestLease:
    """``lease(app_id, n)``: n whole nodes under one job, all of them back
    on release."""

    def test_centralized_lease_one_job_and_release(self, cluster):
        sched = CentralizedScheduler(cluster)
        lease = sched.lease("p", 2)
        assert lease.nodes == (0, 1)
        assert sched.free_nodes() == 2
        assert cluster.metrics.snapshot().jobs_launched == 1
        lease.release()
        assert sched.free_nodes() == 4

    def test_multilevel_lease_one_job_and_release(self, cluster):
        rm = MultilevelScheduler(cluster)
        lease = rm.lease("p", 4)
        assert lease.nodes == (0, 1, 2, 3)
        assert cluster.metrics.snapshot().jobs_launched == 1
        lease.release()
        fresh = rm.register_app_master("fresh")
        fresh.request_containers(ResourceRequest("fresh", count=16))
        assert len(fresh.wait_for_grants(16, timeout=10)) == 16


class TestPilot:
    """A pilot is a lease: compute units run as ``cu`` tasks on its nodes,
    under the one job that acquired it."""

    def test_100_cus_one_job_submission(self, cluster):
        sched = CentralizedScheduler(cluster)
        lease = sched.lease("p", 2)
        try:
            futs = [cluster.run_task(lease.nodes[i % 2], lambda i=i: i,
                                     kind="cu") for i in range(100)]
            assert sorted(cluster.join(futs)) == list(range(100))
            assert cluster.metrics.snapshot().jobs_launched == 1
        finally:
            lease.release()
        assert sched.free_nodes() == 4

    def test_empty_pilot_shutdown_releases(self, cluster):
        sched = CentralizedScheduler(cluster)
        lease = sched.lease("p", 4)
        assert sched.free_nodes() == 0
        lease.release()
        assert sched.free_nodes() == 4


class TestWave:
    """``run_wave``: each architecture's placement, one job per wave, every
    slot back when it returns, and no task after a failure."""

    SCHEDULERS = {
        "centralized": CentralizedScheduler,
        "multilevel": MultilevelScheduler,
        "decentral": lambda cluster: DecentralizedScheduler(cluster, seed=5),
    }

    @staticmethod
    def run(sched, count, preferred=None):
        ran = {}

        def task(i, node):
            ran[i] = node

        preferred = preferred or [()] * count
        nodes = sched.run_wave("wave", preferred, task)
        assert ran == dict(enumerate(nodes))
        return nodes

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_placement_policy_one_job_and_all_capacity_back(self, name,
                                                            cluster):
        sched = self.SCHEDULERS[name](cluster)
        if name == "centralized":
            assert self.run(sched, 10) == [i % 4 for i in range(10)]
            assert sched.free_nodes() == 4
        elif name == "decentral":
            twin = DecentralizedScheduler(cluster, seed=5)
            expected = [twin.place() for _ in range(10)]
            assert self.run(sched, 10) == expected
            assert sched._outstanding == [0, 0, 0, 0]
        else:
            preferred = [((3 * i) % 4, (3 * i + 1) % 4) for i in range(16)]
            nodes = self.run(sched, 16, preferred)
            assert all(node in prefs for node, prefs in zip(nodes, preferred))
            fresh = sched.register_app_master("fresh")
            fresh.request_containers(ResourceRequest("fresh", count=16))
            # The grant pass runs inside the request: all 16 are already in.
            assert fresh.events.qsize() == 16
        assert cluster.metrics.snapshot().jobs_launched == 1

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_first_failure_stops_the_wave(self, name):
        cluster = spawn_cluster(ClusterTopology(1, 1), ZERO_COSTS)
        try:
            sched = self.SCHEDULERS[name](cluster)
            ran = []

            def task(i, node):
                ran.append(i)
                if i == 0:
                    raise RuntimeError("first task broke")

            with pytest.raises(RuntimeError, match="first task broke"):
                sched.run_wave("wave", [()] * 5, task)
            assert ran == [0]
        finally:
            cluster.shutdown()

    def test_every_core_of_a_node_runs_a_container(self):
        # All 8 tasks must run at once on one 8-core node, or the barrier
        # breaks.
        cluster = spawn_cluster(ClusterTopology(1, 8), ZERO_COSTS)
        try:
            barrier = threading.Barrier(8, timeout=3)
            nodes = MultilevelScheduler(cluster).run_wave(
                "wave", [()] * 8, lambda i, node: barrier.wait())
            assert nodes == [0] * 8
        finally:
            cluster.shutdown()
