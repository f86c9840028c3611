"""Block store: placement, locality accounting, named objects, and the
no-unmetered-I/O conservation property."""

import numpy as np
import pytest

from ogrebench.blockstore import (BlockStore, DuplicateObject, StoreMode,
                                  UnknownBlock, UnknownObject)
from ogrebench.costs import ZERO_COSTS
from ogrebench.dataset import PointFile, partition
from ogrebench.fabric import ClusterTopology, spawn_cluster


def make_store(mode, nodes=4, n=120, dims=2, block_points=30, replication=3,
               seed=42):
    cluster = spawn_cluster(ClusterTopology(nodes, 2), ZERO_COSTS)
    pf = PointFile(np.arange(n * dims, dtype=float).reshape(n, dims))
    blocks = partition(pf, block_points)
    store = BlockStore(cluster, mode)
    store.ingest(pf, blocks, replication, seed)
    return cluster, store, pf, blocks


class TestPlacement:
    def test_round_robin_r1_covers_nodes(self):
        cluster, store, _, blocks = make_store(StoreMode.COLOCATED, nodes=4,
                                               n=120, replication=1)
        try:
            owners = [store.locate(b.index)[0] for b in blocks]
            # 4 blocks over 4 nodes with r=1: each node holds exactly one.
            assert sorted(owners) == [0, 1, 2, 3]
        finally:
            cluster.shutdown()

    def test_three_distinct_replicas(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED, nodes=4, n=30,
                                          block_points=30, replication=3)
        try:
            replicas = store.locate(0)
            assert len(replicas) == len(set(replicas)) == 3
        finally:
            cluster.shutdown()

    def test_single_node_r1(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED, nodes=1, n=30,
                                          block_points=30, replication=1)
        try:
            assert store.locate(0) == [0]
        finally:
            cluster.shutdown()

    def test_shared_mode_has_no_locality_info(self):
        cluster, store, _, blocks = make_store(StoreMode.SHARED)
        try:
            for b in blocks:
                assert store.locate(b.index) == []
        finally:
            cluster.shutdown()

    def test_unknown_block(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED)
        try:
            with pytest.raises(UnknownBlock):
                store.locate(999)
        finally:
            cluster.shutdown()

    def test_placement_deterministic_for_seed(self):
        a = make_store(StoreMode.COLOCATED, seed=5)
        b = make_store(StoreMode.COLOCATED, seed=5)
        try:
            for blk in a[3]:
                assert a[1].locate(blk.index) == b[1].locate(blk.index)
        finally:
            a[0].shutdown()
            b[0].shutdown()


class TestBlockReads:
    def test_local_read_is_a_hit_with_zero_network(self):
        cluster, store, pf, blocks = make_store(StoreMode.COLOCATED)
        try:
            reader = store.locate(0)[0]
            pts = store.read_block(reader, 0)
            np.testing.assert_array_equal(pts, pf.points[:30])
            snap = cluster.metrics.snapshot()
            assert snap.locality_hits == 1
            assert snap.locality_misses == 0
            assert snap.network_bytes == 0
        finally:
            cluster.shutdown()

    def test_remote_read_accounts_block_bytes(self):
        cluster, store, _, blocks = make_store(StoreMode.COLOCATED)
        try:
            stranger = next(n for n in range(4) if n not in store.locate(0))
            store.read_block(stranger, 0)
            snap = cluster.metrics.snapshot()
            assert snap.locality_misses == 1
            assert snap.network_bytes == blocks[0].n_points * 2 * 8
        finally:
            cluster.shutdown()

    def test_remote_read_of_exact_byte_size(self):
        # A 280,000-byte block moves exactly 280,000 bytes over the network.
        cluster = spawn_cluster(ClusterTopology(4, 2), ZERO_COSTS)
        try:
            pf = PointFile(np.zeros((35_000, 1)))
            blocks = partition(pf, 35_000)
            store = BlockStore(cluster, StoreMode.COLOCATED)
            store.ingest(pf, blocks, 1, seed=0)
            stranger = next(n for n in range(4) if n not in store.locate(0))
            store.read_block(stranger, 0)
            assert cluster.metrics.snapshot().network_bytes == 280_000
        finally:
            cluster.shutdown()

    def test_shared_reads_never_hit(self):
        cluster, store, _, blocks = make_store(StoreMode.SHARED)
        try:
            for b in blocks:
                store.read_block(0, b.index)
            snap = cluster.metrics.snapshot()
            assert snap.locality_hits == 0
            assert snap.shared_reads == len(blocks)
        finally:
            cluster.shutdown()


class TestObjects:
    def test_write_read_round_trip(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED)
        try:
            store.write(0, "obj/a", b"payload")
            assert store.read_object(1, "obj/a") == b"payload"
        finally:
            cluster.shutdown()

    def test_write_counter_increases_by_payload(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED)
        try:
            before = cluster.metrics.snapshot().store_bytes_written
            store.write(0, "obj/a", b"12345")
            after = cluster.metrics.snapshot().store_bytes_written
            assert after - before == 5
        finally:
            cluster.shutdown()

    def test_duplicate_name_rejected_without_replace(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED)
        try:
            store.write(0, "obj/a", b"x")
            with pytest.raises(DuplicateObject):
                store.write(0, "obj/a", b"y")
            store.write(0, "obj/a", b"y", replace=True)
            assert store.read_object(0, "obj/a") == b"y"
        finally:
            cluster.shutdown()

    def test_unknown_object(self):
        cluster, store, _, _ = make_store(StoreMode.COLOCATED)
        try:
            with pytest.raises(UnknownObject):
                store.read_object(0, "missing")
        finally:
            cluster.shutdown()


class TestConservation:
    def test_read_counter_equals_bytes_read(self):
        cluster, store, _, blocks = make_store(StoreMode.COLOCATED)
        try:
            for b in blocks:
                store.read_block(b.index % 4, b.index)
            store.write(0, "o", b"abc")
            store.read_object(2, "o")
            block_bytes = sum(b.n_points * 2 * 8 for b in blocks)
            assert (cluster.metrics.snapshot().store_bytes_read
                    == block_bytes + 3)
        finally:
            cluster.shutdown()
