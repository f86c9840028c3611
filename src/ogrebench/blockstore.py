"""Simulated storage layer with the two placement architectures: a co-located
block store with replication (blocks pinned to compute nodes) and a shared
remote store (parallel-filesystem style, no locality information).

Every read and write passes through byte-level accounting; there is no
unmetered I/O path.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

import numpy as np

from .dataset import Block, PointFile
from .metrics import MetricsCollector

SHARED_STORE_NODE = -1


class UnknownBlock(KeyError):
    pass


class UnknownObject(KeyError):
    pass


class DuplicateObject(ValueError):
    pass


class StoreMode(enum.Enum):
    COLOCATED = "colocated"
    SHARED = "shared"


@dataclass(frozen=True)
class BlockPlacement:
    block: Block
    replicas: tuple[int, ...]  # node ids; empty in shared mode


@dataclass
class BlockMap:
    mode: StoreMode
    placements: dict[int, BlockPlacement] = field(default_factory=dict)

    def locate(self, block_id: int) -> list[int]:
        """Replica nodes of a block; empty in shared mode (no locality info)."""
        if block_id not in self.placements:
            raise UnknownBlock(block_id)
        return list(self.placements[block_id].replicas)


class BlockStore:
    """Run-lifetime store service: dataset blocks plus named byte objects."""

    def __init__(self, cluster, mode: StoreMode):
        self.cluster = cluster
        self.mode = mode
        self._shared = mode is StoreMode.SHARED
        self.metrics: MetricsCollector = cluster.metrics
        self._points: np.ndarray | None = None
        self._block_map: BlockMap | None = None
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    # -- ingest and block reads -------------------------------------------

    def ingest(self, pf: PointFile, blocks: list[Block], replication: int,
               seed: int) -> BlockMap:
        """Place blocks (seeded round-robin in co-located mode) and meter the
        initial data movement into the store."""
        if replication < 1:
            raise ValueError("replication must be >= 1")
        node_count = self.cluster.topology.node_count
        placements = {}
        if self.mode is StoreMode.COLOCATED:
            offset = int(np.random.default_rng([seed, 2]).integers(node_count))
            r = min(replication, node_count)
            for b in blocks:
                replicas = tuple((offset + b.index + j) % node_count for j in range(r))
                placements[b.index] = BlockPlacement(b, replicas)
        else:
            for b in blocks:
                placements[b.index] = BlockPlacement(b, ())
        self._points = pf.points
        self._block_map = BlockMap(self.mode, placements)
        self.metrics.add(store_writes=1, store_bytes_written=pf.nbytes)
        return self._block_map

    @property
    def block_map(self) -> BlockMap:
        if self._block_map is None:
            raise UnknownBlock("no dataset ingested")
        return self._block_map

    def locate(self, block_id: int) -> list[int]:
        return self.block_map.locate(block_id)

    def read_block(self, reader_node: int, block_id: int) -> np.ndarray:
        """Read a block's points, accounting locality (local/remote/shared)."""
        placement = self.block_map.placements.get(block_id)
        if placement is None:
            raise UnknownBlock(block_id)
        block = placement.block
        nbytes = block.n_points * self._points.shape[1] * 8
        if self._shared:
            self.metrics.add(shared_reads=1)
        elif reader_node in placement.replicas:
            self.metrics.add(locality_hits=1)
        else:
            self.metrics.add(locality_misses=1)
            self.cluster.charge("link_message", nbytes)
        self.cluster.charge("store_read", nbytes, self._shared)
        return self._points[block.start : block.stop]

    # -- named objects (persisted centroids, pilot intermediate files) -----

    def write(self, node: int, name: str, data: bytes, replace: bool = False) -> str:
        with self._lock:
            if name in self._objects and not replace:
                raise DuplicateObject(name)
            self._objects[name] = bytes(data)
        self.cluster.charge("store_write", len(data), self._shared)
        return name

    def read_object(self, node: int, name: str) -> bytes:
        with self._lock:
            if name not in self._objects:
                raise UnknownObject(name)
            data = self._objects[name]
        self.cluster.charge("store_read", len(data), self._shared)
        return data
