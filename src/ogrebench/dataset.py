"""Synthetic dataset generation, the binary point-file format, block
partitioning and deterministic centroid initialization.

All randomness flows through numpy Generators seeded from the scenario seed;
identical seeds produce byte-identical files.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .kernel import CentroidSet

MAGIC = b"OGRE"
VERSION = 1
_HEADER = struct.Struct("<4sIQI")  # magic, version, n (u64), d (u32)

# Blob standard deviation relative to the expected inter-center spacing;
# keeps clusters well separated so convergence is fast.
BLOB_STD_FRACTION = 0.05

# Sub-streams derived from the scenario seed, so generation and
# initialization draw from independent deterministic streams.
_GEN_STREAM = 0
_INIT_STREAM = 1


class InvalidScenario(ValueError):
    """Scenario parameters that violate the declared invariants."""


class CorruptPointFile(ValueError):
    """Point file whose header or payload does not match the format."""


@dataclass(frozen=True)
class ScenarioSpec:
    n_points: int
    k_clusters: int
    dims: int = 3
    seed: int = 42
    max_iter: int = 10
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.n_points < 1 or self.k_clusters < 1 or self.dims < 1:
            raise InvalidScenario("n_points, k_clusters and dims must be positive")
        if self.n_points < self.k_clusters:
            raise InvalidScenario("n_points must be >= k_clusters")
        if self.max_iter < 1:
            raise InvalidScenario("max_iter must be >= 1")
        if self.epsilon < 0:
            raise InvalidScenario("epsilon must be >= 0")


@dataclass(frozen=True)
class PointFile:
    """In-memory view of a point file: n x d float64, row major."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        return self.points.shape[1]

    @property
    def nbytes(self) -> int:
        return self.n * self.dims * 8


@dataclass(frozen=True)
class Block:
    """Contiguous point range [start, stop) with its position in file order."""

    index: int
    start: int
    stop: int

    @property
    def n_points(self) -> int:
        return self.stop - self.start


def generate(spec: ScenarioSpec) -> PointFile:
    """Sample n points from k seeded isotropic Gaussian blobs in the unit cube."""
    rng = np.random.default_rng([spec.seed, _GEN_STREAM])
    centers = rng.uniform(0.0, 1.0, size=(spec.k_clusters, spec.dims))
    spacing = spec.k_clusters ** (-1.0 / spec.dims)
    sigma = BLOB_STD_FRACTION * spacing
    labels = np.arange(spec.n_points) % spec.k_clusters
    points = centers[labels] + rng.normal(scale=sigma, size=(spec.n_points, spec.dims))
    return PointFile(points)


def write_point_file(pf: PointFile, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, pf.n, pf.dims))
        fh.write(np.ascontiguousarray(pf.points, dtype="<f8").tobytes())


def read_point_file(path: str | os.PathLike) -> PointFile:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CorruptPointFile("truncated header")
        magic, version, n, d = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CorruptPointFile(f"bad magic {magic!r}")
        if version != VERSION:
            raise CorruptPointFile(f"unsupported version {version}")
        payload = fh.read()
    if len(payload) != n * d * 8:
        raise CorruptPointFile(
            f"payload is {len(payload)} bytes, expected {n * d * 8}"
        )
    points = np.frombuffer(payload, dtype="<f8").reshape(n, d).astype(np.float64)
    return PointFile(points)


def partition(pf: PointFile, block_points: int) -> list[Block]:
    """ceil(n / block_points) contiguous blocks; only the last may be short."""
    if block_points < 1:
        raise ValueError("block_points must be >= 1")
    blocks = []
    for index, start in enumerate(range(0, pf.n, block_points)):
        blocks.append(Block(index, start, min(start + block_points, pf.n)))
    return blocks


def default_block_points(n: int, node_count: int, blocks_per_node: int = 4) -> int:
    """Block size yielding about blocks_per_node blocks per node."""
    target = max(1, node_count * blocks_per_node)
    return max(1, -(-n // target))


def init_centroids(pf: PointFile, k: int, seed: int) -> CentroidSet:
    """k distinct points sampled without replacement by a seeded generator."""
    if k > pf.n:
        raise InvalidScenario(f"k={k} exceeds point count n={pf.n}")
    rng = np.random.default_rng([seed, _INIT_STREAM])
    idx = rng.choice(pf.n, size=k, replace=False)
    return CentroidSet(pf.points[idx].copy(), iteration=0)
