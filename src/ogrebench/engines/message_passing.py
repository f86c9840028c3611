"""Message-passing K-means: long-running workers under a gang allocation,
points loaded into a single mutable buffer once, centroid aggregation by
allreduce, zero store traffic after the initial load."""

from __future__ import annotations

import numpy as np

from ..kernel import (KMeansResult, PartialSums, assign_block,
                      partial_sums_from_assignment)
from .common import EngineContext, run_spmd


def _load(ctx: EngineContext, node: int, blocks) -> np.ndarray:
    # Exactly one resident copy of the data per worker, mutated in place.
    slices = [ctx.store.read_block(node, b.index) for b in blocks]
    return np.concatenate(slices) if slices else np.empty((0, ctx.initial.dims))


def _local_partials(ctx: EngineContext, local: np.ndarray,
                    centroids) -> PartialSums:
    if not len(local):
        return PartialSums.zero(centroids.k, centroids.dims)
    return partial_sums_from_assignment(local, assign_block(local, centroids),
                                        centroids.k)


def run_message_passing(ctx: EngineContext) -> KMeansResult:
    return run_spmd(ctx, "mpi-kmeans", _load, _local_partials)
