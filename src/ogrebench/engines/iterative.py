"""Iterative-collective K-means: long-running containers from the multi-level
scheduler, data loaded once into immutable in-memory partitions, and per
iteration two derived intermediate partition generations (the copy cost of
immutability) before an allreduce of partial sums.  No sorting, no
per-iteration job launch, no per-iteration store round-trip."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..kernel import (KMeansResult, PartialSums, assign_block, merge,
                      partial_sums_from_assignment)
from .common import EngineContext, run_spmd


@dataclass(frozen=True)
class InMemoryPartition:
    """Immutable slice of points resident on a node, tagged by generation."""

    points: np.ndarray
    generation: int

    def __post_init__(self):
        self.points.setflags(write=False)


def _load(ctx: EngineContext, node: int, blocks) -> list[InMemoryPartition]:
    return [InMemoryPartition(ctx.store.read_block(node, b.index).copy(), 0)
            for b in blocks]


def _local_partials(ctx: EngineContext, base: list[InMemoryPartition],
                    centroids) -> PartialSums:
    # The previous iteration's intermediates are gone once this returns, so
    # the peak is base + two derived generations.
    cluster = ctx.cluster
    assigned = []
    for part in base:
        cluster.charge_task_launch("thread")
        codes = assign_block(part.points, centroids)
        assigned.append((InMemoryPartition(part.points.copy(),
                                           2 * centroids.iteration + 1), codes))
    cluster.metrics.note_generations(2)
    partials = []
    for part, codes in assigned:
        cluster.charge_task_launch("thread")
        partials.append(partial_sums_from_assignment(part.points, codes,
                                                     centroids.k))
    cluster.metrics.note_generations(3)
    if not partials:
        return PartialSums.zero(centroids.k, centroids.dims)
    return reduce(merge, partials)  # block order


def run_iterative_collective(ctx: EngineContext) -> KMeansResult:
    # One long-running whole-node container per node; a single job
    # submission for the entire run.
    return run_spmd(ctx, "iterative-kmeans", _load, _local_partials)
