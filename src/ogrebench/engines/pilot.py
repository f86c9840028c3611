"""Pilot-MapReduce K-means: the pilot obtains its placeholder allocation with
a single job submission; every map and reduce phase runs as compute units
inside it.  Intermediate data moves as whole files through the store, one per
(map task, reduce partition) pair, with no sorting."""

from __future__ import annotations

import numpy as np

from .. import wire
from ..kernel import KMeansResult, partial_sums_from_assignment
from ..schedulers import PilotShape, pilot_acquire
from .common import EngineContext
from .mapreduce import drive_store_iterations, map_block, write_means


def _map_cu(ctx: EngineContext, node: int, block, iteration: int) -> None:
    pts, codes = map_block(ctx, node, block, iteration)
    with ctx.cluster.metrics.phase("exchange"):
        owner = codes % ctx.reducer_count
        for r in range(ctx.reducer_count):
            mask = owner == r
            payload = wire.encode_shuffle_records(codes[mask], pts[mask])
            ctx.store.write(node, f"pilot/{iteration}/m{block.index}_r{r}", payload)


def _reduce_cu(ctx: EngineContext, node: int, r: int, iteration: int) -> None:
    with ctx.cluster.metrics.phase("exchange"):
        batches = [
            wire.decode_shuffle_records(
                ctx.store.read_object(node, f"pilot/{iteration}/m{b.index}_r{r}"),
                ctx.initial.dims)
            for b in ctx.blocks
        ]
    with ctx.cluster.metrics.phase("reduce"):
        recs = np.concatenate(batches)
        # No sort: K-means reduction only needs per-key accumulation, and the
        # batches already arrive in block order.
        partial = partial_sums_from_assignment(
            recs["coords"].astype(np.float64), recs["key"].astype(np.int64),
            ctx.initial.k)
        write_means(ctx, node, iteration, r, partial)


def run_pilot_mapreduce(ctx: EngineContext) -> KMeansResult:
    pilot = pilot_acquire(ctx.cluster, ctx.scheduler,
                          PilotShape(ctx.cluster.topology.node_count),
                          app_id="pilot-kmeans")

    def on(i: int) -> int:
        return pilot.nodes[i % len(pilot.nodes)]

    def run_tasks(iteration: int) -> None:
        map_futs = [pilot.submit_cu(_map_cu, ctx, on(b.index), b, iteration,
                                    node=on(b.index))
                    for b in ctx.blocks]
        for fut in map_futs:
            fut.result()
        red_futs = [pilot.submit_cu(_reduce_cu, ctx, on(r), r, iteration,
                                    node=on(r))
                    for r in range(ctx.reducer_count)]
        for fut in red_futs:
            fut.result()

    try:
        return drive_store_iterations(ctx, run_tasks)
    finally:
        pilot.shutdown()
