"""Pilot-MapReduce K-means: the pilot obtains its placeholder allocation with
a single job submission; every map and reduce phase runs as compute units
inside it.  Intermediate data moves as whole files through the store, one per
(map task, reduce partition) pair, with no sorting."""

from __future__ import annotations

from .. import wire
from ..kernel import KMeansResult, partial_sums_from_assignment
from ..schedulers import PilotShape, pilot_acquire
from .common import EngineContext
from .mapreduce import (concat_records, drive_store_iterations, map_block,
                        reducer_outputs, write_means)


def _map_cu(ctx: EngineContext, node: int, block, iteration: int) -> None:
    pts, codes = map_block(ctx, node, block, iteration)
    with ctx.cluster.metrics.phase("exchange"):
        outputs = reducer_outputs(codes, pts, ctx.reducer_count)
        for r, (_, payload) in enumerate(outputs):
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
        recs = concat_records(batches)
        # No sort: K-means reduction only needs per-key accumulation, and the
        # batches already arrive in block order.
        partial = partial_sums_from_assignment(recs["coords"], recs["key"],
                                               ctx.initial.k)
        write_means(ctx, node, iteration, r, partial)


def run_pilot_mapreduce(ctx: EngineContext) -> KMeansResult:
    pilot = pilot_acquire(ctx.cluster, ctx.scheduler,
                          PilotShape(ctx.cluster.topology.node_count),
                          app_id="pilot-kmeans")

    def on(i: int) -> int:
        return pilot.nodes[i % len(pilot.nodes)]

    def run_tasks(iteration: int) -> None:
        ctx.cluster.join([pilot.submit_cu(_map_cu, ctx, on(b.index), b,
                                          iteration, node=on(b.index))
                          for b in ctx.blocks])
        ctx.cluster.join([pilot.submit_cu(_reduce_cu, ctx, on(r), r, iteration,
                                          node=on(r))
                          for r in range(ctx.reducer_count)])

    try:
        return drive_store_iterations(ctx, run_tasks)
    finally:
        pilot.shutdown()
