"""MapReduce K-means: one fresh job per iteration.  Map tasks read their
block (locality-preferred), emit one shuffle record per point keyed by the
closest centroid; the shuffle partitions records by key modulo the reducer
count, sorts by key within each reducer input (spilling sorted runs to local
temporary files past the buffer threshold), and reduce tasks average their
key groups.  New centroids are persisted to the store and re-read at the next
iteration's job start.

The iteration loop, map body and reduce tail here are shared with the pilot
engine; the two differ only in how map outputs reach the reducers."""

from __future__ import annotations

import os

import numpy as np

from .. import wire
from ..kernel import (CentroidSet, KMeansResult, PartialSums, assign_block,
                      converged, merge, partial_sums_from_assignment)
from ..schedulers import (DecentralizedScheduler, GrantEvent,
                          MultilevelScheduler, ResourceRequest)
from .common import EngineContext, EngineFailure


def _centroid_object(iteration: int) -> str:
    return f"centroids/{iteration}"


def _reduce_object(iteration: int, r: int) -> str:
    return f"reduce/{iteration}/r{r}"


def _persist_centroids(ctx: EngineContext, centroids: CentroidSet) -> None:
    ctx.store.write(0, _centroid_object(centroids.iteration),
                    wire.encode(centroids))


def map_block(ctx: EngineContext, node: int, block, iteration: int):
    """Map body: read the iteration's centroids and the block, assign every
    point.  Returns (points, codes)."""
    centroids = wire.decode(ctx.store.read_object(node,
                                                  _centroid_object(iteration)))
    with ctx.cluster.metrics.phase("map"):
        pts = ctx.store.read_block(node, block.index)
        codes = assign_block(pts, centroids)
    return pts, codes


def write_means(ctx: EngineContext, node: int, iteration: int, r: int,
                partial: PartialSums) -> None:
    """Reduce tail: store the mean of every key reducer r saw."""
    keys = np.flatnonzero(partial.counts)
    means = partial.sums[keys] / partial.counts[keys, None]
    ctx.store.write(node, _reduce_object(iteration, r),
                    wire.encode(("reduced", keys, means)))


def drive_store_iterations(ctx: EngineContext, run_tasks) -> KMeansResult:
    """The store-exchange engines' loop.  ``run_tasks(iteration)`` runs the
    iteration's map and reduce tasks, each reducer ending in write_means;
    the update folds the reducers' means into the next centroids and
    persists them for the next iteration's maps."""
    _persist_centroids(ctx, ctx.initial)
    current = ctx.initial
    trajectory = [current]
    done = False
    for _ in range(ctx.spec.max_iter):
        iteration = current.iteration
        try:
            run_tasks(iteration)
        except EngineFailure:
            raise
        except Exception as exc:
            raise EngineFailure(f"task failed: {exc}") from exc
        with ctx.cluster.metrics.phase("update"):
            coords = current.coords.copy()
            for r in range(ctx.reducer_count):
                _, keys, means = wire.decode(
                    ctx.store.read_object(0, _reduce_object(iteration, r)))
                coords[keys] = means
            nxt = CentroidSet(coords, iteration + 1)
            _persist_centroids(ctx, nxt)
        trajectory.append(nxt)
        ctx.stamp_iteration()
        done = converged(current, nxt, ctx.spec.epsilon)
        current = nxt
        if done:
            break
    return KMeansResult(final=current, iterations=len(trajectory) - 1,
                        trajectory=trajectory, converged=done)


def _emit_map_outputs(ctx: EngineContext, node: int, block, iteration: int,
                      reducer_nodes: list[int]) -> None:
    """Map task body: assignment plus per-reducer shuffle record emission."""
    cluster = ctx.cluster
    pts, codes = map_block(ctx, node, block, iteration)
    with cluster.metrics.phase("shuffle"):
        r_count = len(reducer_nodes)
        owner = codes % r_count
        for r in range(r_count):
            mask = owner == r
            if ctx.combine:
                kind = "combined"
                payload = wire.encode(partial_sums_from_assignment(
                    pts[mask], codes[mask], ctx.initial.k))
            else:
                kind = "records"
                payload = wire.encode_shuffle_records(codes[mask], pts[mask])
            cluster.metrics.add("shuffle_bytes", len(payload))
            cluster.metrics.add("shuffle_records", int(mask.sum()))
            cluster.send(node, reducer_nodes[r], (kind, block.index, payload),
                         tag=f"sh{iteration}:b{block.index}>r{r}")


def _sorted_run(batches: list[np.ndarray]) -> np.ndarray:
    recs = np.concatenate(batches) if len(batches) > 1 else batches[0]
    order = np.argsort(recs["key"], kind="stable")
    return recs[order]


def _reduce_task(ctx: EngineContext, node: int, r: int, iteration: int,
                 source_blocks: list[tuple[int, int]]) -> None:
    """Reduce task body: collect sorted map outputs, merge, average groups."""
    cluster = ctx.cluster
    dims = ctx.initial.dims
    k = ctx.initial.k
    spill_dir = os.path.join(ctx.workdir, "spill")
    os.makedirs(spill_dir, exist_ok=True)

    with cluster.metrics.phase("shuffle"):
        runs: list[str] = []
        buffered: list[np.ndarray] = []
        buffered_bytes = 0
        combined = None
        for src_node, block_index in sorted(source_blocks, key=lambda s: s[1]):
            kind_, _, payload = cluster.recv(src_node, node,
                                             tag=f"sh{iteration}:b{block_index}>r{r}")
            if kind_ == "combined":
                sub = wire.decode(payload)
                combined = sub if combined is None else merge(combined, sub)
                continue
            recs = wire.decode_shuffle_records(payload, dims)
            buffered.append(recs)
            buffered_bytes += recs.nbytes
            if buffered_bytes > ctx.spill_threshold:
                path = os.path.join(
                    spill_dir, f"it{iteration}_r{r}_{len(runs)}.spill")
                _sorted_run(buffered).tofile(path)
                cluster.metrics.add("shuffle_spills")
                runs.append(path)
                buffered = []
                buffered_bytes = 0
        if combined is not None:
            partial = combined
        else:
            parts = [np.fromfile(path, dtype=wire.shuffle_dtype(dims))
                     for path in runs]
            for path in runs:
                os.unlink(path)
            if buffered:
                parts.append(_sorted_run(buffered))
            if parts:
                # Merge of key-sorted runs; stable, so within a key the
                # original (block, point) order is preserved.
                merged = _sorted_run(parts)
            else:
                merged = np.empty(0, dtype=wire.shuffle_dtype(dims))
            partial = partial_sums_from_assignment(
                merged["coords"].astype(np.float64),
                merged["key"].astype(np.int64), k)

    with cluster.metrics.phase("reduce"):
        write_means(ctx, node, iteration, r, partial)


def _run_map_wave(ctx: EngineContext, iteration: int,
                  reducer_nodes: list[int]) -> dict[int, int]:
    """Submit one fresh job, place every map task (locality-preferred where
    the scheduler supports it), run the wave, free the resources.  Returns
    block index -> node the map ran on."""
    cluster = ctx.cluster
    scheduler = ctx.scheduler

    if isinstance(scheduler, MultilevelScheduler):
        blocks = {b.index: b for b in ctx.blocks}
        placements: dict[int, int] = {}
        session = scheduler.submit_job(f"mr-{iteration}")
        try:
            for b in ctx.blocks:
                session.request_containers(ResourceRequest(
                    session.app_id, count=1,
                    preferred_nodes=tuple(ctx.store.locate(b.index)),
                    tag=str(b.index)))
            futures = []
            granted = 0
            while granted < len(ctx.blocks):
                ev = session.next_event()
                if not isinstance(ev, GrantEvent):
                    continue
                container = ev.container
                block = blocks[int(container.request_tag)]
                placements[block.index] = container.node
                fut = cluster.run_task(container.node, _emit_map_outputs, ctx,
                                       container.node, block, iteration,
                                       reducer_nodes, kind="process")
                # Elastic usage: the container goes back as soon as the map
                # task completes, letting pending requests be granted.
                fut.add_done_callback(
                    lambda _f, c=container: session.release([c]))
                futures.append(fut)
                granted += 1
            for fut in futures:
                fut.result()
        finally:
            session.deregister()
        return placements

    if isinstance(scheduler, DecentralizedScheduler):
        cluster.metrics.add("jobs_launched")
        cluster.costs.sleep_ms(cluster.costs.job_launch_ms)
        placements = {b.index: scheduler.place() for b in ctx.blocks}

        def release():
            for node in placements.values():
                scheduler.complete(node)
    else:
        # Job-level scheduling: no task visibility, no locality awareness.
        lease = scheduler.lease(f"mr-{iteration}", cluster.topology.node_count)
        placements = {b.index: lease.nodes[b.index % len(lease.nodes)]
                      for b in ctx.blocks}
        release = lease.release
    try:
        futures = [cluster.run_task(placements[b.index], _emit_map_outputs,
                                    ctx, placements[b.index], b, iteration,
                                    reducer_nodes, kind="process")
                   for b in ctx.blocks]
        for fut in futures:
            fut.result()
    finally:
        release()
    return placements


def run_mapreduce(ctx: EngineContext) -> KMeansResult:
    cluster = ctx.cluster
    node_count = cluster.topology.node_count
    reducer_nodes = [r % node_count for r in range(ctx.reducer_count)]

    def run_tasks(iteration: int) -> None:
        placements = _run_map_wave(ctx, iteration, reducer_nodes)
        sources = [(placements[b.index], b.index) for b in ctx.blocks]
        red_futs = [cluster.run_task(node, _reduce_task, ctx, node, r,
                                     iteration, sources, kind="process")
                    for r, node in enumerate(reducer_nodes)]
        for fut in red_futs:
            fut.result()

    return drive_store_iterations(ctx, run_tasks)
