"""MapReduce K-means: one fresh job per iteration.  The scheduler places and
runs the map wave; each map task reads its block and emits one shuffle
record per point keyed by the closest centroid.  The shuffle partitions
records by key modulo the reducer count and sorts by key within each reducer
input (spilling sorted runs to local temporary files past the buffer
threshold); reduce tasks average their key groups.  New centroids are
persisted to the store and re-read at the next iteration's job start.

The iteration loop, map body, map-side split (``reducer_outputs``) and
reduce tail here are shared with the pilot engine; the two differ only in
how map outputs reach the reducers.  A stable sort by key has one answer,
so a reducer's runs, and the sums it takes over them in order, do not
depend on how they were sorted."""

from __future__ import annotations

import os

import numpy as np

from .. import wire
from ..kernel import (CentroidSet, KMeansResult, PartialSums, assign_block,
                      converged, merge, partial_sums_from_assignment)
from .common import EngineContext, task_failed


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
        except Exception as exc:
            raise task_failed(exc) from exc
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


def _raw_dtype(dtype: np.dtype) -> np.dtype:
    """Opaque records of dtype's size: numpy gathers and concatenates them as
    plain bytes, where it copies a structured record field by field."""
    return np.dtype((np.void, dtype.itemsize))


def concat_records(batches: list[np.ndarray]) -> np.ndarray:
    """Shuffle record batches as one array, copied as raw bytes."""
    dtype = batches[0].dtype
    raw = [b.view(_raw_dtype(dtype)) for b in batches]
    return (np.concatenate(raw) if len(raw) > 1 else raw[0]).view(dtype)


def reducer_outputs(codes: np.ndarray, pts: np.ndarray, r_count: int,
                    combine_k: int | None = None):
    """Yield a map block's output for each reducer r in turn, as (record
    count, payload): the points whose key modulo r_count is r, selected by
    index in point order.  The payload is their shuffle records, or with
    ``combine_k`` their partial sums over that many keys.  Each reducer's
    records are encoded from its own selection, so the largest transient
    copy is one reducer's share of the block, never the whole block."""
    owner = codes % r_count
    for r in range(r_count):
        i = np.flatnonzero(owner == r)
        if combine_k is None:
            yield len(i), wire.encode_shuffle_records(codes[i], pts[i])
        else:
            yield len(i), wire.encode(partial_sums_from_assignment(
                pts[i], codes[i], combine_k))


def _emit_map_outputs(ctx: EngineContext, node: int, block, iteration: int,
                      reducer_nodes: list[int]) -> None:
    """Map task body: assignment plus per-reducer shuffle record emission."""
    cluster = ctx.cluster
    pts, codes = map_block(ctx, node, block, iteration)
    with cluster.metrics.phase("shuffle"):
        kind = "combined" if ctx.combine else "records"
        outputs = reducer_outputs(codes, pts, len(reducer_nodes),
                                  ctx.initial.k if ctx.combine else None)
        for r, (records, payload) in enumerate(outputs):
            cluster.metrics.add(shuffle_bytes=len(payload),
                                shuffle_records=records)
            cluster.send(node, reducer_nodes[r], (kind, block.index, payload),
                         tag=f"sh{iteration}:b{block.index}>r{r}")


def _sorted_run(batches: list[np.ndarray], k: int) -> np.ndarray:
    """The batches' records, concatenated and stably sorted by key.  The
    keys sort as the smallest unsigned type that holds k - 1, which numpy
    sorts by radix up to 16 bits; a stable sort has one answer whatever the
    key type."""
    recs = concat_records(batches)
    order = np.argsort(recs["key"].astype(np.min_scalar_type(k - 1)),
                       kind="stable")
    return recs.view(_raw_dtype(recs.dtype)).take(order).view(recs.dtype)


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
                _sorted_run(buffered, k).tofile(path)
                cluster.metrics.add(shuffle_spills=1)
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
                parts.append(_sorted_run(buffered, k))
            if parts:
                # Merge of key-sorted runs; stable, so within a key the
                # original (block, point) order is preserved.
                merged = _sorted_run(parts, k)
            else:
                merged = np.empty(0, dtype=wire.shuffle_dtype(dims))
            partial = partial_sums_from_assignment(merged["coords"],
                                                   merged["key"], k)

    with cluster.metrics.phase("reduce"):
        write_means(ctx, node, iteration, r, partial)


def _run_map_wave(ctx: EngineContext, iteration: int,
                  reducer_nodes: list[int]) -> list[int]:
    """One map per block, preferring its replicas; the node each ran on."""
    return ctx.scheduler.run_wave(
        f"mr-{iteration}", [tuple(ctx.store.locate(b.index)) for b in ctx.blocks],
        lambda i, node: _emit_map_outputs(ctx, node, ctx.blocks[i], iteration,
                                          reducer_nodes))


def run_mapreduce(ctx: EngineContext) -> KMeansResult:
    cluster = ctx.cluster
    node_count = cluster.topology.node_count
    reducer_nodes = [r % node_count for r in range(ctx.reducer_count)]

    def run_tasks(iteration: int) -> None:
        placements = _run_map_wave(ctx, iteration, reducer_nodes)
        sources = [(node, b.index) for node, b in zip(placements, ctx.blocks)]
        cluster.join([cluster.run_task(node, _reduce_task, ctx, node, r,
                                       iteration, sources, kind="process")
                      for r, node in enumerate(reducer_nodes)])

    return drive_store_iterations(ctx, run_tasks)
