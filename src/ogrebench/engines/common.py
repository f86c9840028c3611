"""Shared engine plumbing: the execution context handed to every engine and
the SPMD loop of the collective engines."""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, wait
from dataclasses import dataclass, field

from ..blockstore import BlockStore
from ..collectives import CollectiveGroup
from ..dataset import Block, ScenarioSpec
from ..fabric import Cluster
from ..kernel import CentroidSet, KMeansResult, converged, finalize


class EngineFailure(RuntimeError):
    """A task or worker failed; the run aborts (no retry)."""


@dataclass
class EngineContext:
    cluster: Cluster
    store: BlockStore
    scheduler: object
    spec: ScenarioSpec
    blocks: list[Block]
    initial: CentroidSet
    deterministic: bool = True
    collective: str = "tree"
    compress: bool = False
    combine: bool = False
    reducers: int | None = None
    spill_threshold: int = 1 << 20
    workdir: str = "."
    # perf_counter stamps per completed iteration, for per-iteration times
    iteration_stamps: list[float] = field(default_factory=list)

    @property
    def reducer_count(self) -> int:
        return self.reducers or self.cluster.topology.node_count

    def stamp_iteration(self) -> None:
        self.iteration_stamps.append(time.perf_counter())


def assign_blocks_contiguous(blocks: list[Block], workers: int) -> list[list[Block]]:
    """Contiguous runs of blocks per worker, so folding local results in
    ascending worker rank equals ascending global block order."""
    per = -(-len(blocks) // workers)
    return [blocks[w * per : (w + 1) * per] for w in range(workers)]


def run_spmd(ctx: EngineContext, worker_nodes: list[int], load,
             local_partials) -> KMeansResult:
    """The collective engines' program: one long-running worker per node
    loads its contiguous run of blocks once, then every iteration computes
    local partial sums, allreduces them and applies the same update.

    ``load(ctx, node, blocks)`` returns the worker's resident data and
    ``local_partials(ctx, data, centroids)`` its PartialSums; they are what
    sets one engine apart from another."""
    cluster = ctx.cluster
    group = CollectiveGroup(cluster, worker_nodes, algorithm=ctx.collective,
                            deterministic=ctx.deterministic, compress=ctx.compress)
    per_worker = assign_blocks_contiguous(ctx.blocks, len(worker_nodes))
    trajectory = [ctx.initial]

    def worker(rank: int) -> bool:
        member = group.member(rank)
        with cluster.metrics.phase("load"):
            data = load(ctx, worker_nodes[rank], per_worker[rank])
        cluster.metrics.note_generations(1)
        current = ctx.initial
        for _ in range(ctx.spec.max_iter):
            with cluster.metrics.phase("compute"):
                partial = local_partials(ctx, data, current)
            with cluster.metrics.phase("collective"):
                reduced = member.allreduce(partial)
            nxt = finalize(reduced, current)
            if rank == 0:
                trajectory.append(nxt)
                ctx.stamp_iteration()
            done = converged(current, nxt, ctx.spec.epsilon)
            current = nxt
            if done:
                break
        return done

    futures = [cluster.run_task(node, worker, rank, kind="worker")
               for rank, node in enumerate(worker_nodes)]
    finished, _ = wait(futures, return_when=FIRST_EXCEPTION)
    cause = next((fut.exception() for fut in futures
                  if fut in finished and fut.exception() is not None), None)
    if cause is not None:
        # Peers blocked in recv would otherwise wait out its timeout.
        cluster.abort(cause)
        wait(futures)
        raise EngineFailure(
            f"worker failed: {type(cause).__name__}: {cause}") from cause
    done = [fut.result() for fut in futures]
    return KMeansResult(final=trajectory[-1], iterations=len(trajectory) - 1,
                        trajectory=trajectory, converged=done[0])
