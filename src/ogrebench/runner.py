"""Run orchestration: end-to-end benchmark cells, oracle verification, and
cross-engine comparison with ordering verdicts."""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .blockstore import BlockStore, StoreMode
from .config import (DEFAULT_SCHEDULER, IncompatibleConfig, RunConfig,
                     RunReport)
from .costs import ZERO_COSTS
from .dataset import (PointFile, default_block_points, generate, init_centroids,
                      partition)
from .engines import ENGINES
from .engines.common import EngineContext
from .fabric import spawn_cluster
from .metrics import MetricsCollector
from .schedulers import (CentralizedScheduler, DecentralizedScheduler,
                         MultilevelScheduler)

TRAJECTORY_RTOL = 1e-9

# The ordering verdict only declares an ordering when consecutive medians
# differ by at least this factor; desk-scale noise guard.
VERDICT_MIN_GAP = 0.20
VERDICT_REPETITIONS = 3


@contextmanager
def workdir():
    """A run's scratch directory: ``OGREBENCH_WORKDIR`` if set, which is
    kept, else a temporary directory removed when the run ends."""
    base = os.environ.get("OGREBENCH_WORKDIR")
    if base:
        os.makedirs(base, exist_ok=True)
        yield base
    else:
        with tempfile.TemporaryDirectory(prefix="ogrebench-") as tmp:
            yield tmp


def _build_scheduler(name: str, cluster, seed: int):
    if name == "centralized":
        return CentralizedScheduler(cluster)
    if name == "multilevel":
        return MultilevelScheduler(cluster)
    if name == "decentral":
        return DecentralizedScheduler(cluster, seed=seed)
    raise IncompatibleConfig(f"unknown scheduler {name!r}")


@dataclass
class RunOutcome:
    report: RunReport
    result: kernel.KMeansResult


def run(config: RunConfig, point_file: PointFile | None = None) -> RunOutcome:
    """Execute one benchmark cell: generate-or-load, ingest, schedule,
    execute, report."""
    spec = config.spec
    metrics = MetricsCollector()
    # The cluster shuts down, waiting for every task, before the workdir goes.
    with workdir() as scratch:
        cluster = spawn_cluster(config.topology, config.costs, metrics)
        try:
            pf = point_file if point_file is not None else generate(spec)
            block_points = config.block_points or default_block_points(
                pf.n, config.topology.node_count)
            blocks = partition(pf, block_points)
            store = BlockStore(cluster, StoreMode(config.store_mode))
            store.ingest(pf, blocks, config.replication, spec.seed)
            initial = init_centroids(pf, spec.k_clusters, spec.seed)
            scheduler = _build_scheduler(config.scheduler, cluster, spec.seed)
            ctx = EngineContext(
                cluster=cluster, store=store, scheduler=scheduler, spec=spec,
                blocks=blocks, initial=initial,
                deterministic=config.deterministic,
                collective=config.collective, compress=config.compress,
                combine=config.combine, reducers=config.reducers,
                spill_threshold=config.spill_threshold, workdir=scratch,
            )
            start = time.perf_counter()
            result = ENGINES[config.engine](ctx)
            wall = time.perf_counter() - start
            stamps = [start] + ctx.iteration_stamps
            iteration_seconds = [b - a for a, b in zip(stamps, stamps[1:])]
            objective = (kernel.objective(pf.points, result.final)
                         if config.compute_objective else None)
            report = RunReport.build(config, result, metrics.snapshot(), wall,
                                     iteration_seconds, objective)
            return RunOutcome(report, result)
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Oracle verification
# ---------------------------------------------------------------------------

VERIFY_MAX_POINTS = 100_000


@dataclass
class Divergence:
    engine: str
    iteration: int
    centroid: int
    coordinate: int
    got: float
    expected: float


@dataclass
class VerifyOutcome:
    passed: bool
    engines: list[str]
    divergence: Divergence | None = None


def trajectories_match(trajectory, reference, rtol: float = TRAJECTORY_RTOL):
    """First (iteration, centroid, coordinate, got, expected) divergence, or
    None if every coordinate agrees within the relative tolerance."""
    for it, (got, want) in enumerate(zip(trajectory, reference)):
        a, b = got.coords, want.coords
        bad = np.abs(a - b) > rtol * np.maximum(1.0, np.abs(b))
        if bad.any():
            ci, di = np.argwhere(bad)[0]
            return (it, int(ci), int(di), float(a[ci, di]), float(b[ci, di]))
    if len(trajectory) != len(reference):
        it = min(len(trajectory), len(reference))
        return (it, -1, -1, float("nan"), float("nan"))
    return None


def verify(spec, engines: list[str] | None = None,
           topology=None) -> VerifyOutcome:
    """Run every compatible engine in deterministic mode against the
    sequential reference."""
    if spec.n_points > VERIFY_MAX_POINTS:
        raise IncompatibleConfig(
            f"scenario too large for the sequential oracle "
            f"(n={spec.n_points} > {VERIFY_MAX_POINTS})")
    engines = list(engines or ENGINES)
    pf = generate(spec)
    initial = init_centroids(pf, spec.k_clusters, spec.seed)
    reference = kernel.run_reference(pf.points, initial, spec.max_iter,
                                     spec.epsilon)
    checked = []
    for engine in engines:
        kwargs = {"topology": topology} if topology is not None else {}
        # Injected delays never change results, only timing; skip them so
        # the oracle gate stays fast.
        config = RunConfig(spec=spec, engine=engine,
                           scheduler=DEFAULT_SCHEDULER[engine],
                           deterministic=True, compute_objective=False,
                           costs=ZERO_COSTS, **kwargs)
        outcome = run(config, point_file=pf)
        div = trajectories_match(outcome.result.trajectory, reference.trajectory)
        if div is not None:
            return VerifyOutcome(False, checked,
                                 Divergence(engine, *div))
        checked.append(engine)
    return VerifyOutcome(True, checked)


# ---------------------------------------------------------------------------
# Cross-engine comparison
# ---------------------------------------------------------------------------


@dataclass
class CompareCell:
    scenario: str
    engine: str
    median_wall: float
    walls: list[float]
    report: RunReport


@dataclass
class Comparison:
    cells: list[CompareCell] = field(default_factory=list)
    verdicts: dict[str, str] = field(default_factory=dict)
    failed: bool = False


def ordering_verdict(medians: dict[str, float],
                     min_gap: float = VERDICT_MIN_GAP) -> str:
    """Pure function of collected medians: an ordering chain when every
    consecutive gap is at least min_gap, else 'inconclusive'."""
    ranked = sorted(medians.items(), key=lambda kv: kv[1])
    for (_, fast), (_, slow) in zip(ranked, ranked[1:]):
        if slow < fast * (1.0 + min_gap):
            return "inconclusive"
    return " < ".join(name for name, _ in ranked)


def compare(scenario_specs: dict[str, object], engines: list[str],
            repetitions: int = VERDICT_REPETITIONS,
            config_kwargs: dict | None = None) -> Comparison:
    """One run per (scenario, engine, repetition) with a shared seed; median
    wall times feed the per-scenario ordering verdict."""
    if len(engines) < 2:
        raise IncompatibleConfig("compare needs at least 2 engines")
    config_kwargs = dict(config_kwargs or {})
    comparison = Comparison()
    for name, spec in scenario_specs.items():
        pf = generate(spec)
        medians: dict[str, float] = {}
        for engine in engines:
            walls = []
            report = None
            try:
                for _ in range(repetitions):
                    config = RunConfig(spec=spec, engine=engine,
                                       scheduler=DEFAULT_SCHEDULER[engine],
                                       scenario_name=name, **config_kwargs)
                    outcome = run(config, point_file=pf)
                    walls.append(outcome.report.wall_seconds)
                    report = outcome.report
            except Exception:
                comparison.failed = True
                comparison.verdicts[name] = "incomplete"
                break
            median = statistics.median(walls)
            medians[engine] = median
            comparison.cells.append(CompareCell(name, engine, median, walls,
                                                report))
        else:
            comparison.verdicts[name] = ordering_verdict(medians)
    return comparison
