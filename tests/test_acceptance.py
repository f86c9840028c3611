"""Acceptance gate: one criterion per test, each printing a pass/fail line.

Runtimes are desk scale; the ordering criterion injects the declared cost
model, everything else runs with delays disabled.
"""

import random
import statistics
import threading
import time

import numpy as np
import pytest

from ogrebench import runner, wire
from ogrebench.collectives import (RECURSIVE_DOUBLING, TREE, CollectiveGroup)
from ogrebench.config import RunConfig
from ogrebench.costs import ZERO_COSTS
from ogrebench.fabric import ClusterTopology, spawn_cluster
from ogrebench.kernel import PartialSums, merge
from ogrebench.scenarios import TINY_FAMILY, lookup
from ogrebench.schedulers import (CentralizedScheduler, JobRequest,
                                  MultilevelScheduler, ResourceRequest)

TOPOLOGY = ClusterTopology(4, 4)


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{criterion}: {status}{suffix}", flush=True)


def run_cell(engine, spec, **kwargs):
    kwargs.setdefault("costs", ZERO_COSTS)
    kwargs.setdefault("topology", TOPOLOGY)
    kwargs.setdefault("compute_objective", False)
    return runner.run(RunConfig(spec=spec, engine=engine, **kwargs))


def test_ac1_oracle_equivalence():
    """All four engines reproduce the sequential reference on i-tiny and
    i-small within 1e-9 relative per coordinate."""
    failures = []
    for name in ("i-tiny", "i-small"):
        outcome = runner.verify(lookup(name), topology=TOPOLOGY)
        if not outcome.passed:
            d = outcome.divergence
            failures.append(f"{name}/{d.engine} at iteration {d.iteration}")
    report_line("AC-1 oracle equivalence", not failures, "; ".join(failures))
    assert not failures


def test_ac2_paradigm_ordering():
    """Median wall time (3 repetitions) orders mpi-like < iterative <
    mapreduce with every gap at least 20% on i-small and ii-small."""
    engines = ["mpi-like", "iterative", "mapreduce"]
    specs = {name: lookup(name) for name in ("i-small", "ii-small")}
    comparison = runner.compare(specs, engines, repetitions=3,
                                config_kwargs={"topology": TOPOLOGY,
                                               "compute_objective": False})
    medians = {}
    for cell in comparison.cells:
        medians.setdefault(cell.scenario, {})[cell.engine] = cell.median_wall
    problems = []
    for name, per_engine in medians.items():
        mpi = per_engine.get("mpi-like", float("inf"))
        it = per_engine.get("iterative", float("inf"))
        mr = per_engine.get("mapreduce", float("inf"))
        if not (it >= 1.2 * mpi and mr >= 1.2 * it):
            problems.append(
                f"{name}: mpi={mpi:.2f}s iterative={it:.2f}s "
                f"mapreduce={mr:.2f}s")
    detail = "; ".join(
        f"{n}: " + " ".join(f"{e}={t:.2f}s" for e, t in sorted(m.items()))
        for n, m in medians.items())
    report_line("AC-2 paradigm ordering", not problems,
                "; ".join(problems) or detail)
    assert not problems, problems


def test_ac3_shuffle_proportionality():
    """Per-iteration map-output bytes equal n*(4+8d) exactly and scale
    1:10:100 over the constant-compute scenario family, within 1%."""
    per_iteration = {}
    exact = True
    for name in TINY_FAMILY:
        spec = lookup(name)
        outcome = run_cell("mapreduce", spec)
        got = outcome.report.metrics["shuffle_bytes"] / outcome.result.iterations
        want = spec.n_points * wire.shuffle_record_size(spec.dims)
        exact &= got == want
        per_iteration[name] = got
    base = per_iteration[TINY_FAMILY[0]]
    ratios = [per_iteration[n] / base for n in TINY_FAMILY]
    proportional = all(abs(r / w - 1.0) <= 0.01
                       for r, w in zip(ratios, (1, 10, 100)))
    ok = exact and proportional
    report_line("AC-3 shuffle proportionality", ok,
                f"ratios {':'.join(f'{r:g}' for r in ratios)}")
    assert exact
    assert proportional


# -- AC-4 fixture: the mixed workload ---------------------------------------

GANG_TASK_SECONDS = 60.0
SMALL_TASKS = 64
SMALL_TASK_SECONDS = 1.0
TIME_SCALE = 0.02  # real seconds per modeled task-second


def _busy(task_seconds: float) -> float:
    time.sleep(task_seconds * TIME_SCALE)
    return task_seconds


def _utilization(makespan_model_seconds: float) -> float:
    busy = GANG_TASK_SECONDS + SMALL_TASKS * SMALL_TASK_SECONDS
    return busy / (TOPOLOGY.total_slots * makespan_model_seconds)


def _mixed_workload_centralized() -> float:
    cluster = spawn_cluster(TOPOLOGY, ZERO_COSTS)
    sched = CentralizedScheduler(cluster)
    try:
        start = time.perf_counter()

        def gang_job():
            alloc = sched.submit_job(JobRequest("gang", 4))
            try:
                per_slot = GANG_TASK_SECONDS / TOPOLOGY.total_slots
                futs = [cluster.run_task(n, _busy, per_slot, kind="worker")
                        for n in alloc.nodes
                        for _ in range(TOPOLOGY.cores_per_node)]
                for f in futs:
                    f.result(timeout=60)
            finally:
                sched.release(alloc)

        def small_job():
            # Job-level scheduling has no task granularity: a 1-second
            # single-core task still occupies a whole gang-scheduled node.
            alloc = sched.submit_job(JobRequest("small", 1))
            try:
                cluster.run_task(alloc.nodes[0], _busy, SMALL_TASK_SECONDS,
                                 kind="worker").result(timeout=60)
            finally:
                sched.release(alloc)

        threads = [threading.Thread(target=gang_job)]
        threads += [threading.Thread(target=small_job)
                    for _ in range(SMALL_TASKS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        return (time.perf_counter() - start) / TIME_SCALE
    finally:
        cluster.shutdown()


def _mixed_workload_multilevel() -> float:
    cluster = spawn_cluster(TOPOLOGY, ZERO_COSTS)
    rm = MultilevelScheduler(cluster)
    try:
        start = time.perf_counter()

        def gang_app():
            session = rm.register_app_master("gang")
            try:
                session.request_containers(ResourceRequest(
                    "gang", count=4, cores=TOPOLOGY.cores_per_node))
                grants = session.wait_for_grants(4, timeout=60)
                per_slot = GANG_TASK_SECONDS / TOPOLOGY.total_slots
                futs = [cluster.run_task(c.node, _busy, per_slot,
                                         kind="worker")
                        for c in grants
                        for _ in range(TOPOLOGY.cores_per_node)]
                for f in futs:
                    f.result(timeout=60)
                session.release(grants)
            finally:
                session.deregister()

        def small_app():
            # Task-level scheduling: each task is a single-core container,
            # released the moment the task completes.
            session = rm.register_app_master("small")
            try:
                session.request_containers(ResourceRequest(
                    "small", count=SMALL_TASKS))
                done = 0
                while done < SMALL_TASKS:
                    grants = session.wait_for_grants(1, timeout=60)
                    c = grants[0]
                    fut = cluster.run_task(c.node, _busy, SMALL_TASK_SECONDS,
                                           kind="worker")
                    fut.add_done_callback(
                        lambda _f, c=c: session.release([c]))
                    done += 1
            finally:
                # Deregister only after all small tasks have finished.
                while session.live:
                    time.sleep(0.01)
                session.deregister()

        threads = [threading.Thread(target=gang_app),
                   threading.Thread(target=small_app)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        return (time.perf_counter() - start) / TIME_SCALE
    finally:
        cluster.shutdown()


def test_ac4_scheduler_utilization():
    """The mixed workload (one 4-node gang job of 60 task-seconds plus 64
    one-second single-container tasks) utilizes a 4x4 cluster at least 15%
    better under multi-level than under centralized scheduling."""
    central = _utilization(_mixed_workload_centralized())
    multi = _utilization(_mixed_workload_multilevel())
    ok = multi >= central * 1.15
    report_line("AC-4 scheduler utilization", ok,
                f"centralized={central:.2f} multilevel={multi:.2f}")
    assert ok, (central, multi)


def test_ac5_locality():
    """Colocated r=3 mapreduce under multi-level scheduling keeps at least
    90% of map reads local; the shared store records exactly zero hits."""
    spec = lookup("i-tiny")
    colocated = run_cell("mapreduce", spec, scheduler="multilevel",
                         replication=3)
    m = colocated.report.metrics
    hits, misses = m["locality_hits"], m["locality_misses"]
    rate = hits / (hits + misses) if hits + misses else 0.0
    shared = run_cell("mapreduce", spec, scheduler="multilevel",
                      store_mode="shared")
    shared_hits = shared.report.metrics["locality_hits"]
    ok = rate >= 0.9 and shared_hits == 0
    report_line("AC-5 locality", ok,
                f"hit rate {rate:.0%}, shared hits {shared_hits}")
    assert rate >= 0.9
    assert shared_hits == 0


def test_ac6_persistence_and_copy_asymmetry():
    """After the initial load, in-memory engines never touch the store while
    store-backed engines re-read every iteration; peak resident generations
    are 1 (message passing) vs 3 (iterative)."""
    spec = lookup("i-tiny")
    dataset_bytes = spec.n_points * spec.dims * 8
    problems = []
    for engine in ("mpi-like", "iterative"):
        m = run_cell(engine, spec).report.metrics
        after_load = m["store_bytes_read"] - dataset_bytes
        if after_load != 0:
            problems.append(f"{engine} read {after_load} bytes after load")
    for engine in ("mapreduce", "pilot"):
        outcome = run_cell(engine, spec)
        after_load = (outcome.report.metrics["store_bytes_read"]
                      - dataset_bytes)
        if after_load <= 0 or after_load < outcome.result.iterations:
            problems.append(f"{engine} read only {after_load} bytes after load")
    gen_mpi = run_cell("mpi-like", spec).report.metrics[
        "peak_resident_generations"]
    gen_it = run_cell("iterative", spec).report.metrics[
        "peak_resident_generations"]
    if (gen_mpi, gen_it) != (1, 3):
        problems.append(f"generations mpi={gen_mpi} iterative={gen_it}")
    report_line("AC-6 persistence/copy asymmetry", not problems,
                "; ".join(problems))
    assert not problems


def _collective_once(p, algorithm):
    cluster = spawn_cluster(ClusterTopology(p, 2), ZERO_COSTS)
    try:
        group = CollectiveGroup(cluster, list(range(p)), algorithm=algorithm)
        rng = np.random.default_rng(p)
        payloads = [PartialSums(rng.uniform(0.1, 1.0, size=(4, 3)),
                                rng.integers(0, 100, size=4))
                    for _ in range(p)]
        members = [group.member(r) for r in range(p)]
        futs = [cluster.run_task(r, members[r].allreduce, payloads[r],
                                 kind="worker") for r in range(p)]
        results = [f.result(timeout=30) for f in futs]
        fold = payloads[0]
        for extra in payloads[1:]:
            fold = merge(fold, extra)
        return results, fold, cluster.metrics.snapshot().collective_messages
    finally:
        cluster.shutdown()


def test_ac7_collective_counts():
    """Tree allreduce moves 2(p-1) messages and recursive doubling
    p*log2(p); both agree with the sequential fold within 1e-12."""
    problems = []
    for p in (2, 4, 8):
        log2p = p.bit_length() - 1
        for algorithm, want in ((TREE, 2 * (p - 1)),
                                (RECURSIVE_DOUBLING, p * log2p)):
            results, fold, got = _collective_once(p, algorithm)
            if got != want:
                problems.append(f"{algorithm} p={p}: {got} messages != {want}")
            for res in results:
                err = np.max(np.abs(res.sums - fold.sums)
                             / np.maximum(1e-300, np.abs(fold.sums)))
                if err > 1e-12 or not np.array_equal(res.counts, fold.counts):
                    problems.append(f"{algorithm} p={p}: fold error {err:g}")
                    break
    report_line("AC-7 collective counts", not problems, "; ".join(problems))
    assert not problems


def test_ac8_elastic_grants_and_gang_atomicity():
    """24 requested containers on a 16-slot cluster: at most 16 up front,
    all 24 after staged releases; randomized gang workloads never see a
    partial allocation."""
    problems = []

    cluster = spawn_cluster(TOPOLOGY, ZERO_COSTS)
    try:
        rm = MultilevelScheduler(cluster)
        session = rm.register_app_master("app")
        session.request_containers(ResourceRequest("app", count=24))
        initial = session.wait_for_grants(16, timeout=30)
        if not session.events.empty():
            problems.append("grants exceeded capacity")
        total = list(initial)
        for batch_start in range(0, 16, 4):
            session.release(initial[batch_start:batch_start + 4])
            total += session.wait_for_grants(
                min(4, 24 - len(total)), timeout=30)
            if len(total) >= 24:
                break
        if len(total) != 24:
            problems.append(f"granted {len(total)} of 24")
    finally:
        cluster.shutdown()

    cluster = spawn_cluster(TOPOLOGY, ZERO_COSTS)
    try:
        sched = CentralizedScheduler(cluster)
        held: set[int] = set()
        held_lock = threading.Lock()
        atomic = [True]

        def trial(rng_seed):
            rng = random.Random(rng_seed)
            for _ in range(125):
                want = rng.randint(1, 4)
                alloc = sched.submit_job(JobRequest("t", want))
                with held_lock:
                    if len(alloc.nodes) != want or held & set(alloc.nodes):
                        atomic[0] = False
                    held.update(alloc.nodes)
                if rng.random() < 0.3:
                    time.sleep(0.0005)
                with held_lock:
                    held.difference_update(alloc.nodes)
                sched.release(alloc)

        threads = [threading.Thread(target=trial, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        if not atomic[0]:
            problems.append("partial or overlapping gang allocation observed")
    finally:
        cluster.shutdown()

    report_line("AC-8 elastic grant contract", not problems,
                "; ".join(problems))
    assert not problems


def test_ac9_compression_effect():
    """Compressing collective payloads strictly reduces accounted collective
    bytes without changing the centroid trajectory."""
    spec = lookup("i-tiny")
    plain = run_cell("iterative", spec, compress=False)
    packed = run_cell("iterative", spec, compress=True)
    fewer = (packed.report.metrics["collective_bytes"]
             < plain.report.metrics["collective_bytes"])
    identical = all(
        np.array_equal(a.coords, b.coords)
        for a, b in zip(plain.result.trajectory, packed.result.trajectory)
    ) and len(plain.result.trajectory) == len(packed.result.trajectory)
    ok = fewer and identical
    report_line(
        "AC-9 compression effect", ok,
        f"bytes {plain.report.metrics['collective_bytes']} -> "
        f"{packed.report.metrics['collective_bytes']}")
    assert fewer
    assert identical
