"""Engine behavior: oracle equivalence, job accounting, shuffle byte
formulas, persistence and copy asymmetries, locality, and the workdir."""

import collections
import logging
import os
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ogrebench import kernel, runner, wire
from ogrebench.config import (COMPATIBLE_SCHEDULERS, DEFAULT_SCHEDULER,
                              RunConfig)
from ogrebench.costs import ZERO_COSTS, CostModel
from ogrebench.dataset import ScenarioSpec, generate, init_centroids
from ogrebench.engines import ENGINES
from ogrebench.engines import mapreduce
from ogrebench.engines.common import EngineFailure
from ogrebench.fabric import ClusterTopology

TINY = ScenarioSpec(2_000, 20, dims=3, seed=11)
# Every engine under every scheduler that can host it; a pair with the
# engine's default scheduler is named after the engine alone.
ENGINE_SCHEDULER_PAIRS = [
    pytest.param(engine, scheduler,
                 id=(engine if scheduler == DEFAULT_SCHEDULER[engine]
                     else f"{engine}-{scheduler}"))
    for engine in sorted(ENGINES)
    for scheduler in sorted(COMPATIBLE_SCHEDULERS[engine])]


def run_cell(engine, spec=TINY, **kwargs):
    kwargs.setdefault("costs", ZERO_COSTS)
    kwargs.setdefault("compute_objective", False)
    config = RunConfig(spec=spec, engine=engine, **kwargs)
    return runner.run(config)


def reference_for(spec):
    pf = generate(spec)
    initial = init_centroids(pf, spec.k_clusters, spec.seed)
    return kernel.run_reference(pf.points, initial, spec.max_iter, spec.epsilon)


class TestOracleEquivalence:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_trajectory_matches_reference(self, engine):
        outcome = run_cell(engine)
        want = reference_for(TINY)
        assert outcome.result.iterations == want.iterations
        assert outcome.result.converged == want.converged
        assert runner.trajectories_match(outcome.result.trajectory,
                                         want.trajectory) is None

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_rdouble_collective_also_matches(self, engine):
        outcome = run_cell(engine, collective="rdouble")
        want = reference_for(TINY)
        assert runner.trajectories_match(outcome.result.trajectory,
                                         want.trajectory) is None

    def test_mapreduce_matches_under_every_scheduler(self):
        want = reference_for(TINY)
        for scheduler in ("multilevel", "centralized", "decentral"):
            outcome = run_cell("mapreduce", scheduler=scheduler)
            assert runner.trajectories_match(outcome.result.trajectory,
                                             want.trajectory) is None

    def test_injected_bug_is_caught(self, monkeypatch):
        # Negative control: a perturbed assignment must fail verification at
        # the first computed iteration.
        real = kernel.assign_block

        def crooked(points, centroids):
            codes = real(points, centroids)
            codes = codes.copy()
            codes[0] = (codes[0] + 1) % centroids.k
            return codes

        want = reference_for(TINY)
        monkeypatch.setattr("ogrebench.engines.message_passing.assign_block",
                            crooked)
        outcome = run_cell("mpi-like")
        div = runner.trajectories_match(outcome.result.trajectory,
                                        want.trajectory)
        assert div is not None
        assert div[0] == 1

    def test_verify_k1_degenerate(self):
        spec = ScenarioSpec(500, 1, dims=2, seed=3)
        outcome = runner.verify(spec)
        assert outcome.passed
        # One update step lands on the global mean; the stopping rule then
        # needs one zero-displacement step to observe convergence.
        want = reference_for(spec)
        pf = generate(spec)
        np.testing.assert_allclose(want.trajectory[1].coords,
                                   pf.points.mean(axis=0, keepdims=True))
        assert want.converged


class TestTreeKernel:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_tree_path_matches_full_scan_bitwise(self, engine, monkeypatch):
        # k above the crossover, so every assign_block call queries the
        # tree.  The collective engines sum per block, so their trajectory
        # differs from the reference's in the last bits; against the same
        # engine on the full scan it must be identical.
        spec = ScenarioSpec(10_000, 500, dims=3, seed=7, max_iter=4)
        assert spec.k_clusters >= kernel.TREE_MIN_K
        fast = run_cell(engine, spec=spec).result
        monkeypatch.setattr(kernel, "TREE_MIN_K", spec.k_clusters + 1)
        brute = run_cell(engine, spec=spec).result
        assert len(fast.trajectory) == len(brute.trajectory)
        for a, b in zip(fast.trajectory, brute.trajectory):
            np.testing.assert_array_equal(a.coords, b.coords)
        assert runner.trajectories_match(fast.trajectory,
                                         reference_for(spec).trajectory) is None


class TestRunHygiene:
    @pytest.fixture
    def clusters(self, monkeypatch):
        spawned = []
        real = runner.spawn_cluster

        def spawn(*args, **kwargs):
            spawned.append(real(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(runner, "spawn_cluster", spawn)
        return spawned

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_no_channel_outlives_the_run(self, engine, clusters):
        run_cell(engine)
        assert clusters[0]._channels == {}

    @pytest.mark.parametrize("engine,scheduler", ENGINE_SCHEDULER_PAIRS)
    def test_worker_failure_surfaces_fast_with_its_cause(
            self, engine, scheduler, monkeypatch, caplog):
        # The store engines get a bare KeyError, whose text is empty, so
        # the message can name the cause only by its type.
        injected = "^task failed: RuntimeError: injected fault on node1$"
        module, fault, cause = {
            "mpi-like": ("message_passing",
                         lambda: RuntimeError("injected fault on node1"),
                         injected),
            "iterative": ("iterative",
                          lambda: RuntimeError("injected fault on node1"),
                          injected),
            "mapreduce": ("mapreduce", KeyError, "^task failed: KeyError: $"),
            "pilot": ("mapreduce", KeyError, "^task failed: KeyError: $"),
        }[engine]
        real = kernel.assign_block

        def faulty(points, centroids):
            if threading.current_thread().name.startswith("node1"):
                raise fault()
            return real(points, centroids)

        monkeypatch.setattr(f"ogrebench.engines.{module}.assign_block", faulty)
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(EngineFailure, match=cause):
            run_cell(engine, scheduler=scheduler)
        assert time.monotonic() - start < 2.0
        assert not [t for t in threading.enumerate()
                    if t not in before and t.name.startswith("node")
                    and t.is_alive()]
        # No slot is given back twice, so no callback or release logs.
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestSeedTotality:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_identical_config_identical_result_and_counters(self, engine):
        a = run_cell(engine)
        b = run_cell(engine)
        for ca, cb in zip(a.result.trajectory, b.result.trajectory):
            np.testing.assert_array_equal(ca.coords, cb.coords)
        ma, mb = a.report.metrics, b.report.metrics
        for counter in ("network_bytes", "shuffle_bytes", "store_bytes_read",
                        "store_bytes_written", "collective_bytes",
                        "jobs_launched"):
            assert ma[counter] == mb[counter], counter


class TestJobAccounting:
    def test_mapreduce_one_job_per_iteration(self):
        outcome = run_cell("mapreduce")
        assert outcome.report.metrics["jobs_launched"] == outcome.result.iterations

    @pytest.mark.parametrize("engine", ["iterative", "mpi-like", "pilot"])
    def test_long_running_engines_submit_once(self, engine):
        outcome = run_cell(engine)
        assert outcome.report.metrics["jobs_launched"] == 1
        assert outcome.result.iterations > 1


class TestChargePairing:
    @pytest.mark.parametrize("engine,scheduler", ENGINE_SCHEDULER_PAIRS)
    def test_every_modeled_delay_comes_with_its_counters(
            self, engine, scheduler, monkeypatch):
        # The three sleep primitives only record; each sleep_ms class has
        # its own duration, so the recorded value names the class.
        ms_class = {1.0: "job", 2.0: "process", 3.0: "thread", 4.0: "cu",
                    5.0: "grant"}
        costs = CostModel(job_launch_ms=1.0, process_task_ms=2.0,
                          thread_task_ms=3.0, cu_launch_ms=4.0,
                          container_grant_ms=5.0)
        calls = []
        monkeypatch.setattr(CostModel, "sleep_ms",
                            lambda self, ms: calls.append(ms_class[ms]))
        monkeypatch.setattr(CostModel, "charge_message",
                            lambda self, nbytes: calls.append("link"))
        monkeypatch.setattr(CostModel, "charge_store",
                            lambda self, nbytes, shared: calls.append("store"))
        built = []
        real = runner._build_scheduler
        monkeypatch.setattr(runner, "_build_scheduler",
                            lambda *args: built.append(real(*args)) or built[-1])

        outcome = run_cell(engine, scheduler=scheduler, costs=costs)
        m = outcome.report.metrics
        seen = collections.Counter(calls)
        assert seen["link"] == m["network_messages"]
        # The ingest's store write is not charged.
        assert seen["store"] == m["store_reads"] + m["store_writes"] - 1
        assert seen["job"] == m["jobs_launched"]
        workers = (outcome.report.config["topology"]["node_count"]
                   if engine in ("mpi-like", "iterative") else 0)
        assert (seen["process"] + seen["thread"] + seen["cu"]
                == m["tasks_launched"] - workers)
        if scheduler == "multilevel":
            granted = next(built[0]._next_container)
            assert granted > 0
            assert seen["grant"] == granted
        else:
            assert seen["grant"] == 0


class TestShuffleAccounting:
    def test_map_output_bytes_formula(self):
        spec = ScenarioSpec(10_000, 500, dims=3, seed=42)
        outcome = run_cell("mapreduce", spec=spec)
        per_iter = spec.n_points * wire.shuffle_record_size(spec.dims)
        assert per_iter == 280_000
        assert (outcome.report.metrics["shuffle_bytes"]
                == per_iter * outcome.result.iterations)
        assert (outcome.report.metrics["shuffle_records"]
                == spec.n_points * outcome.result.iterations)

    def test_spills_observable_below_default_threshold(self):
        outcome = run_cell("mapreduce", spec=ScenarioSpec(3_000, 30, seed=2),
                           spill_threshold=4096)
        assert outcome.report.metrics["shuffle_spills"] > 0

    def test_combining_shrinks_shuffle_but_preserves_results(self):
        plain = run_cell("mapreduce")
        combined = run_cell("mapreduce", combine=True)
        assert (combined.report.metrics["shuffle_bytes"]
                < plain.report.metrics["shuffle_bytes"])
        for ca, cb in zip(plain.result.trajectory, combined.result.trajectory):
            np.testing.assert_allclose(ca.coords, cb.coords, rtol=1e-9)

    def test_no_shuffle_for_collective_engines(self):
        for engine in ("mpi-like", "iterative"):
            outcome = run_cell(engine)
            assert outcome.report.metrics["shuffle_bytes"] == 0

    def test_pilot_exchange_goes_through_store_not_network(self):
        outcome = run_cell("pilot")
        m = outcome.report.metrics
        assert m["shuffle_bytes"] == 0
        # M x R intermediate files per iteration plus one reduce output per
        # reducer and one centroid object.
        blocks = 16
        reducers = 4
        per_iter = blocks * reducers + reducers + 1
        assert m["store_writes"] == 2 + per_iter * outcome.result.iterations


class TestShuffleCode:
    """The map-side split and the reducer sort against the plain numpy
    formulation of the same records."""

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(0, 120), r_count=st.integers(1, 5),
           k=st.integers(1, 12), dims=st.integers(1, 4), data=st.data())
    def test_reducer_outputs_equal_each_reducers_own_encoding(
            self, n, r_count, k, dims, data):
        # With k < r_count, and at small n, some reducers get no records.
        codes = data.draw(hnp.arrays(st.sampled_from([np.int32, np.int64]), n,
                                     elements=st.integers(0, k - 1)))
        pts = data.draw(hnp.arrays(np.float64, (n, dims),
                                   elements=st.floats(-1e6, 1e6)))
        got = list(mapreduce.reducer_outputs(codes, pts, r_count))
        combined = list(mapreduce.reducer_outputs(codes, pts, r_count, k))
        assert len(got) == len(combined) == r_count
        for r in range(r_count):
            mask = codes % r_count == r
            assert got[r] == (int(mask.sum()), wire.encode_shuffle_records(
                codes[mask], pts[mask]))
            assert combined[r] == (int(mask.sum()), wire.encode(
                kernel.partial_sums_from_assignment(pts[mask], codes[mask],
                                                    k)))

    def test_reducer_outputs_hold_no_whole_block_copy(self):
        # The split's transient copies are one reducer's share at a time:
        # with 16 reducers its peak stays below one encoding of the block.
        n, r_count = 16_000, 16
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 64, n)
        pts = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _, payload in mapreduce.reducer_outputs(codes, pts, r_count):
                del payload
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * wire.shuffle_record_size(3)

    @pytest.mark.parametrize("batches", [1, 4])
    @pytest.mark.parametrize("max_key", [255, 256, 65535, 65536])
    def test_sorted_run_is_a_stable_sort_by_key(self, max_key, batches):
        rng = np.random.default_rng(max_key + batches)
        # Few distinct keys, so most records share a key with others and
        # only a stable sort keeps their order.
        pool = np.array([0, 1, max_key // 2, max_key - 1, max_key])
        parts = []
        for _ in range(batches):
            n = int(rng.integers(50, 400))
            keys = rng.choice(pool, n)
            parts.append(wire.decode_shuffle_records(
                wire.encode_shuffle_records(keys, rng.normal(size=(n, 3))), 3))
        recs = np.concatenate(parts)
        want = recs[np.argsort(recs["key"], kind="stable")]
        got = mapreduce._sorted_run(parts, max_key + 1)
        assert got.dtype == wire.shuffle_dtype(3)
        assert got.tobytes() == want.tobytes()


class TestPersistenceAsymmetry:
    def test_in_memory_engines_stop_reading_after_load(self):
        for engine in ("mpi-like", "iterative"):
            outcome = run_cell(engine)
            m = outcome.report.metrics
            # Only the initial block loads: one read per block, no objects.
            assert m["store_reads"] == 16
            assert m["store_bytes_read"] == TINY.n_points * TINY.dims * 8

    def test_store_backed_engines_reread_every_iteration(self):
        dataset_bytes = TINY.n_points * TINY.dims * 8
        for engine in ("mapreduce", "pilot"):
            outcome = run_cell(engine)
            m = outcome.report.metrics
            iters = outcome.result.iterations
            assert m["store_bytes_read"] > dataset_bytes
            # Centroids are persisted and re-read each iteration.
            assert m["store_writes"] >= 1 + iters

    def test_peak_generations(self):
        assert run_cell("mpi-like").report.metrics[
            "peak_resident_generations"] == 1
        assert run_cell("iterative").report.metrics[
            "peak_resident_generations"] == 3


class TestLocality:
    def test_colocated_multilevel_prefers_replicas(self):
        outcome = run_cell("mapreduce", scheduler="multilevel", replication=3)
        m = outcome.report.metrics
        map_hits = m["locality_hits"]
        assert map_hits / (map_hits + m["locality_misses"]) >= 0.9

    def test_full_replication_always_hits(self):
        outcome = run_cell("mapreduce", scheduler="multilevel", replication=4)
        assert outcome.report.metrics["locality_misses"] == 0

    def test_shared_store_never_hits(self):
        outcome = run_cell("mapreduce", store_mode="shared")
        m = outcome.report.metrics
        assert m["locality_hits"] == 0
        assert m["shared_reads"] > 0


class TestTopologies:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_engines_run_on_odd_topologies(self, engine, nodes):
        spec = ScenarioSpec(600, 6, dims=2, seed=5, max_iter=4)
        outcome = run_cell(engine, spec=spec,
                           topology=ClusterTopology(nodes, 2))
        want = reference_for(spec)
        assert runner.trajectories_match(outcome.result.trajectory,
                                         want.trajectory) is None


class TestWorkdir:
    def test_default_workdir_is_removed_after_the_run(self, monkeypatch):
        monkeypatch.delenv("OGREBENCH_WORKDIR", raising=False)

        def leftovers():
            return {name for name in os.listdir(tempfile.gettempdir())
                    if name.startswith("ogrebench-")}

        before = leftovers()
        outcome = run_cell("mapreduce", spec=ScenarioSpec(3_000, 30, seed=2),
                           spill_threshold=4096)
        assert outcome.report.metrics["shuffle_spills"] > 0
        assert leftovers() <= before

    def test_named_workdir_is_kept(self, monkeypatch, tmp_path):
        base = tmp_path / "work"
        monkeypatch.setenv("OGREBENCH_WORKDIR", str(base))
        run_cell("mapreduce", spill_threshold=4096)
        assert base.is_dir()
