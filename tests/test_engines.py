"""Engine behavior: oracle equivalence, job accounting, shuffle byte
formulas, persistence and copy asymmetries, locality, and the workdir."""

import os
import tempfile
import threading
import time

import numpy as np
import pytest

from ogrebench import kernel, runner, wire
from ogrebench.config import RunConfig
from ogrebench.costs import ZERO_COSTS
from ogrebench.dataset import ScenarioSpec, generate, init_centroids
from ogrebench.engines import ENGINES
from ogrebench.engines.common import EngineFailure
from ogrebench.fabric import ClusterTopology

TINY = ScenarioSpec(2_000, 20, dims=3, seed=11)


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

    @pytest.mark.parametrize("engine", ["mpi-like", "iterative"])
    def test_worker_failure_surfaces_fast_with_its_cause(self, engine,
                                                         monkeypatch):
        module = {"mpi-like": "message_passing", "iterative": "iterative"}
        real = kernel.assign_block

        def faulty(points, centroids):
            if threading.current_thread().name.startswith("node1"):
                raise RuntimeError("injected fault on node1")
            return real(points, centroids)

        monkeypatch.setattr(f"ogrebench.engines.{module[engine]}.assign_block",
                            faulty)
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(EngineFailure, match="injected fault on node1"):
            run_cell(engine)
        assert time.monotonic() - start < 2.0
        assert not [t for t in threading.enumerate()
                    if t not in before and t.name.startswith("node")
                    and t.is_alive()]


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
