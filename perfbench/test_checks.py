"""The benchmark's checks must be able to fail.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
from ogrebench import dataset, kernel, runner  # noqa: E402
from ogrebench.config import RunConfig  # noqa: E402
from ogrebench.costs import CostModel  # noqa: E402

N, K, ITERS = 2_000, 20, 2


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    """One small cell per engine with the default (delay-injecting) costs,
    a spill threshold low enough to make mapreduce spill, and the
    independent answer for the same points."""
    spec = dataset.ScenarioSpec(N, K, 3, 5, ITERS, 1e-4)
    pf = dataset.generate(spec)
    initial = dataset.init_centroids(pf, K, 5)
    shape = checks.Shape(N, 3, 4)
    threshold = 4096
    spills = checks.SpillPredictor(shape, threshold)
    lloyd = checks.Lloyd(pf.points, initial.coords, ITERS, 1e-4, on_codes=spills)
    outcomes = {}
    for engine in run.ENGINES:
        config = RunConfig(spec=spec, engine=engine, costs=CostModel(),
                           spill_threshold=threshold, compute_objective=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("OGREBENCH_WORKDIR", str(tmp_path_factory.mktemp(engine)))
            outcome = runner.run(config, point_file=pf)
        outcomes[engine] = (outcome, dataclasses.asdict(outcome.report))
    return shape, lloyd, spills.spills, outcomes, pf, initial


def test_real_cells_pass_every_check(cells):
    shape, lloyd, spills, outcomes, _, _ = cells
    assert spills > 0
    assert checks.check_objective(lloyd.objectives) == []
    for engine, (outcome, report) in outcomes.items():
        traj = [c.coords for c in outcome.result.trajectory]
        assert checks.check_trajectory(engine, traj, lloyd.trajectory) == []
        assert checks.check_counters(engine, report, shape, lloyd.iterations,
                                     spills) == []
        assert checks.delay_floor(engine, report, shape) > 0
        assert checks.check_floor(engine, report, shape) == []


def test_independent_lloyd_matches_the_reference(cells):
    _, lloyd, _, _, pf, initial = cells
    ref = kernel.run_reference(pf.points, initial, ITERS, 1e-4)
    assert checks.check_trajectory(
        "reference", [c.coords for c in ref.trajectory], lloyd.trajectory) == []


def test_one_coordinate_moved_by_1e_6_is_rejected(cells):
    _, lloyd, _, _, _, _ = cells
    moved = [c.copy() for c in lloyd.trajectory]
    moved[-1][3, 1] += 1e-6
    problems = checks.check_trajectory("cell", moved, lloyd.trajectory)
    assert len(problems) == 1 and "centroid 3 coordinate 1" in problems[0]


def test_an_extra_iteration_is_rejected(cells):
    _, lloyd, _, _, _, _ = cells
    longer = lloyd.trajectory + [lloyd.trajectory[-1]]
    assert checks.check_trajectory("cell", longer, lloyd.trajectory)


def test_a_rising_objective_is_rejected():
    assert checks.check_objective([3.0, 2.0, 2.0]) == []
    assert checks.check_objective([3.0, 2.0, 2.0 * (1 + 1e-9)])


def test_an_exact_tie_resolves_to_the_lowest_index():
    # The origin is exactly as far from centroids 1, 2 and 3; centroid 0
    # is farther away.  Both points must go to centroid 1.
    centroids = np.array([[50.0, 50.0, 50.0], [1.0, 0.0, 0.0],
                          [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    codes, d2 = checks.nearest(points, centroids)
    assert codes.tolist() == [1, 1]
    assert d2.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("engine,counter,amount", [
    ("mapreduce", "shuffle_records", 1), ("mapreduce", "shuffle_bytes", 1),
    ("mapreduce", "jobs_launched", 1), ("mapreduce", "shuffle_spills", 1),
    ("mapreduce", "store_reads", 1), ("iterative", "collective_messages", 1),
    ("mpi-like", "collective_messages", 1), ("iterative", "tasks_launched", 1),
    ("pilot", "store_writes", 1),
    # One iteration's intermediate files missing from the written bytes.
    ("pilot", "store_bytes_written", N * checks.record_bytes(3)),
])
def test_a_counter_doctored_down_is_rejected(cells, engine, counter, amount):
    shape, lloyd, spills, outcomes, _, _ = cells
    report = copy.deepcopy(outcomes[engine][1])
    report["metrics"][counter] -= amount
    problems = checks.check_counters(engine, report, shape, lloyd.iterations,
                                     spills)
    assert any(counter in p for p in problems)


@pytest.mark.parametrize("engine", run.ENGINES)
def test_a_wall_doctored_below_its_floor_is_rejected(cells, engine):
    shape, _, _, outcomes, _, _ = cells
    report = copy.deepcopy(outcomes[engine][1])
    report["wall_seconds"] = 0.99 * checks.delay_floor(engine, report, shape)
    assert checks.check_floor(engine, report, shape)


def test_skipping_a_modeled_delay_fails_the_floor(cells):
    # A mapreduce that launched its jobs without the job-launch delay would
    # finish about jobs * job_launch_ms sooner than the floor allows.
    shape, _, _, outcomes, _, _ = cells
    report = copy.deepcopy(outcomes["mapreduce"][1])
    costs = report["config"]["costs"]
    report["wall_seconds"] -= (report["metrics"]["jobs_launched"]
                               * costs["job_launch_ms"] * 1e-3)
    assert checks.check_floor("mapreduce", report, shape)


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.per_layer_units()


def test_tracer_classes_injected_delays_and_restores_the_program(tmp_path,
                                                               monkeypatch):
    from ogrebench import engines, kernel as kernel_module
    from ogrebench.engines import mapreduce
    from tracing import Tracer, layer_metrics

    spec = dataset.ScenarioSpec(N, K, 3, 5, ITERS, 1e-4)
    config = RunConfig(spec=spec, engine="mapreduce", costs=CostModel(),
                       compute_objective=False)
    monkeypatch.setenv("OGREBENCH_WORKDIR", str(tmp_path))
    tracer = Tracer()
    with tracer:
        report = runner.run(config).report
    layers = layer_metrics(tracer.totals())
    jobs = report.metrics["jobs_launched"]
    blocks = checks.Shape(N, 3, 4).blocks
    assert layers["costs.injected_job_launch_s"] >= jobs * 0.2
    assert layers["costs.injected_container_grant_s"] >= jobs * blocks * 0.02
    assert layers["fabric.charge_task_launch_calls"] == report.metrics["tasks_launched"]
    assert layers["kernel.assign_block_points"] == N * report.iterations
    assert mapreduce.assign_block is kernel_module.assign_block
    assert not hasattr(kernel_module.assign_block, "__wrapped__")
    assert not hasattr(engines.ENGINES["mapreduce"], "__wrapped__")
