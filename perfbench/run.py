"""Benchmark of the four K-means paradigms on three workloads.

    python3 perfbench/run.py --workload kernel-bound --seed 1 --seconds 30 --trace 0

One process runs one cell after another through ogrebench's public API:
``dataset.generate`` once, then rounds of ``kernel.run_reference`` and one
``runner.run`` per engine with its default scheduler, until ``--seconds``
have passed.  Every output is checked against an independent Lloyd
trajectory and against counts derived from the workload's shape.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced rounds alternate, the
per-layer metrics are printed, and a Chrome trace and a per-layer table
are written under ``perfbench/out/``.  The program is imported from ``src/``
of the checkout it sits in; nothing needs to be installed but numpy and
scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import checks
from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

ENGINES = ("mpi-like", "iterative", "mapreduce", "pilot")
DIMS = 3
EPSILON = 1e-4


@dataclass(frozen=True)
class Workload:
    n: int
    blobs: int  # Gaussian blobs the points are drawn from
    k: int  # clusters K-means looks for
    max_iter: int
    delays: bool  # default CostModel, or ZERO_COSTS
    # Reference runs per round, one before each of the first cells: a short
    # reference is sampled at several moments of the round to be steady.
    reference_runs: int
    why: str


# Each max_iter sits below the earliest convergence seen over 15 to 400 seeds
# of its shape (iteration 5 for kernel-bound, none before the 14th for
# data-bound, 8 for overhead-bound), so every seed runs exactly max_iter iterations and the
# walls do not swing with the seed's convergence step.  Data-bound draws its
# points from many blobs for the same reason: from i-tiny-x100's own 5 blobs,
# Lloyd at k=5 stops before the 10th iteration on a third of the seeds.
# Kernel- and data-bound are kept small (a round takes about 1 s and 2 s)
# so that a run holds a few dozen rounds: the best of many short samples is
# steady on a host whose CPU speed swings for tens of seconds at a time.
WORKLOADS = {
    "kernel-bound": Workload(
        6_250, 2_500, 2_500, 4, False, 2,
        "6250 points at k=2500 with no modeled delays: assign_block is nearly "
        "all the work"),
    "data-bound": Workload(
        250_000, 5_000, 5, 10, False, 2,
        "250k points at k=5 with no modeled delays: records through shuffle, "
        "store and partition copies dominate"),
    "overhead-bound": Workload(
        10_000, 500, 500, 4, True, 4,
        "i-tiny (10k points, k=500) with the default CostModel: launches, "
        "grants, link and store delays dominate"),
}

END_TO_END_UNITS = {
    "setup_s": "s", "reference_s": "s", "mpi_like_s": "s", "iterative_s": "s",
    "mapreduce_s": "s", "pilot_s": "s", "total_s": "s",
    "lloyd_point_iters_per_s": "1/s", "peak_rss_mb": "MB",
}

ENGINE_COUNTERS = ("iterations", "shuffle_bytes", "shuffle_spills",
                   "network_bytes", "store_bytes_read", "store_bytes_written",
                   "jobs_launched", "tasks_launched", "collective_messages")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    names = ["dataset.generate_s", *LAYER_METRICS]
    names += [f"engines.{e}.{c}" for e in ENGINES for c in ENGINE_COUNTERS]
    names += ["process.cpu_s", "process.cpu_per_wall", "trace.total_s",
              "trace.untraced_total_s", "trace.overhead_pct"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif "_bytes" in name:
            units[name] = "B"
        elif name.endswith("_pct"):
            units[name] = "%"
        elif name.endswith("_per_wall"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def pin_to_one_cpu() -> None:
    """Move every thread of the process, numpy's pool among them, and so
    every thread started later, to the lowest CPU it may use.

    The engines hold the GIL for nearly all their work, so a second CPU buys
    little and brings GIL handoffs between CPUs whose speed the host's other
    load sets.  On a 2-vCPU VM that swung the walls by up to 50 % between
    runs; on one CPU they held within a few per cent."""
    cpu = {min(os.sched_getaffinity(0))}
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpu)


def import_program():
    """Import ogrebench from the checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "ogrebench", "__init__.py")):
        sys.exit(f"perfbench: no ogrebench source under {SRC}")
    sys.path.insert(0, SRC)
    import ogrebench

    if not os.path.abspath(ogrebench.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported ogrebench from {ogrebench.__file__}, "
                 f"not from {SRC}")


class Bench:
    """One workload at one seed: the inputs, the independent answer, and the
    rounds run so far."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        from ogrebench import dataset
        from ogrebench.costs import CostModel, ZERO_COSTS

        self.workload = workload
        self.costs = CostModel() if workload.delays else ZERO_COSTS
        w = workload
        self.spec = dataset.ScenarioSpec(w.n, w.k, DIMS, seed, w.max_iter, EPSILON)
        blob_spec = dataset.ScenarioSpec(w.n, w.blobs, DIMS, seed, w.max_iter,
                                         EPSILON)
        self.gen_tracer = Tracer()
        start = time.perf_counter()
        with self.gen_tracer if trace else contextlib.nullcontext():
            self.pf = dataset.generate(blob_spec)
        self.initial = dataset.init_centroids(self.pf, w.k, seed)
        # Done once per process, so this part of set-up is always cold.
        self.input_s = time.perf_counter() - start
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict[str, float]] = []
        self.reference_samples: list[float] = []
        self.reports: dict[str, dict] = {}
        self.work_base = os.path.join(OUT, f"work-{os.getpid()}")

    # -- the independent answer -------------------------------------------

    def config(self, engine: str):
        """The cell's RunConfig: defaults everywhere but the costs.  The
        benchmark checks the objective itself; the runner's own objective
        pass would put one more full assignment outside the engines."""
        from ogrebench.config import RunConfig

        return RunConfig(spec=self.spec, engine=engine, costs=self.costs,
                         compute_objective=False)

    def solve(self) -> None:
        w = self.workload
        config = self.config("mapreduce")
        self.shape = checks.Shape(w.n, DIMS, config.topology.node_count)
        self.spills = checks.SpillPredictor(self.shape, config.spill_threshold)
        self.lloyd = checks.Lloyd(self.pf.points, self.initial.coords,
                                  w.max_iter, EPSILON, on_codes=self.spills)
        self.problems += checks.check_objective(self.lloyd.objectives)

    # -- one round ----------------------------------------------------------

    def run_round(self) -> dict[str, float]:
        """The four cells, with the reference before the first
        ``reference_runs`` of them; times from outside, checks after each
        timed call and outside its timing."""
        from ogrebench import runner

        w = self.workload
        times: dict[str, float] = {}
        references = []
        point_iters = 0
        engine_wall = 0.0
        overhead = 0.0
        for i, engine in enumerate(ENGINES):
            if i < w.reference_runs:
                references += self._reference()
            self.attempted += 1
            config = self.config(engine)
            workdir = os.path.join(self.work_base, f"r{len(self.rounds)}-{engine}")
            os.environ["OGREBENCH_WORKDIR"] = workdir
            try:
                start = time.perf_counter()
                outcome = runner.run(config, point_file=self.pf)
                elapsed = time.perf_counter() - start
            except Exception:
                self._failure(engine)
                continue
            finally:
                self._clean_cell(engine, workdir)
            report = dataclasses.asdict(outcome.report)
            self.reports[engine] = report
            wall = report["wall_seconds"]
            times[f"{engine.replace('-', '_')}_s"] = wall
            overhead += elapsed - wall
            engine_wall += wall
            point_iters += w.n * report["iterations"]
            self._check_cell(engine, outcome, report)
        self.reference_samples += references
        times["total_s"] = sum(references) + engine_wall + overhead
        times["overhead_s"] = overhead
        if engine_wall > 0:
            times["lloyd_point_iters_per_s"] = point_iters / engine_wall
        self.rounds.append(times)
        print(f"perfbench: round {len(self.rounds)}: " + " ".join(
            f"{name}={value:.4f}" for name, value in times.items())
            + " reference_s=" + ",".join(f"{r:.4f}" for r in references),
            file=sys.stderr)
        return times

    def _reference(self) -> list[float]:
        """One timed run_reference, checked; [] if it raised."""
        from ogrebench import kernel

        w = self.workload
        self.attempted += 1
        try:
            start = time.perf_counter()
            ref = kernel.run_reference(self.pf.points, self.initial, w.max_iter,
                                       EPSILON)
            elapsed = time.perf_counter() - start
        except Exception:
            self._failure("reference")
            return []
        self.problems += checks.check_trajectory(
            "reference", [c.coords for c in ref.trajectory], self.lloyd.trajectory)
        return [elapsed]

    def _check_cell(self, engine, outcome, report) -> None:
        self.problems += checks.check_trajectory(
            engine, [c.coords for c in outcome.result.trajectory],
            self.lloyd.trajectory)
        spills = self.spills.spills if engine == "mapreduce" else None
        self.problems += checks.check_counters(engine, report, self.shape,
                                               self.lloyd.iterations, spills)
        self.problems += checks.check_floor(engine, report, self.shape)

    def _clean_cell(self, engine: str, workdir: str) -> None:
        alive = [t.name for t in threading.enumerate() if t.name.startswith("node")]
        if alive:
            self.problems.append(f"{engine}: node threads alive after the cell: "
                                 f"{alive}")
        if not os.path.isdir(workdir):
            self.problems.append(f"{engine}: the cell did not use its workdir "
                                 f"{workdir}")
        shutil.rmtree(workdir, ignore_errors=True)

    def _failure(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: {what} failed", file=sys.stderr)
        traceback.print_exc()

    def close(self) -> None:
        shutil.rmtree(self.work_base, ignore_errors=True)
        os.environ.pop("OGREBENCH_WORKDIR", None)


def _over_rounds(rounds: list[dict[str, float]], key: str, pick) -> float | None:
    values = [r[key] for r in rounds if key in r]
    return pick(values) if values else None


def _time_left(start: float, round_start: float, seconds: float) -> bool:
    """Whether to start another round: at least half of the last round's
    time is left of ``seconds``."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 < seconds


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        bench.run_round()
        if not _time_left(start, round_start, seconds):
            break
    # Best of N, as timeit reports, for every time and the rate: the host's
    # other load only ever makes a sample slower, in spells of seconds to
    # minutes that move a median over rounds by a quarter, while the fastest
    # of a few dozen short samples mostly holds.
    # Set-up is the cold input generation plus the runner's own work around
    # the engines in a round (cluster spawn, partition, ingest, init,
    # scheduler, shutdown).
    out = {"setup_s": bench.input_s + _over_rounds(bench.rounds, "overhead_s", min)}
    for name in END_TO_END_UNITS:
        pick = max if name == "lloyd_point_iters_per_s" else min
        value = _over_rounds(bench.rounds, name, pick)
        if value is not None:
            out[name] = value
    if bench.reference_samples:
        out["reference_s"] = min(bench.reference_samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def per_layer(bench: Bench, seconds: float, label: str) -> dict[str, float]:
    """Pairs of an untraced and a traced round: the untraced ones give the
    process's CPU use and, against the traced ones, the tracing overhead."""
    start = time.perf_counter()
    layer_rounds = []
    first_tracer = None
    while not layer_rounds or _time_left(start, round_start, seconds):
        round_start = time.perf_counter()
        cpu = time.process_time()
        untraced = bench.run_round()
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - round_start
        tracer = Tracer()
        with tracer:
            traced = bench.run_round()
        metrics = layer_metrics(tracer.totals())
        metrics.update({"process.cpu_s": cpu, "process.cpu_per_wall": cpu / wall,
                        "trace.total_s": traced["total_s"],
                        "trace.untraced_total_s": untraced["total_s"]})
        layer_rounds.append(metrics)
        first_tracer = first_tracer or tracer
    out = {name: statistics.median(r[name] for r in layer_rounds)
           for name in layer_rounds[0]}
    out["trace.overhead_pct"] = 100.0 * (out["trace.total_s"]
                                         / out["trace.untraced_total_s"] - 1.0)
    out["dataset.generate_s"] = bench.gen_tracer.totals()["dataset.generate"][2]
    for engine, report in bench.reports.items():
        counters = dict(report["metrics"], iterations=report["iterations"])
        for name in ENGINE_COUNTERS:
            out[f"engines.{engine}.{name}"] = counters[name]
    os.makedirs(OUT, exist_ok=True)
    first_tracer.write_chrome_trace(os.path.join(OUT, f"{label}.trace.json"))
    units = per_layer_units()
    with open(os.path.join(OUT, f"{label}.layers.txt"), "w") as fh:
        for name in sorted(out):
            fh.write(f"{name:48s} {out[name]:>18.6f} {units[name]}\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_program()
    pin_to_one_cpu()

    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        bench.solve()
        if args.trace:
            values = per_layer(bench, args.seconds,
                               f"{args.workload}-seed{args.seed}")
            units = per_layer_units()
        else:
            values = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
