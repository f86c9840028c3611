"""Command-line benchmark harness.

Commands: generate, run, compare, verify, report.  Exit codes: 0 success,
1 run failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from . import dataset, runner, scenarios
from .config import (COLLECTIVE_NAMES, ENGINE_NAMES, SCHEDULER_NAMES,
                     STORE_NAMES, IncompatibleConfig, RunConfig)
from .costs import CostModel
from .fabric import ClusterTopology

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="named scenario "
                   f"({', '.join(scenarios.SCENARIOS)})")
    p.add_argument("--points", type=int, help="dataset size (with --clusters)")
    p.add_argument("--clusters", type=int, help="cluster count")
    p.add_argument("--dims", type=int, default=3, help="dimensionality")
    p.add_argument("--seed", type=int, default=42, help="master seed")
    p.add_argument("--max-iter", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=1e-4)


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=4, help="simulated node count")
    p.add_argument("--cores", type=int, default=4, help="cores per node")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=ENGINE_NAMES, required=True)
    p.add_argument("--scheduler", choices=SCHEDULER_NAMES, default=None)
    p.add_argument("--store", choices=STORE_NAMES, default="colocated")
    p.add_argument("--collective", choices=COLLECTIVE_NAMES, default="tree")
    p.add_argument("--deterministic", action="store_true", default=True)
    p.add_argument("--no-deterministic", dest="deterministic",
                   action="store_false")
    p.add_argument("--compress", action="store_true")
    p.add_argument("--combine", action="store_true",
                   help="map-side combining of shuffle output")
    p.add_argument("--replication", type=int, default=3)
    p.add_argument("--no-delays", action="store_true",
                   help="disable injected cost-model delays")


def _spec_from_args(args) -> dataset.ScenarioSpec:
    if args.scenario:
        return scenarios.lookup(args.scenario, seed=args.seed)
    if args.points is None or args.clusters is None:
        raise IncompatibleConfig("need --scenario or --points and --clusters")
    return dataset.ScenarioSpec(args.points, args.clusters, args.dims,
                                args.seed, args.max_iter, args.epsilon)


def _config_from_args(args, scenario_name: str | None = None) -> RunConfig:
    spec = _spec_from_args(args)
    costs = CostModel(inject_delays=not args.no_delays)
    return RunConfig(
        spec=spec, engine=args.engine, scheduler=args.scheduler,
        store_mode=args.store, collective=args.collective,
        deterministic=args.deterministic, compress=args.compress,
        combine=args.combine, replication=args.replication,
        topology=ClusterTopology(args.nodes, args.cores), costs=costs,
        scenario_name=scenario_name or args.scenario,
    )


def cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    pf = dataset.generate(spec)
    dataset.write_point_file(pf, args.out)
    print(f"wrote {pf.n} points x {pf.dims} dims ({pf.nbytes} bytes) "
          f"to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _config_from_args(args)
    try:
        outcome = runner.run(config)
    except Exception as exc:
        # Run failure: still emit what we know as a partial report.
        partial = {"config": config.to_dict(), "error": str(exc)}
        text = json.dumps(partial, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        print(text)
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    text = outcome.report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return EXIT_OK


_COMPARE_COLUMNS = ("scenario", "engine", "median_wall_s", "wall_s_runs",
                    "shuffle_bytes", "store_bytes_read", "jobs_launched")


def _comparison_rows(comparison: runner.Comparison) -> list[dict]:
    rows = []
    for cell in comparison.cells:
        m = cell.report.metrics
        rows.append({
            "scenario": cell.scenario,
            "engine": cell.engine,
            "median_wall_s": f"{cell.median_wall:.4f}",
            "wall_s_runs": ";".join(f"{w:.4f}" for w in cell.walls),
            "shuffle_bytes": m["shuffle_bytes"],
            "store_bytes_read": m["store_bytes_read"],
            "jobs_launched": m["jobs_launched"],
        })
    return rows


def _write_comparison(comparison: runner.Comparison, out: str | None,
                      fmt: str) -> None:
    rows = _comparison_rows(comparison)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_COMPARE_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    for scenario, verdict in comparison.verdicts.items():
        buf.write(f"# verdict {scenario}: {verdict}\n")
    table = buf.getvalue()

    bundle = {
        "reports": [dataclasses.asdict(c.report) for c in comparison.cells],
        "cells": [{"scenario": c.scenario, "engine": c.engine,
                   "walls": c.walls} for c in comparison.cells],
        "verdicts": comparison.verdicts,
    }

    if out:
        base, _ = os.path.splitext(out)
        with open(base + ".csv", "w") as fh:
            fh.write(table)
        with open(base + ".json", "w") as fh:
            json.dump(bundle, fh, indent=2)
        with open(base + ".dat", "w") as fh:
            fh.write("# scenario engine median_wall_s\n")
            for row in rows:
                fh.write(f"{row['scenario']} {row['engine']} "
                         f"{row['median_wall_s']}\n")
        print(f"wrote {base}.csv, {base}.json, {base}.dat")
    if fmt == "json":
        print(json.dumps(bundle, indent=2))
    else:
        print(table, end="")


def cmd_compare(args) -> int:
    engines = args.engines.split(",")
    for engine in engines:
        if engine not in ENGINE_NAMES:
            raise IncompatibleConfig(f"unknown engine {engine!r}")
    if args.scenario:
        names = args.scenario.split(",")
        specs = {name: scenarios.lookup(name, seed=args.seed) for name in names}
    else:
        specs = {"custom": _spec_from_args(args)}
    config_kwargs = {
        "topology": ClusterTopology(args.nodes, args.cores),
        "store_mode": args.store,
        "compute_objective": False,
    }
    comparison = runner.compare(specs, engines, repetitions=args.repetitions,
                                config_kwargs=config_kwargs)
    _write_comparison(comparison, args.out, args.format)
    return EXIT_RUN_FAILURE if comparison.failed else EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    engines = args.engines.split(",") if args.engines else None
    topology = ClusterTopology(args.nodes, args.cores)
    outcome = runner.verify(spec, engines, topology=topology)
    if outcome.passed:
        print(f"verify: PASS ({', '.join(outcome.engines)})")
        return EXIT_OK
    d = outcome.divergence
    print(f"verify: FAIL engine={d.engine} iteration={d.iteration} "
          f"centroid={d.centroid} coordinate={d.coordinate} "
          f"got={d.got!r} expected={d.expected!r}")
    return EXIT_RUN_FAILURE


def cmd_report(args) -> int:
    """Recompute comparison verdicts offline from a JSON bundle."""
    with open(args.bundle) as fh:
        bundle = json.load(fh)
    import statistics
    medians: dict[str, dict[str, float]] = {}
    for cell in bundle["cells"]:
        medians.setdefault(cell["scenario"], {})[cell["engine"]] = (
            statistics.median(cell["walls"]))
    for scenario, per_engine in medians.items():
        verdict = runner.ordering_verdict(per_engine)
        print(f"verdict {scenario}: {verdict}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogrebench",
        description="K-means benchmark harness over a simulated cluster "
                    "fabric with interchangeable execution engines, "
                    "schedulers, and storage modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a point file")
    _add_scenario_args(p)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="execute one benchmark cell")
    _add_scenario_args(p)
    _add_cluster_args(p)
    _add_run_args(p)
    p.add_argument("--out", help="report output path (JSON)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="cross-engine comparison")
    _add_scenario_args(p)
    _add_cluster_args(p)
    p.add_argument("--engines", required=True,
                   help="comma-separated engine list")
    p.add_argument("--store", choices=STORE_NAMES, default="colocated")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--out", help="output basename (.csv/.json/.dat)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify", help="check engines against the oracle")
    _add_scenario_args(p)
    _add_cluster_args(p)
    p.add_argument("--engines", help="comma-separated engine subset")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="recompute verdicts from a bundle")
    p.add_argument("bundle", help="JSON bundle from compare")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IncompatibleConfig, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
