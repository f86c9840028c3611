"""A benchmark series: the same perfbench runs on two checkouts, in
alternating order, summarised per end-to-end metric.

    python3 bench/series.py --parent ../parent --change . \\
        --workload data-bound --seeds 1 2 3 4 5 6 7 8 9 10 --out BENCH_<n>.json

For every workload and seed, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each tree, with T the change tree's
``BENCHMARK.json`` ``run_seconds``, each from that tree's own
directory, so each imports its own ``src/``.  The first side of a pair
alternates from one seed to the next: the parent goes first on the first
seed, the change on the second, and so on, so a drift of the host's speed
during the series does not land on one side only.  The names, units and
better directions of the end-to-end metrics come from the change tree's
``BENCHMARK.json``.

A pair counts only if both of its runs produced metrics, passed their
checks and failed as many operations as the other side; the others
stay in the output, with the reason, but not in the summary.  Per workload
and metric the output has each side's median and quartiles over the
counted pairs, every run's value, the number of pairs the change won (a
tie counts for neither side), the change of the medians as a share of the
parent's, and the parent's quartile spread to compare that against.  It
also records each run's exit code, check verdict and failed operations,
the number of CPUs (``nproc``) and the CPUs the series may use.  The
script calls no version control and writes nothing inside the trees but
what perfbench itself writes to its ``out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

MIN_SEEDS = 5
SIDES = ("parent", "change")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its result line, or why there is none."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=tree, capture_output=True,
                              text=True, timeout=seconds * 10 + 120)
    except subprocess.TimeoutExpired as exc:
        return {"exit": None, "wall_s": round(time.monotonic() - start, 3),
                "error": [f"timed out after {exc.timeout:g} s"]}
    run = {"exit": proc.returncode,
           "wall_s": round(time.monotonic() - start, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = proc.stderr.strip().splitlines()[-5:]
        return run
    run.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               metrics={name: m["value"] for name, m in result["metrics"].items()})
    return run


def excluded(pair: dict) -> str | None:
    """Why a pair cannot be compared, or None: a run without metrics, a run
    whose checks failed, or more failed operations on one side."""
    for side in SIDES:
        run = pair[side]
        if "metrics" not in run:
            return f"{side}: no metrics"
        if not run["correct"]:
            return f"{side}: checks failed"
    if pair["parent"]["failed"] != pair["change"]["failed"]:
        return "failed operations differ"
    return None


def series(trees: dict[str, str], workload: str, seeds: list[int],
           seconds: float, end_to_end: list[dict]) -> dict:
    runs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, seconds)
            print(f"series: {workload} seed {seed} {side}: "
                  + json.dumps({k: round(v, 4) for k, v in
                                pair[side].get("metrics", {}).items()}),
                  file=sys.stderr, flush=True)
        runs.append(pair)

    complete = []
    for pair in runs:
        pair["excluded"] = excluded(pair)
        if pair["excluded"] is None:
            complete.append(pair)
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [p[side]["metrics"][name] for p in complete]
                  for side in SIDES}
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "bound": spec["bound"]}
        if len(complete) >= 2:
            for side in SIDES:
                entry[side] = summary(values[side])
            sign = 1 if spec["better"] == "higher" else -1
            entry["change_wins"] = sum(
                sign * (c - p) > 0
                for p, c in zip(values["parent"], values["change"]))
            entry["parent_wins"] = sum(
                sign * (c - p) < 0
                for p, c in zip(values["parent"], values["change"]))
            parent = entry["parent"]
            entry["median_change_pct"] = 100 * (
                entry["change"]["median"] / parent["median"] - 1)
            entry["parent_iqr"] = parent["q3"] - parent["q1"]
        metrics[name] = entry
    return {"seeds": seeds, "pairs": len(runs),
            "complete_pairs": len(complete), "metrics": metrics,
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent tree")
    parser.add_argument("--change", required=True,
                        help="checkout of the changed tree")
    parser.add_argument("--workload", required=True, action="append",
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < MIN_SEEDS:
        parser.error(f"give at least {MIN_SEEDS} seeds")
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {tree}")
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]

    out = {
        "script": "bench/series.py",
        "command": " ".join(benchmark["command"]) + " --workload W --seed S"
                   f" --seconds {seconds:g} --trace 0",
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "workloads": {},
    }
    for workload in args.workload:
        out["workloads"][workload] = series(
            trees, workload, args.seeds, seconds, benchmark["end_to_end"])
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
