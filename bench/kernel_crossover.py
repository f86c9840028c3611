"""Where assign_block's KD-tree path beats the full scan, and whether the
tree query releases the GIL.

    PYTHONPATH=src python3 bench/kernel_crossover.py --out BENCH_<n>.json

Per call, at d=3 unless noted, for every k in K_VALUES and points per call
in POINTS (400 and 625 are the per-block sizes of the tiny and kernel-bound
cells on 16 blocks, 6250 a whole kernel-bound cell):

  * ``vq``: ``kernel.assign_block_brute``, the full scan;
  * ``tree_cached``: ``kernel.assign_block`` on the tree path with the
    centroid set's tree already built, as every call after an iteration's
    first finds it;
  * ``tree_uncached``: the same with the tree built in the call.

The tree path is forced by lowering ``kernel.TREE_MIN_K`` (and, for the
dimension sweep at k=2500, lifting ``kernel.TREE_MAX_DIMS``) for the tree
samples, so this measures the code the engines run.  Each figure is the
median over SAMPLES samples, with the quartiles; a sample times enough calls
to last at least MIN_SAMPLE_S, and the three paths' samples alternate.  The
table runs pinned to one CPU, as the benchmark in perfbench/ does.  The GIL
rows then use every CPU the process may use: one thread assigns a block, or
two threads assign its halves, with the process's CPU seconds per wall
second beside the wall time.  A control row hashes the block's bytes with
hashlib, which releases the GIL, so it shows whether the host gave the
process a second CPU at all while the rows ran.  The progress rows do not
need a second CPU: a pure-Python thread counts while one call over the
whole block runs, and its rate is given as a share of its rate alone.  Code
that holds the GIL for the whole call leaves it near 0; code that releases
it leaves it about 0.5 on one CPU and near 1 on two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import scipy

from ogrebench import kernel
from ogrebench.dataset import ScenarioSpec, generate, init_centroids

K_VALUES = (5, 20, 50, 100, 160, 250, 500, 1000, 2500, 5000)
POINTS = (400, 625, 6250)
DIMS_SWEEP = (2, 3, 4, 5, 8)  # at k=2500, 6250 points
SAMPLES = 7
MIN_SAMPLE_S = 0.02
SEED = 5
GIL_SHAPE = (100_000, 5_000)  # i-small: points, k
HASH_ROUNDS = 32  # about as long as the tree path on the GIL block


def inputs(n: int, k: int, dims: int = 3):
    """n points and k centroids drawn as the scenarios draw them: points
    from k blobs, centroids picked from the points."""
    pf = generate(ScenarioSpec(max(n, k), k, dims=dims, seed=SEED))
    return pf.points[:n], init_centroids(pf, k, SEED)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples": len(values)}


def calls_per_sample(fn) -> int:
    fn()
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - start >= MIN_SAMPLE_S:
            return reps
        reps *= 2


def per_call(fns: dict) -> dict:
    """Seconds per call of each function.  The samples of all of them
    alternate, so a spell of slow host CPU falls on every one alike."""
    reps = {name: calls_per_sample(fn) for name, fn in fns.items()}
    times = {name: [] for name in fns}
    for _ in range(SAMPLES):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(reps[name]):
                fn()
            times[name].append((time.perf_counter() - start) / reps[name])
    return {name: {**summary(times[name]), "calls_per_sample": reps[name]}
            for name in fns}


@contextmanager
def tree_forced():
    """assign_block takes the tree path whatever k and d are."""
    saved = kernel.TREE_MIN_K, kernel.TREE_MAX_DIMS
    kernel.TREE_MIN_K, kernel.TREE_MAX_DIMS = 1, sys.maxsize
    try:
        yield
    finally:
        kernel.TREE_MIN_K, kernel.TREE_MAX_DIMS = saved


def measure(pts, cs) -> dict:
    def uncached():
        kernel._last_tree = None
        return kernel.assign_block(pts, cs)

    with tree_forced():
        row = per_call({
            "vq": lambda: kernel.assign_block_brute(pts, cs),
            "tree_cached": lambda: kernel.assign_block(pts, cs),
            "tree_uncached": uncached,
        })
        same = np.array_equal(kernel.assign_block(pts, cs),
                              kernel.assign_block_brute(pts, cs))
    # Above TREE_MAX_DIMS the tie argument does not hold, so there a
    # disagreement is recorded rather than fatal.
    if not same and cs.dims <= kernel.TREE_MAX_DIMS:
        raise SystemExit(f"tree and scan disagree at k={cs.k}, n={len(pts)}")
    return {**row, "codes_equal": same,
            "cached_speedup": row["vq"]["median_s"] / row["tree_cached"]["median_s"]}


def threaded(fn, pts, threads: int) -> tuple[float, float]:
    """Wall seconds and process CPU seconds per wall second of ``threads``
    threads assigning equal parts of ``pts``.  CPU per wall near the thread
    count means the work ran in parallel, outside the GIL."""
    parts = np.array_split(pts, threads)
    workers = [threading.Thread(target=fn, args=(part,)) for part in parts]
    start, cpu = time.perf_counter(), time.process_time()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall = time.perf_counter() - start
    return wall, (time.process_time() - cpu) / wall


def hash_control(part, cs) -> None:
    buf = part.tobytes()
    for _ in range(HASH_ROUNDS):
        hashlib.sha256(buf).digest()


def python_progress(fn) -> float:
    """Loop iterations per second that another, pure-Python thread makes
    while ``fn()`` runs in this one."""
    stop = threading.Event()
    count = 0

    def spin():
        nonlocal count
        while not stop.is_set():
            count += 1

    spinner = threading.Thread(target=spin)
    spinner.start()
    time.sleep(0.02)
    before, start = count, time.perf_counter()
    fn()
    rate = (count - before) / (time.perf_counter() - start)
    stop.set()
    spinner.join()
    return rate


def progress_rows(pts, cs, paths) -> list[dict]:
    shares = {name: [] for name, _ in paths}
    for _ in range(SAMPLES):
        for name, fn in paths:
            alone = python_progress(lambda: time.sleep(0.1))
            shares[name].append(python_progress(lambda: fn(pts, cs)) / alone)
    return [{"path": name, "points": len(pts), "k": cs.k,
             "python_progress_share": statistics.median(got),
             "python_progress_share_min": min(got),
             "python_progress_share_max": max(got)}
            for name, got in shares.items()]


def gil_rows() -> tuple[list[dict], list[dict]]:
    n, k = GIL_SHAPE
    pts, cs = inputs(n, k)
    paths = (("vq", kernel.assign_block_brute), ("tree_cached", kernel.assign_block),
             ("control_sha256", hash_control))
    samples = {(name, threads): [] for name, _ in paths for threads in (1, 2)}
    with tree_forced():
        kernel.assign_block(pts[:10], cs)
        progress = progress_rows(pts, cs, paths)
        for _ in range(SAMPLES):
            for name, fn in paths:
                for threads in (1, 2):
                    samples[name, threads].append(
                        threaded(lambda part: fn(part, cs), pts, threads))
    # The host's second CPU comes and goes, so the highest ratio seen is
    # the evidence: only code that releases the GIL can exceed 1.
    rows = []
    for (name, threads), got in samples.items():
        walls, ratios = zip(*got)
        rows.append({"path": name, "threads": threads, "points": n, "k": k,
                     **summary(list(walls)),
                     "cpu_per_wall": statistics.median(ratios),
                     "cpu_per_wall_max": max(ratios)})
    return rows, progress


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    table = []
    try:
        for k in K_VALUES:
            for n in POINTS:
                pts, cs = inputs(n, k)
                row = {"k": k, "points": n, "dims": 3, **measure(pts, cs)}
                table.append(row)
                print(f"k={k:5d} n={n:5d}  vq {row['vq']['median_s'] * 1e3:9.3f} ms"
                      f"  tree {row['tree_cached']['median_s'] * 1e3:9.3f} ms"
                      f"  uncached {row['tree_uncached']['median_s'] * 1e3:9.3f} ms",
                      file=sys.stderr)
        dims_rows = []
        for d in DIMS_SWEEP:
            pts, cs = inputs(6250, 2500, d)
            row = {"k": 2500, "points": 6250, "dims": d, **measure(pts, cs)}
            dims_rows.append(row)
            print(f"d={d} vq {row['vq']['median_s'] * 1e3:.3f} ms  tree "
                  f"{row['tree_cached']['median_s'] * 1e3:.3f} ms", file=sys.stderr)
    finally:
        os.sched_setaffinity(0, allowed)
    gil, progress = gil_rows()
    for row in gil:
        print(f"{row['path']:14s} threads={row['threads']} "
              f"{row['median_s']:.3f} s  cpu/wall {row['cpu_per_wall']:.2f}"
              f" (max {row['cpu_per_wall_max']:.2f})",
              file=sys.stderr)
    for row in progress:
        print(f"{row['path']:14s} python progress share "
              f"{row['python_progress_share']:.3f}", file=sys.stderr)

    result = {
        "script": "bench/kernel_crossover.py",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(allowed),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tree_min_k": kernel.TREE_MIN_K,
        "tree_max_dims": kernel.TREE_MAX_DIMS,
        "samples": SAMPLES,
        "crossover": table,
        "dims": dims_rows,
        "gil": gil,
        "gil_progress": progress,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
