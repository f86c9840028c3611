"""Output checks that do not trust the code under test.

The Lloyd trajectory here is computed from scratch (numpy only, nothing
from ``ogrebench.kernel``), and every conservation count and modeled-delay
floor is derived from the workload's shape (n, d, k, blocks, nodes,
iterations) and the declared cost constants, never copied from an earlier
report.  Each check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# Same gate as the repository's oracle: |got - want| <= rtol * max(1, |want|)
# for every coordinate of every iteration.
TRAJECTORY_RTOL = 1e-9
# Lloyd's objective cannot rise; this only absorbs the last-digit rounding of
# summing n squared distances in a different order.
OBJECTIVE_RTOL = 1e-12
BLOCKS_PER_NODE = 4
KEY_BYTES = 4


def record_bytes(dims: int) -> int:
    """Bytes of one shuffle record: a u32 key and d float64 coordinates."""
    return KEY_BYTES + 8 * dims


def nearest(points: np.ndarray, centroids: np.ndarray):
    """(codes, squared distances): nearest centroid per point, squared
    Euclidean summed one dimension at a time, in dimension order.  Every
    centroid is scanned over cache-sized chunks of points, and a later
    centroid wins only when strictly closer, so exact ties go to the lowest
    index."""
    points = np.asarray(points, dtype=np.float64)
    codes = np.zeros(len(points), dtype=np.int64)
    d2 = np.full(len(points), np.inf)
    size = min(len(points), 1 << 15)
    dist, term = np.empty(size), np.empty(size)
    closer = np.empty(size, dtype=bool)
    for lo in range(0, len(points), size):
        cols = points[lo:lo + size].T.copy()
        m = cols.shape[1]
        best, code = d2[lo:lo + m], codes[lo:lo + m]
        for j, c in enumerate(centroids):
            np.subtract(cols[0], c[0], out=dist[:m])
            np.square(dist[:m], out=dist[:m])
            for axis in range(1, len(c)):
                np.subtract(cols[axis], c[axis], out=term[:m])
                np.square(term[:m], out=term[:m])
                dist[:m] += term[:m]
            np.less(dist[:m], best, out=closer[:m])
            np.copyto(code, j, where=closer[:m])
            np.copyto(best, dist[:m], where=closer[:m])
    return codes, d2


class Lloyd:
    """Independent Lloyd trajectory plus the objective at every iterate."""

    def __init__(self, points: np.ndarray, initial: np.ndarray, max_iter: int,
                 epsilon: float, on_codes=None):
        points = np.asarray(points, dtype=np.float64)
        current = np.array(initial, dtype=np.float64)
        k, dims = current.shape
        self.trajectory = [current]
        self.objectives = []
        for it in range(max_iter):
            codes, d2 = nearest(points, current)
            if on_codes is not None:
                on_codes(it, codes)
            self.objectives.append(float(d2.sum()))
            counts = np.bincount(codes, minlength=k)
            nxt = current.copy()
            occupied = counts > 0
            for j in range(dims):
                sums = np.bincount(codes, weights=points[:, j], minlength=k)
                nxt[occupied, j] = sums[occupied] / counts[occupied]
            self.trajectory.append(nxt)
            displacement = np.sqrt(((nxt - current) ** 2).sum(axis=1)).max()
            current = nxt
            if displacement <= epsilon:
                break
        self.objectives.append(float(nearest(points, current)[1].sum()))

    @property
    def iterations(self) -> int:
        return len(self.trajectory) - 1


def check_objective(objectives: list[float]) -> list[str]:
    return [f"objective rose at iteration {t + 1}: {b!r} > {a!r}"
            for t, (a, b) in enumerate(zip(objectives, objectives[1:]))
            if b > a * (1.0 + OBJECTIVE_RTOL)]


def check_trajectory(label: str, got: list[np.ndarray],
                     want: list[np.ndarray]) -> list[str]:
    """Same iteration count, and every coordinate within TRAJECTORY_RTOL."""
    if len(got) != len(want):
        return [f"{label}: {len(got) - 1} iterations, expected {len(want) - 1}"]
    for it, (a, b) in enumerate(zip(got, want)):
        a = np.asarray(a)
        if a.shape != b.shape:
            return [f"{label}: iteration {it} has shape {a.shape}, expected {b.shape}"]
        bad = np.abs(a - b) > TRAJECTORY_RTOL * np.maximum(1.0, np.abs(b))
        if bad.any():
            ci, di = np.argwhere(bad)[0]
            return [f"{label}: iteration {it} centroid {ci} coordinate {di} is "
                    f"{a[ci, di]!r}, expected {b[ci, di]!r}"]
    return []


# ---------------------------------------------------------------------------
# Shape of a cell, derived from the workload and not from a report
# ---------------------------------------------------------------------------


class Shape:
    """Block layout and reducer set a cell of this size must have."""

    def __init__(self, n: int, dims: int, nodes: int):
        self.n, self.dims, self.nodes = n, dims, nodes
        self.block_points = -(-n // (nodes * BLOCKS_PER_NODE))
        self.blocks = -(-n // self.block_points)
        self.reducers = nodes

    def block_bounds(self):
        return [(lo, min(lo + self.block_points, self.n))
                for lo in range(0, self.n, self.block_points)]


class SpillPredictor:
    """Counts the sorted runs mapreduce's reducers must spill, from the
    independent assignment: reducer r receives, block by block in block
    order, the records whose key is r modulo the reducer count, and spills
    once its buffer holds more than the threshold."""

    def __init__(self, shape: Shape, threshold: int):
        self.shape = shape
        self.threshold = threshold
        self.spills = 0

    def __call__(self, _iteration: int, codes: np.ndarray) -> None:
        r_count = self.shape.reducers
        size = record_bytes(self.shape.dims)
        per_block = np.stack([
            np.bincount(codes[lo:hi] % r_count, minlength=r_count)
            for lo, hi in self.shape.block_bounds()])
        for r in range(r_count):
            buffered = 0
            for count in per_block[:, r]:
                buffered += int(count) * size
                if buffered > self.threshold:
                    self.spills += 1
                    buffered = 0


def _expect_equal(problems, label, got, want):
    if got != want:
        problems.append(f"{label} = {got}, expected {want}")


def _expect_at_least(problems, label, got, floor):
    if got < floor:
        problems.append(f"{label} = {got}, below its floor {floor}")


def check_counters(engine: str, report: dict, shape: Shape, iterations: int,
                   spills: int | None = None) -> list[str]:
    """Conservation and paradigm-structure counts of one cell's report."""
    m = report["metrics"]
    n, d, p, b, r = shape.n, shape.dims, shape.nodes, shape.blocks, shape.reducers
    t = iterations
    dataset_bytes = n * d * 8
    exchanged = n * t * record_bytes(d)
    problems: list[str] = []
    eq = lambda key, want: _expect_equal(problems, f"{engine}.{key}", m[key], want)  # noqa: E731
    ge = lambda key, floor: _expect_at_least(problems, f"{engine}.{key}", m[key], floor)  # noqa: E731
    _expect_equal(problems, f"{engine}.iterations", report["iterations"], t)
    if engine == "mapreduce":
        eq("shuffle_records", n * t)
        eq("shuffle_bytes", exchanged)
        eq("jobs_launched", t)
        eq("tasks_launched", t * (b + r))
        eq("collective_messages", 0)
        # Ingest, the initial and each new centroid set, r reduce outputs
        # per iteration; each map task reads its block and the centroids,
        # and the update reads the r outputs.
        eq("store_writes", 1 + (t + 1) + t * r)
        eq("store_reads", t * (2 * b + r))
        ge("store_bytes_read", t * dataset_bytes)
        if spills is not None:
            eq("shuffle_spills", spills)
    elif engine == "pilot":
        eq("shuffle_bytes", 0)
        eq("jobs_launched", 1)
        eq("tasks_launched", t * (b + r))
        eq("collective_messages", 0)
        # As mapreduce, plus one intermediate file per (map, reducer) pair,
        # which every reducer reads back.
        eq("store_writes", 1 + (t + 1) + t * (b * r + r))
        eq("store_reads", t * (2 * b + b * r + r))
        ge("store_bytes_written", dataset_bytes + exchanged)
        ge("store_bytes_read", t * dataset_bytes + exchanged)
    elif engine in ("mpi-like", "iterative"):
        eq("shuffle_bytes", 0)
        eq("jobs_launched", 1)
        eq("collective_messages", 2 * (p - 1) * t)
        eq("store_reads", b)
        eq("store_writes", 1)
        eq("store_bytes_read", dataset_bytes)
        eq("store_bytes_written", dataset_bytes)
        if engine == "mpi-like":
            eq("tasks_launched", p)
            eq("peak_resident_generations", 1)
        else:
            eq("tasks_launched", p + 2 * b * t)
            eq("peak_resident_generations", 3)
    else:
        problems.append(f"unknown engine {engine!r}")
    return problems


def delay_floor(engine: str, report: dict, shape: Shape) -> float:
    """Seconds of modeled delay on the engine's serial path, from the
    report's counters and its CostModel constants.  Injected delays are real
    sleeps, so no correct run can finish faster."""
    costs = report["config"]["costs"]
    if not costs["inject_delays"]:
        return 0.0
    m = report["metrics"]
    ms = 1e-3
    jobs, tasks, t = m["jobs_launched"], m["tasks_launched"], report["iterations"]
    p, b, r = shape.nodes, shape.blocks, shape.reducers
    op = costs["store_op_ms"] * ms
    if engine == "mapreduce":
        # Per job: its launch, one grant per map container (all grants run
        # under the resource manager's one lock), the launch of the last map
        # task after its grant, then a reduce task's launch.
        return jobs * (costs["job_launch_ms"] + b * costs["container_grant_ms"]
                       + 2 * costs["process_task_ms"]) * ms
    if engine == "iterative":
        # One job, one grant per whole-node container, then each worker
        # launches its own thread tasks one after another; the busiest
        # worker launches at least the average share.
        thread_tasks = tasks - p
        return (jobs * costs["job_launch_ms"] + p * costs["container_grant_ms"]
                + thread_tasks / p * costs["thread_task_ms"]) * ms
    if engine == "pilot":
        # Per iteration: a map unit and then a reduce unit each pay a launch;
        # the map unit reads centroids and its block and writes r files, the
        # reduce unit reads b files and writes one, the driving loop reads r
        # results and persists the centroids.
        ops = (2 + r) + (b + 1) + (r + 1)
        return (jobs * costs["job_launch_ms"]
                + t * (2 * costs["cu_launch_ms"] + ops * costs["store_op_ms"])) * ms
    if engine == "mpi-like":
        # One gang job, each worker reads its blocks, and every tree
        # allreduce crosses the tree's depth twice.
        depth = p.bit_length() - 1
        return (jobs * costs["job_launch_ms"] * ms + -(-b // p) * op
                + t * 2 * depth * costs["link_latency_us"] * 1e-6)
    raise ValueError(f"unknown engine {engine!r}")


def check_floor(engine: str, report: dict, shape: Shape) -> list[str]:
    floor = delay_floor(engine, report, shape)
    wall = report["wall_seconds"]
    if wall < floor:
        return [f"{engine}: wall {wall:.4f} s is below its modeled-delay floor "
                f"{floor:.4f} s"]
    return []
