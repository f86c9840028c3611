"""Pure K-means mathematics: assignment, partial aggregation, update, convergence.

Every distributed engine is validated against ``run_reference``, a
single-threaded sequential pass over the points in dataset order.  All
operations are pure functions over immutable inputs and safe to call from any
number of workers.

Conventions fixed here and relied on everywhere else:
  * distances are squared Euclidean, double precision,
  * assignment ties break to the lowest centroid index,
  * a cluster that receives no points keeps its previous centroid,
  * convergence means max centroid displacement <= epsilon (inclusive).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.vq import vq as _vq


class ShapeMismatch(ValueError):
    """Inputs whose dimensions or cluster counts do not agree."""


@dataclass(frozen=True)
class CentroidSet:
    """k centroids of dimension d plus the iteration that produced them."""

    coords: np.ndarray  # (k, d) float64
    iteration: int = 0

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ShapeMismatch("centroids must be a (k, d) array")
        if not np.isfinite(coords).all():
            raise ValueError("centroid coordinates must be finite")
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        object.__setattr__(self, "coords", coords)

    @property
    def k(self) -> int:
        return self.coords.shape[0]

    @property
    def dims(self) -> int:
        return self.coords.shape[1]


@dataclass
class PartialSums:
    """Per-centroid (vector sum, count) pairs; payload of reduce and allreduce."""

    sums: np.ndarray  # (k, d) float64
    counts: np.ndarray  # (k,) int64

    def __post_init__(self):
        self.sums = np.asarray(self.sums, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.sums.ndim != 2 or self.counts.shape != (self.sums.shape[0],):
            raise ShapeMismatch("sums must be (k, d) with matching counts")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @classmethod
    def zero(cls, k: int, dims: int) -> "PartialSums":
        return cls(np.zeros((k, dims)), np.zeros(k, dtype=np.int64))

    @property
    def k(self) -> int:
        return self.sums.shape[0]

    @property
    def dims(self) -> int:
        return self.sums.shape[1]


@dataclass
class KMeansResult:
    final: CentroidSet
    iterations: int
    trajectory: list[CentroidSet] = field(default_factory=list)
    converged: bool = False


def _check_dims(points: np.ndarray, centroids: CentroidSet) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.shape[1] != centroids.dims:
        raise ShapeMismatch(
            f"point dimension {points.shape[1]} != centroid dimension {centroids.dims}"
        )
    return points


def assign(point, centroids: CentroidSet) -> int:
    """Index of the nearest centroid (squared Euclidean, ties to lowest index).

    Squares are summed one dimension at a time, in order, as ``vq`` does
    below 5 dimensions, so an exact tie splits the same way in both."""
    pts = _check_dims(point, centroids)
    dist = np.zeros(centroids.k)
    for j in range(centroids.dims):
        diff = centroids.coords[:, j] - pts[0, j]
        dist += diff * diff
    return int(np.argmin(dist))


def assign_block(points, centroids: CentroidSet) -> np.ndarray:
    """Vectorized nearest-centroid assignment for a block of points.

    scipy's vq kernel keeps the first minimum it sees, which matches the
    lowest-index tie rule (property-tested against argmin in the test suite).
    """
    pts = _check_dims(points, centroids)
    if len(pts) == 0:
        return np.empty(0, dtype=np.int64)
    codes, _ = _vq(pts, centroids.coords)
    return codes.astype(np.int64)


def partial_sums(points, centroids: CentroidSet) -> PartialSums:
    """Aggregate a block: per-centroid coordinate sums and member counts."""
    pts = _check_dims(points, centroids)
    k, d = centroids.k, centroids.dims
    if len(pts) == 0:
        return PartialSums.zero(k, d)
    codes = assign_block(pts, centroids)
    return partial_sums_from_assignment(pts, codes, k)


def partial_sums_from_assignment(points: np.ndarray, codes: np.ndarray,
                                 k: int) -> PartialSums:
    """Aggregate points whose nearest-centroid indices are already known."""
    pts = np.asarray(points, dtype=np.float64)
    d = pts.shape[1]
    if len(pts) == 0:
        return PartialSums.zero(k, d)
    sums = np.empty((k, d))
    for j in range(d):
        sums[:, j] = np.bincount(codes, weights=pts[:, j], minlength=k)
    counts = np.bincount(codes, minlength=k).astype(np.int64)
    return PartialSums(sums, counts)


def merge(a: PartialSums, b: PartialSums) -> PartialSums:
    """Componentwise addition; the reduction operator of all collectives."""
    if a.sums.shape != b.sums.shape:
        raise ShapeMismatch(f"cannot merge shapes {a.sums.shape} and {b.sums.shape}")
    return PartialSums(a.sums + b.sums, a.counts + b.counts)


def finalize(partials: PartialSums, previous: CentroidSet) -> CentroidSet:
    """New centroids: mean of assigned points; empty clusters keep the old value."""
    if partials.sums.shape != previous.coords.shape:
        raise ShapeMismatch("partial sums do not match previous centroids")
    occupied = partials.counts > 0
    coords = previous.coords.copy()
    coords[occupied] = partials.sums[occupied] / partials.counts[occupied, None]
    return CentroidSet(coords, previous.iteration + 1)


def converged(prev: CentroidSet, nxt: CentroidSet, epsilon: float) -> bool:
    """True iff the largest centroid displacement is <= epsilon."""
    if prev.coords.shape != nxt.coords.shape:
        raise ShapeMismatch("centroid sets differ in shape")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    disp = np.linalg.norm(nxt.coords - prev.coords, axis=1)
    return bool(disp.max(initial=0.0) <= epsilon)


def objective(points, centroids: CentroidSet) -> float:
    """Sum of squared distances of each point to its assigned centroid."""
    pts = _check_dims(points, centroids)
    if len(pts) == 0:
        return 0.0
    codes = assign_block(pts, centroids)
    diff = pts - centroids.coords[codes]
    return float(np.einsum("ij,ij->", diff, diff))


def run_reference(points, initial: CentroidSet, max_iter: int, epsilon: float) -> KMeansResult:
    """Sequential oracle: assign -> partial_sums -> finalize over all points."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    pts = _check_dims(points, initial)
    current = initial
    trajectory = [current]
    done = False
    iterations = 0
    for _ in range(max_iter):
        partials = partial_sums(pts, current)
        nxt = finalize(partials, current)
        trajectory.append(nxt)
        iterations += 1
        done = converged(current, nxt, epsilon)
        current = nxt
        if done:
            break
    return KMeansResult(final=current, iterations=iterations,
                        trajectory=trajectory, converged=done)
