"""Reference DBSCAN for the clustering tests.

The dense-matrix, breadth-first DBSCAN the repository clustered with
before every fit went through the batched kernel, kept so the kernel
(:func:`repro.cluster.dbscan.dbscan_labels_stacks`) has an independent
reference for its rules:

* the DBSherlock ε heuristic: ``max(max(Lk) / 4, quantile(Lk, 0.95))``
  over each point's distance to its ``min_pts``-th nearest neighbour
  (itself excluded), with ``ε <= 0`` (all points identical) meaning one
  cluster;
* a core point has at least ``min_pts`` points, itself included, within
  ``ε``;
* clusters are numbered in the order an ascending scan over the points
  starts them, and a border point within ``ε`` of two clusters' cores
  belongs to the first cluster that reaches it.

Distances use the kernel's spelling, ``sq_i + sq_j - 2.0 * points @
points.T``, so labels and ε agree bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

NOISE = -1


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix."""
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def k_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbour (k-dist list).

    ``k`` counts neighbours excluding the point itself and is clamped to
    ``n - 1``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = points.shape[0]
    if n == 0:
        return np.zeros(0)
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, n - 1)
    if k == 0:
        return np.zeros(n)
    # column 0 of a sorted row is the self-distance; the k-th neighbour
    # is order statistic k
    return np.partition(pairwise_distances(points), k, axis=1)[:, k]


def dbscan(
    points: np.ndarray, min_pts: int = 3, eps: Optional[float] = None
) -> Tuple[np.ndarray, float]:
    """``(labels, eps)`` of one point set; ``eps=None`` derives ε."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), eps or 0.0
    if eps is None:
        kd = k_distances(points, min_pts)
        eps = max(float(kd.max()) / 4.0, float(np.quantile(kd, 0.95)))
    if eps <= 0:
        return np.zeros(n, dtype=np.int64), eps

    distances = pairwise_distances(points)
    neighbours = [np.flatnonzero(distances[i] <= eps) for i in range(n)]
    counts = np.asarray([nb.size for nb in neighbours], dtype=np.int64)
    labels = np.full(n, NOISE, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cluster_id = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        if counts[i] < min_pts:
            continue  # stays noise unless captured as a border point
        labels[i] = cluster_id
        frontier = neighbours[i]
        while frontier.size:
            # Label every still-noise frontier point (core or border).
            # A point already owned by an earlier cluster keeps its
            # label — border points belong to the first cluster that
            # reaches them.
            unclaimed = frontier[labels[frontier] == NOISE]
            labels[unclaimed] = cluster_id
            fresh = frontier[~visited[frontier]]
            visited[fresh] = True
            cores = fresh[counts[fresh] >= min_pts]
            if not cores.size:
                break
            frontier = np.unique(
                np.concatenate([neighbours[c] for c in cores])
            )
        cluster_id += 1
    return labels, eps
