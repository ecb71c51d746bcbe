"""DBSCAN (Ester et al., KDD 1996) implemented from scratch.

DBSherlock's automatic anomaly detector (Section 7) clusters normalized
telemetry points with DBSCAN, fixing ``minPts = 3`` and deriving ``ε`` from
the k-dist curve: ``ε = max(Lk) / 4`` where ``Lk`` lists each point's
distance to its k-th nearest neighbour.

There is one clustering kernel, :func:`dbscan_labels_stacks`.  It
clusters many point sets of one row count at once — the fleet's fallout
lanes — and a single set is a one-lane call.  Distances are built per
lane width into a blocked ``(block, n, n)`` buffer; the k-dist
partition, the ε heuristic, the core test and the component numbering
then run across the whole block.  :class:`DBSCAN` is a thin one-lane
estimator over the same arithmetic that also takes a fixed ``ε``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics

__all__ = [
    "DBSCAN",
    "NOISE",
    "dbscan_labels_stacks",
]

_LAST_CLUSTERS = metrics.REGISTRY.gauge(
    "repro_dbscan_last_clusters", "Clusters found by the most recent fit"
)
_BATCH_FITS = metrics.REGISTRY.counter(
    "repro_dbscan_batch_fits_total",
    "DBSCAN fits (point sets clustered by the batched kernel)",
)

#: Cluster id assigned to noise points.
NOISE = -1

#: Element budget for one batched ``(block, n, n)`` distance stack —
#: bounds peak memory (1 MB of float64 distances, plus the partition
#: copy and the component pass's temporaries of the same shape).  Blocks
#: of 16 lanes at 90 rows cost ~1 % more time than blocks of 32 and
#: halve the transient memory.
_BATCH_ELEMENT_BUDGET = 1 << 17


def _distance_blocks(
    stacks: Sequence[np.ndarray], n: int, total: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """``(first lane, (m, n, n) Euclidean distances)`` a block at a time.

    Only the squared norms and the Gram product depend on a lane's
    width, so they run once per ``(stack, block)`` slice, written into
    one preallocated ``(block, n, n)`` buffer; the rest of the distance
    arithmetic runs once per block over lanes of every width.  The
    buffer is reused, so each block must be consumed before the next.
    """
    _BATCH_FITS.inc(total)
    block = min(total, max(1, _BATCH_ELEMENT_BUDGET // (n * n)))
    dist = np.empty((block, n, n))
    sq = np.empty((block, n))
    # (stack, lane) of every lane in order, consumed a block at a time
    lanes = [(s, g) for s in stacks for g in range(s.shape[0])]
    for start in range(0, total, block):
        m = min(block, total - start)
        pos = 0
        while pos < m:
            stack, g = lanes[start + pos]
            take = min(stack.shape[0] - g, m - pos)
            pts = np.ascontiguousarray(stack[g : g + take])
            np.sum(pts * pts, axis=2, out=sq[pos : pos + take])
            # The squared distance is spelled ``sq_i + sq_j - 2.0 *
            # points @ points.T``, which binds as ``(2.0 * points) @
            # points.T`` — the doubling happens *before* the matrix
            # product, ulp for ulp.
            np.matmul(
                2.0 * pts, pts.transpose(0, 2, 1), out=dist[pos : pos + take]
            )
            pos += take
        d2, norms = dist[:m], sq[:m]
        np.subtract(norms[:, :, None] + norms[:, None, :], d2, out=d2)
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=d2)
        yield start, d2


def _component_labels(
    within: np.ndarray, core: np.ndarray
) -> np.ndarray:
    """Cluster labels from a ``(B, n, n)`` neighbour stack.

    Components are numbered by the smallest core index that starts them
    (the order a breadth-first scan over ascending indices reaches them)
    and border points go to the lowest-numbered cluster owning a core
    neighbour (first cluster wins).  Both rules reduce to pure array
    ops: propagate the minimum core index over core-core adjacency until
    fixpoint (with pointer jumping, so long chains converge in O(log n)
    sweeps), rank the surviving component roots in ascending order, and
    label every point by the rank of the smallest root among its core
    neighbours (a core point's own root for cores).
    """
    b, n, _ = within.shape
    sentinel = n
    # Masked minima as additions: a (B, n, n) penalty of 0 on edges and
    # ``n`` elsewhere pushes every non-edge term to ``>= n``, above any
    # index reached over an edge, so ``min(penalty + index)`` is the
    # masked minimum or ``>= n`` when there is none.  The sweeps are
    # memory-bound on that temporary; sums stay below 2n, so int16 fits
    # any window below 16 384 rows and halves the traffic of int32.
    dtype = np.int16 if 2 * n < np.iinfo(np.int16).max else np.int32
    core_nb = within & core[:, None, :]
    penalty = np.where(core_nb & core[:, :, None], dtype(0), dtype(sentinel))
    idx = np.arange(n, dtype=dtype)
    current = np.where(core, idx[None, :], dtype(sentinel))
    while True:
        candidate = (penalty + current[:, None, :]).min(axis=2)
        nxt = np.minimum(current, candidate)
        hop = np.take_along_axis(nxt, np.minimum(nxt, n - 1), axis=1)
        nxt = np.where(nxt < sentinel, np.minimum(nxt, hop), dtype(sentinel))
        if np.array_equal(nxt, current):
            break
        current = nxt
    roots = current  # min core index of the component; sentinel for non-core
    present = np.zeros((b, n + 1), dtype=bool)
    np.put_along_axis(present, roots.astype(np.intp), True, axis=1)
    present[:, n] = False
    rank = np.cumsum(present, axis=1).astype(np.int64) - 1
    rank = np.concatenate([rank, np.full((b, 1), NOISE, dtype=np.int64)], axis=1)
    # Min component root over core neighbours (self included for cores);
    # rows with no core neighbour at all (``>= n``) index the NOISE column.
    penalty = np.where(core_nb, dtype(0), dtype(sentinel))
    neighbour_root = (penalty + roots[:, None, :]).min(axis=2)
    lookup = np.where(neighbour_root < sentinel, neighbour_root, n + 1)
    return np.take_along_axis(rank, lookup.astype(np.intp), axis=1)


def _derive_eps(dist: np.ndarray, min_pts: int) -> np.ndarray:
    """The DBSherlock ε per lane of a ``(B, n, n)`` distance stack.

    ``max(Lk) / 4`` over the k-dist list with ``k = min_pts`` neighbours
    (the point itself excluded).  When the k-dist curve is flat that can
    land below the typical neighbour distance and dissolve every
    cluster, so ε is floored at the 95th percentile of ``Lk``, which
    keeps cluster-dense points core.
    """
    b, n, _ = dist.shape
    k = min(min_pts, n - 1)
    if k == 0:
        kd = np.zeros((b, n))
    else:
        # take copies the k-th column, so the partitioned stack is freed
        kd = np.take(np.partition(dist, k, axis=2), k, axis=2)
    return np.maximum(kd.max(axis=1) / 4.0, np.quantile(kd, 0.95, axis=1))


def _labels_at_eps(
    dist: np.ndarray, eps: np.ndarray, min_pts: int
) -> np.ndarray:
    """``(B, n)`` labels of a distance stack at per-lane radii *eps*.

    A lane with ``ε <= 0`` (all points identical) is one cluster.
    """
    b, n, _ = dist.shape
    labels = np.zeros((b, n), dtype=np.int64)
    active = eps > 0
    if bool(active.any()):  # degenerate lanes keep their all-zeros labels
        within = dist <= eps[:, None, None]
        core = (within.sum(axis=2) >= min_pts) & active[:, None]
        labels = _component_labels(within, core)
        labels[~active] = 0
    _LAST_CLUSTERS.set(int(labels[-1].max() + 1))
    return labels


def dbscan_labels_stacks(
    stacks: Sequence[np.ndarray], min_pts: int = 3
) -> tuple:
    """DBSCAN over point sets that share a row count but not a width.

    *stacks* is a sequence of ``(G_j, n, d_j)`` arrays with one ``n``;
    the result is ``(labels, eps)`` for their lanes in order, ``labels``
    ``(sum G_j, n)`` with :data:`NOISE` for noise.  Each lane gets the
    DBSherlock ε heuristic (:func:`_derive_eps`) and its own labels;
    lanes never see each other's points.  Blocks are sized to
    ``_BATCH_ELEMENT_BUDGET`` distance elements.
    """
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    stacks = [np.asarray(s, dtype=np.float64) for s in stacks]
    if any(s.ndim != 3 for s in stacks):
        raise ValueError("each stack must be (n_sets, n_rows, n_dims)")
    rows = {s.shape[1] for s in stacks}
    if len(rows) > 1:
        raise ValueError("stacks must share one row count")
    n = rows.pop() if rows else 0
    total = sum(s.shape[0] for s in stacks)
    labels = np.zeros((total, n), dtype=np.int64)
    eps = np.zeros(total)
    if total == 0 or n == 0:
        return labels, eps
    for start, dist in _distance_blocks(stacks, n, total):
        stop = start + dist.shape[0]
        eps[start:stop] = _derive_eps(dist, min_pts)
        labels[start:stop] = _labels_at_eps(dist, eps[start:stop], min_pts)
    return labels, eps


class DBSCAN:
    """Density-based clustering of one point set.

    Parameters
    ----------
    eps:
        Neighbourhood radius.  ``None`` derives ``ε = max(Lk)/4`` from the
        k-dist list at fit time (the DBSherlock heuristic).
    min_pts:
        Minimum neighbourhood size (including the point itself) for a core
        point.  DBSherlock fixes this to 3.
    """

    def __init__(self, eps: Optional[float] = None, min_pts: int = 3) -> None:
        if min_pts < 1:
            raise ValueError("min_pts must be at least 1")
        self.eps = eps
        self.min_pts = min_pts
        self.labels_: Optional[np.ndarray] = None
        self.eps_: Optional[float] = None

    def fit(self, points: np.ndarray) -> "DBSCAN":
        """Cluster *points*; labels land in ``labels_`` (NOISE = -1)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        n = points.shape[0]
        if n == 0:
            self.labels_ = np.zeros(0, dtype=np.int64)
            self.eps_ = self.eps or 0.0
            return self
        if self.eps is None:
            labels, eps = dbscan_labels_stacks([points[None]], self.min_pts)
            self.eps_ = float(eps[0])
        else:
            ((_, dist),) = _distance_blocks([points[None]], n, 1)
            labels = _labels_at_eps(dist, np.asarray([self.eps]), self.min_pts)
            self.eps_ = self.eps
        self.labels_ = labels[0]
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Fit and return the label array."""
        self.fit(points)
        assert self.labels_ is not None
        return self.labels_
