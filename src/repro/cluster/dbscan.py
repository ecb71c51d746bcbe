"""DBSCAN (Ester et al., KDD 1996) implemented from scratch.

DBSherlock's automatic anomaly detector (Section 7) clusters normalized
telemetry points with DBSCAN, fixing ``minPts = 3`` and deriving ``ε`` from
the k-dist curve: ``ε = max(Lk) / 4`` where ``Lk`` lists each point's
distance to its k-th nearest neighbour.

The fit path is built for the streaming engine's always-on re-clustering:

* ``k_distances`` evaluates the distance matrix in row chunks (no dense
  O(n²) materialization) and extracts the k-th column with
  ``np.partition``;
* neighbourhoods come from a uniform-grid index with cell size ε over the
  highest-spread dimensions — each cell's points are compared only against
  the 3^g adjacent cells, block by block;
* cluster expansion is a vectorized BFS: the whole frontier is labeled,
  visited, and expanded with array operations instead of a per-point
  ``deque`` walk.

The dense path is kept (``index="dense"``) as the equivalence baseline;
``index="auto"`` switches to the grid above ``_GRID_MIN_POINTS`` points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics

__all__ = [
    "DBSCAN",
    "NOISE",
    "dbscan_labels_batch",
    "dbscan_labels_stacks",
    "k_distances",
]

_GRID_FITS = metrics.REGISTRY.counter(
    "repro_dbscan_grid_fits_total", "DBSCAN fits served by the grid index"
)
_DENSE_FITS = metrics.REGISTRY.counter(
    "repro_dbscan_dense_fits_total",
    "DBSCAN fits served by the dense distance matrix",
)
_LAST_CLUSTERS = metrics.REGISTRY.gauge(
    "repro_dbscan_last_clusters", "Clusters found by the most recent fit"
)
_BATCH_FITS = metrics.REGISTRY.counter(
    "repro_dbscan_batch_fits_total",
    "DBSCAN fits served by the batched multi-set path",
)

#: Cluster id assigned to noise points.
NOISE = -1

#: Row-chunk size for blocked distance evaluation (bounds peak memory at
#: ``chunk × n`` floats instead of ``n × n``).
DEFAULT_CHUNK = 2048

#: Below this the grid bookkeeping costs more than the dense matrix.
_GRID_MIN_POINTS = 64

#: The grid bins on at most this many dimensions — in high-dimensional
#: telemetry 3^d adjacent cells is intractable, and binning on the
#: widest-spread axes already prunes most candidate pairs (any true
#: ε-neighbour is within ε along every axis, so adjacent cells along the
#: projection are a superset of the true neighbourhood).
_GRID_MAX_DIMS = 3


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix (fine for the few-hundred-point runs)."""
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def k_distances(
    points: np.ndarray, k: int, chunk_size: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbour (k-dist list).

    ``k`` counts neighbours excluding the point itself, following the
    original DBSCAN paper's sorted k-dist graph heuristic.  Distances are
    evaluated ``chunk_size`` rows at a time and the k-th order statistic
    taken with ``np.partition``, so peak memory is O(chunk × n).
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
    sq = np.sum(points * points, axis=1)
    out = np.empty(n)
    for start in range(0, n, max(int(chunk_size), 1)):
        stop = min(start + max(int(chunk_size), 1), n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * points[start:stop] @ points.T
        np.maximum(d2, 0.0, out=d2)
        rows = np.sqrt(d2)
        # Column 0 of the sorted row is the self-distance (0); the k-th
        # neighbour is order statistic k, which partition finds directly.
        out[start:stop] = np.partition(rows, k, axis=1)[:, k]
    return out


def _grid_neighbours(
    points: np.ndarray, eps: float
) -> List[np.ndarray]:
    """ε-neighbour lists via uniform-grid binning + blocked distances.

    Points are binned into cells of side ε along the (at most
    ``_GRID_MAX_DIMS``) widest-spread dimensions; each cell block is
    compared against the union of its 3^g adjacent cells in one small
    matrix product.  Neighbour lists come back in ascending index order,
    matching the dense ``np.flatnonzero`` path.
    """
    n, d = points.shape
    spans = points.max(axis=0) - points.min(axis=0)
    order = np.argsort(-spans, kind="stable")
    dims = order[: min(d, _GRID_MAX_DIMS)]
    proj = points[:, dims]
    mins = proj.min(axis=0)
    coords = np.floor((proj - mins) / eps).astype(np.int64)

    cells: Dict[Tuple[int, ...], List[int]] = {}
    for i, key in enumerate(map(tuple, coords)):
        cells.setdefault(key, []).append(i)
    cell_index = {key: np.asarray(idx, dtype=np.int64) for key, idx in cells.items()}

    g = len(dims)
    offsets = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * g), indexing="ij"), axis=-1
    ).reshape(-1, g)

    sq = np.sum(points * points, axis=1)
    neighbours: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    for key, members in cell_index.items():
        cand_blocks = []
        base = np.asarray(key, dtype=np.int64)
        for off in offsets:
            block = cell_index.get(tuple(base + off))
            if block is not None:
                cand_blocks.append(block)
        cand = np.sort(np.concatenate(cand_blocks))
        d2 = (
            sq[members][:, None]
            + sq[cand][None, :]
            - 2.0 * points[members] @ points[cand].T
        )
        np.maximum(d2, 0.0, out=d2)
        within = np.sqrt(d2) <= eps
        for row, i in enumerate(members):
            neighbours[i] = cand[within[row]]
    return neighbours


def _dense_neighbours(points: np.ndarray, eps: float) -> List[np.ndarray]:
    distances = _pairwise_distances(points)
    return [np.flatnonzero(distances[i] <= eps) for i in range(points.shape[0])]


class DBSCAN:
    """Density-based clustering.

    Parameters
    ----------
    eps:
        Neighbourhood radius.  ``None`` derives ``ε = max(Lk)/4`` from the
        k-dist list at fit time (the DBSherlock heuristic).
    min_pts:
        Minimum neighbourhood size (including the point itself) for a core
        point.  DBSherlock fixes this to 3.
    index:
        Neighbour-search backend: ``"grid"`` (uniform-grid binning),
        ``"dense"`` (full distance matrix), or ``"auto"`` (grid once the
        input outgrows the dense crossover).  Both backends produce the
        same neighbour sets; the grid is the production path for the
        streaming detector's per-tick re-clustering.
    """

    def __init__(
        self,
        eps: Optional[float] = None,
        min_pts: int = 3,
        index: str = "auto",
    ) -> None:
        if min_pts < 1:
            raise ValueError("min_pts must be at least 1")
        if index not in ("auto", "grid", "dense"):
            raise ValueError("index must be 'auto', 'grid', or 'dense'")
        self.eps = eps
        self.min_pts = min_pts
        self.index = index
        self.labels_: Optional[np.ndarray] = None
        self.eps_: Optional[float] = None

    def _neighbour_lists(
        self, points: np.ndarray, eps: float
    ) -> List[np.ndarray]:
        use_grid = self.index == "grid" or (
            self.index == "auto" and points.shape[0] >= _GRID_MIN_POINTS
        )
        if use_grid:
            _GRID_FITS.inc()
            return _grid_neighbours(points, eps)
        _DENSE_FITS.inc()
        return _dense_neighbours(points, eps)

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

        eps = self.eps
        if eps is None:
            kd = k_distances(points, self.min_pts)
            if kd.size:
                # DBSherlock's heuristic is ε = max(Lk)/4; when the k-dist
                # curve is flat that can land below the typical neighbour
                # distance and dissolve every cluster, so we floor ε at the
                # 95th percentile of Lk (keeping cluster-dense points core).
                eps = max(float(kd.max()) / 4.0, float(np.quantile(kd, 0.95)))
            else:
                eps = 0.0
        if eps <= 0:
            # Degenerate geometry (all points identical): one cluster.
            self.labels_ = np.zeros(n, dtype=np.int64)
            self.eps_ = eps
            return self
        self.eps_ = eps

        neighbours = self._neighbour_lists(points, eps)
        counts = np.asarray([nb.size for nb in neighbours], dtype=np.int64)
        labels = np.full(n, NOISE, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cluster_id = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if counts[i] < self.min_pts:
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
                cores = fresh[counts[fresh] >= self.min_pts]
                if cores.size:
                    frontier = np.unique(
                        np.concatenate([neighbours[c] for c in cores])
                    )
                else:
                    break
            cluster_id += 1
        self.labels_ = labels
        _LAST_CLUSTERS.set(cluster_id)
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Fit and return the label array."""
        self.fit(points)
        assert self.labels_ is not None
        return self.labels_

    def cluster_sizes(self) -> dict:
        """Mapping of cluster id → size (noise excluded)."""
        if self.labels_ is None:
            raise RuntimeError("fit() has not been called")
        members = self.labels_[self.labels_ != NOISE]
        ids, counts = np.unique(members, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}


#: Element budget for one batched ``(block, n, n)`` distance stack —
#: bounds peak memory the same way ``DEFAULT_CHUNK`` bounds the serial
#: k-dist evaluation (1 MB of float64 distances, plus the partition copy
#: and the component pass's temporaries of the same shape).  Blocks of
#: 16 lanes at 90 rows cost ~1 % more time than blocks of 32 and halve
#: the transient memory.
_BATCH_ELEMENT_BUDGET = 1 << 17


def _component_labels(
    within: np.ndarray, core: np.ndarray
) -> np.ndarray:
    """Serial-equal cluster labels from a ``(B, n, n)`` neighbour stack.

    The serial BFS numbers components by the smallest core index that
    starts them (the ascending outer loop reaches every component first
    at its minimal core point) and gives border points to the
    lowest-numbered cluster owning a core neighbour.  Both rules reduce
    to pure array ops: propagate the minimum core index over core-core
    adjacency until fixpoint (with pointer jumping, so long chains
    converge in O(log n) sweeps), rank the surviving component roots in
    ascending order, and label every point by the rank of the smallest
    root among its core neighbours (a core point's own root for cores;
    first-cluster-wins for borders).
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


def _labels_from_distances(dist: np.ndarray, min_pts: int) -> tuple:
    """``(labels, eps)`` for a ``(B, n, n)`` distance stack.

    Everything after the distance matrix — the k-dist partition, the ε
    heuristic, the core test and the component numbering — works on
    ``(n, n)`` per lane, whatever width the lane's points had.
    """
    b, n, _ = dist.shape
    k = min(min_pts, n - 1)
    if k == 0:
        kd = np.zeros((b, n))
    else:
        # take copies the k-th column, so the partitioned stack is freed
        kd = np.take(np.partition(dist, k, axis=2), k, axis=2)
    eps = np.maximum(kd.max(axis=1) / 4.0, np.quantile(kd, 0.95, axis=1))
    labels = np.zeros((b, n), dtype=np.int64)
    active = eps > 0
    if bool(active.any()):  # degenerate lanes keep their all-zeros labels
        within = dist <= eps[:, None, None]
        core = (within.sum(axis=2) >= min_pts) & active[:, None]
        labels = _component_labels(within, core)
        labels[~active] = 0
    return labels, eps


def dbscan_labels_stacks(
    stacks: Sequence[np.ndarray], min_pts: int = 3
) -> tuple:
    """DBSCAN over point sets that share a row count but not a width.

    *stacks* is a sequence of ``(G_j, n, d_j)`` arrays with one ``n``;
    the result is ``(labels, eps)`` for their lanes in order, ``labels``
    ``(sum G_j, n)``.  Each lane is clustered with the DBSherlock ε
    heuristic exactly as ``DBSCAN(eps=None,
    min_pts=min_pts).fit_predict(lane)`` would — the k-dist extraction,
    ε derivation, core test, component numbering, and border ownership
    are the same arithmetic evaluated across the leading axis — so the
    pair is bitwise-identical to the serial loop (asserted by the
    equivalence tests).

    Only the squared norms and the Gram product depend on a lane's
    width, so they run once per ``(stack, block)`` slice, written into
    one preallocated ``(block, n, n)`` buffer; the rest of the distance
    arithmetic and the labelling run once per block over lanes of every
    width.  Blocks are sized to ``_BATCH_ELEMENT_BUDGET`` distance
    elements.
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
            # NB: the serial paths spell the squared distance ``sq_i +
            # sq_j - 2.0 * points @ points.T``, which binds as ``(2.0 *
            # points) @ points.T`` — the doubling happens *before* the
            # matrix product.  Reproduce that exactly, ulp for ulp.
            np.matmul(
                2.0 * pts, pts.transpose(0, 2, 1), out=dist[pos : pos + take]
            )
            pos += take
        d2, norms = dist[:m], sq[:m]
        np.subtract(norms[:, :, None] + norms[:, None, :], d2, out=d2)
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=d2)
        labels[start : start + m], eps[start : start + m] = (
            _labels_from_distances(d2, min_pts)
        )
    _LAST_CLUSTERS.set(int(labels[-1].max() + 1))
    return labels, eps


def dbscan_labels_batch(points: np.ndarray, min_pts: int = 3) -> tuple:
    """DBSCAN over a ``(n_sets, n_rows, n_dims)`` stack of point sets.

    :func:`dbscan_labels_stacks` with a single stack: the returned
    ``(labels, eps)`` pair is bitwise-identical to running
    ``DBSCAN(eps=None, min_pts=min_pts).fit_predict`` on each set.
    """
    return dbscan_labels_stacks([points], min_pts)
