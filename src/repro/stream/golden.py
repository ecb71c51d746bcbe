"""Frozen copies of the pre-streaming detection implementations.

Verbatim snapshots of the seed Section 7 detector stack — the Python-loop
Equation 4, the per-row region scan, and the dense-matrix ``deque``
DBSCAN — kept so that

* the equivalence tests (``tests/test_stream.py``) can assert the
  vectorized / indexed / streaming paths reproduce what the code
  produced before this subsystem existed (same mask, regions, selected
  attributes, ε on identical windows), and
* ``benchmarks/bench_online_detect.py`` can time the true "re-run the
  batch detector every tick" baseline.

They intentionally preserve the original inefficiencies (per-window
``np.median`` loop, O(n²) distance matrix, per-point queue walk) and must
never be called from the live pipeline.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.core.anomaly import DEFAULT_WINDOW, DetectionResult
from repro.core.separation import normalize_values
from repro.data.dataset import Dataset
from repro.data.regions import Region

__all__ = [
    "golden_potential_power",
    "golden_mask_to_regions",
    "golden_k_distances",
    "GoldenDBSCAN",
    "GoldenAnomalyDetector",
    "GOLDEN_NOISE",
]

GOLDEN_NOISE = -1


def golden_potential_power(
    values: np.ndarray, window: int = DEFAULT_WINDOW
) -> float:
    """Seed Equation 4: a Python loop with one ``np.median`` per window."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        return 0.0
    window = max(min(int(window), n), 1)
    overall = float(np.median(values))
    best = 0.0
    for start in range(0, n - window + 1):
        local = float(np.median(values[start : start + window]))
        best = max(best, abs(overall - local))
    return best


def golden_mask_to_regions(
    timestamps: np.ndarray, mask: np.ndarray
) -> List[Region]:
    """Seed per-row scan converting a boolean mask into regions."""
    regions: List[Region] = []
    start_idx: Optional[int] = None
    for i, flagged in enumerate(mask):
        if flagged and start_idx is None:
            start_idx = i
        elif not flagged and start_idx is not None:
            regions.append(
                Region(float(timestamps[start_idx]), float(timestamps[i - 1]))
            )
            start_idx = None
    if start_idx is not None:
        regions.append(
            Region(float(timestamps[start_idx]), float(timestamps[-1]))
        )
    return regions


def _golden_pairwise(points: np.ndarray) -> np.ndarray:
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def golden_k_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Seed k-dist list via a dense distance matrix and a full sort."""
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
    distances = _golden_pairwise(points)
    sorted_rows = np.sort(distances, axis=1)
    return sorted_rows[:, k]


class GoldenDBSCAN:
    """Seed DBSCAN: dense O(n²) neighbour matrix, per-point queue walk.

    Preserves the seed's border-point semantics (a border point reachable
    from two clusters ends with the *last* cluster's label — the double
    label write the live implementation fixed).
    """

    def __init__(self, eps: Optional[float] = None, min_pts: int = 3) -> None:
        if min_pts < 1:
            raise ValueError("min_pts must be at least 1")
        self.eps = eps
        self.min_pts = min_pts
        self.labels_: Optional[np.ndarray] = None
        self.eps_: Optional[float] = None

    def fit(self, points: np.ndarray) -> "GoldenDBSCAN":
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
            kd = golden_k_distances(points, self.min_pts)
            if kd.size:
                eps = max(float(kd.max()) / 4.0, float(np.quantile(kd, 0.95)))
            else:
                eps = 0.0
        if eps <= 0:
            self.labels_ = np.zeros(n, dtype=np.int64)
            self.eps_ = eps
            return self
        self.eps_ = eps

        distances = _golden_pairwise(points)
        neighbours = [np.flatnonzero(distances[i] <= eps) for i in range(n)]
        labels = np.full(n, GOLDEN_NOISE, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cluster_id = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if neighbours[i].size < self.min_pts:
                continue
            labels[i] = cluster_id
            queue = deque(neighbours[i])
            while queue:
                j = queue.popleft()
                if labels[j] == GOLDEN_NOISE:
                    labels[j] = cluster_id
                if visited[j]:
                    continue
                visited[j] = True
                labels[j] = cluster_id
                if neighbours[j].size >= self.min_pts:
                    queue.extend(neighbours[j])
            cluster_id += 1
        self.labels_ = labels
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        self.fit(points)
        assert self.labels_ is not None
        return self.labels_

    def cluster_sizes(self) -> dict:
        if self.labels_ is None:
            raise RuntimeError("fit() has not been called")
        sizes: dict = {}
        for label in self.labels_:
            if label == GOLDEN_NOISE:
                continue
            sizes[int(label)] = sizes.get(int(label), 0) + 1
        return sizes


class GoldenAnomalyDetector:
    """Seed Section 7 detector: full recompute per call, loop kernels."""

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        pp_threshold: float = 0.3,
        min_pts: int = 3,
        cluster_fraction: float = 0.2,
        include_noise: bool = True,
        min_region_s: float = 5.0,
        gap_fill_s: float = 3.0,
    ) -> None:
        self.window = window
        self.pp_threshold = pp_threshold
        self.min_pts = min_pts
        self.cluster_fraction = cluster_fraction
        self.include_noise = include_noise
        self.min_region_s = min_region_s
        self.gap_fill_s = gap_fill_s

    def select_attributes(
        self, dataset: Dataset, attributes: Optional[Sequence[str]] = None
    ) -> List[str]:
        names = (
            [a for a in attributes if dataset.is_numeric(a)]
            if attributes is not None
            else dataset.numeric_attributes
        )
        selected = []
        for attr in names:
            normalized = normalize_values(dataset.column(attr))
            if golden_potential_power(normalized, self.window) > self.pp_threshold:
                selected.append(attr)
        return selected

    def detect(
        self, dataset: Dataset, attributes: Optional[Sequence[str]] = None
    ) -> DetectionResult:
        selected = self.select_attributes(dataset, attributes)
        n = dataset.n_rows
        if not selected or n == 0:
            return DetectionResult(
                mask=np.zeros(n, dtype=bool),
                regions=[],
                selected_attributes=[],
                eps=0.0,
            )
        matrix = np.column_stack(
            [normalize_values(dataset.column(a)) for a in selected]
        )
        clusterer = GoldenDBSCAN(eps=None, min_pts=self.min_pts)
        labels = clusterer.fit_predict(matrix)
        sizes = clusterer.cluster_sizes()
        threshold = self.cluster_fraction * n
        abnormal_clusters = {
            cid for cid, size in sizes.items() if size < threshold
        }
        mask = np.isin(labels, sorted(abnormal_clusters))
        if self.include_noise:
            mask |= labels == GOLDEN_NOISE
        mask = self._smooth_mask(mask, dataset.timestamps)
        return DetectionResult(
            mask=mask,
            regions=golden_mask_to_regions(dataset.timestamps, mask),
            selected_attributes=selected,
            eps=float(clusterer.eps_ or 0.0),
        )

    def _smooth_mask(
        self, mask: np.ndarray, timestamps: np.ndarray
    ) -> np.ndarray:
        smoothed = mask.copy()
        for gap in golden_mask_to_regions(timestamps, ~smoothed):
            is_interior = (
                gap.start > timestamps[0] and gap.end < timestamps[-1]
            )
            if is_interior and gap.duration + 1.0 <= self.gap_fill_s:
                smoothed[gap.contains(timestamps)] = True
        for run in golden_mask_to_regions(timestamps, smoothed):
            if run.duration + 1.0 <= self.min_region_s:
                smoothed[run.contains(timestamps)] = False
        return smoothed
