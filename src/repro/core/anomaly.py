"""Automatic anomaly detection (Section 7).

The detector (i) normalizes each numeric attribute to [0, 1], (ii) selects
attributes whose *potential power* — the largest absolute gap between the
overall median and a sliding-window median (Equation 4) — exceeds ``PPt``,
(iii) clusters the selected attribute vectors with DBSCAN (minPts = 3,
ε = max(Lk)/4), and (iv) flags points in clusters smaller than 20 % of the
data as abnormal, under the assumption that anomalies are rare.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.dbscan import NOISE, dbscan_labels_stacks
from repro.core.separation import normalize_values
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec

__all__ = [
    "potential_power",
    "impute_missing",
    "AnomalyDetector",
    "mask_to_regions",
    "mask_runs_batch",
    "smooth_masks_batch",
]

DEFAULT_WINDOW = 20
DEFAULT_PP_THRESHOLD = 0.3
DEFAULT_CLUSTER_FRACTION = 0.2


def potential_power(values: np.ndarray, window: int = DEFAULT_WINDOW) -> float:
    """Equation 4: max over sliding windows of |median − window median|.

    *values* should already be normalized to [0, 1] so the result is
    comparable across attributes; windows longer than the series degrade to
    a single whole-series window (power 0).

    All window medians are taken in one ``sliding_window_view`` +
    ``np.median(axis=1)`` pass; per-window values are identical to the
    per-slice medians the seed loop computed (same elements, same
    median), so the result is bitwise-unchanged.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        return 0.0
    window = max(min(int(window), n), 1)
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    if np.isnan(values).any():
        # degraded telemetry: medians over valid samples only; an
        # attribute (or window) with no valid samples has zero power.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            overall = np.nanmedian(values)
            locals_ = np.nanmedian(windows, axis=1)
            power = np.nanmax(np.abs(overall - locals_))
        return float(power) if np.isfinite(power) else 0.0
    overall = float(np.median(values))
    locals_ = np.median(windows, axis=1)
    return float(np.max(np.abs(overall - locals_)))


def impute_missing(matrix: np.ndarray) -> np.ndarray:
    """Replace NaN cells with their column's valid median (0.5 if none).

    Used before distance-based stages (DBSCAN) that cannot tolerate NaN;
    returns the input untouched when it is already clean.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    nan = np.isnan(matrix)
    if not nan.any():
        return matrix
    out = matrix.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fill = np.nanmedian(out, axis=0)
    fill = np.nan_to_num(fill, nan=0.5)
    cols = np.nonzero(nan)[1]
    out[nan] = fill[cols]
    return out


def mask_to_regions(timestamps: np.ndarray, mask: np.ndarray) -> List[Region]:
    """Convert a boolean row mask into contiguous time regions.

    Run boundaries come from one ``np.flatnonzero(np.diff(...))`` edge
    detection over the padded mask instead of a per-row Python loop.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0 or not mask.any():
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts = edges[0::2]
    ends = edges[1::2] - 1  # last flagged row of each run
    return [
        Region(float(timestamps[s]), float(timestamps[e]))
        for s, e in zip(starts, ends)
    ]


def mask_runs_batch(masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run boundaries for a stack of boolean row masks at once.

    *masks* is ``(n_lanes, n_rows)``; returns ``(lanes, starts, ends)``
    index arrays where the k-th entry describes one contiguous True run
    (``ends`` inclusive).  ``np.nonzero``'s row-major order pairs each
    lane's k-th rising edge with its k-th falling edge, so per lane the
    runs come back exactly as :func:`mask_to_regions` would emit them.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError("masks must be (n_lanes, n_rows)")
    n_lanes, n = masks.shape
    if n_lanes == 0 or n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    padded = np.zeros((n_lanes, n + 2), dtype=np.int8)
    padded[:, 1:-1] = masks
    edges = np.diff(padded, axis=1)
    lanes, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1] - 1
    return lanes, starts, ends


def smooth_masks_batch(
    masks: np.ndarray,
    timestamps: np.ndarray,
    gap_fill_s: float,
    min_region_s: float,
) -> np.ndarray:
    """Temporal smoothing of flagged rows, for many lanes at once.

    Bridges unflagged interior gaps with ``duration + 1.0 <=
    gap_fill_s``, then drops flagged runs with ``duration + 1.0 <=
    min_region_s``.  *masks* and *timestamps* are ``(n_lanes, n_rows)``;
    timestamps must be strictly increasing per lane, so a region's
    member rows are exactly its index span.  Each pass snapshots its run
    boundaries before mutating.
    """
    masks = np.asarray(masks, dtype=bool).copy()
    n_lanes, n = masks.shape
    if n_lanes == 0 or n == 0:
        return masks
    ts = np.asarray(timestamps, dtype=np.float64)
    first = ts[:, 0]
    last = ts[:, -1]

    # pass 1: bridge short interior gaps inside a flagged window
    lanes, starts, ends = mask_runs_batch(~masks)
    if lanes.size:
        start_t = ts[lanes, starts]
        end_t = ts[lanes, ends]
        interior = (start_t > first[lanes]) & (end_t < last[lanes])
        fill = interior & ((end_t - start_t) + 1.0 <= gap_fill_s)
        if bool(fill.any()):
            delta = np.zeros((n_lanes, n + 1), dtype=np.int32)
            np.add.at(delta, (lanes[fill], starts[fill]), 1)
            np.add.at(delta, (lanes[fill], ends[fill] + 1), -1)
            masks |= np.cumsum(delta[:, :n], axis=1) > 0

    # pass 2: drop flagged runs too short to be a sustained anomaly
    lanes, starts, ends = mask_runs_batch(masks)
    if lanes.size:
        drop = (ts[lanes, ends] - ts[lanes, starts]) + 1.0 <= min_region_s
        if bool(drop.any()):
            delta = np.zeros((n_lanes, n + 1), dtype=np.int32)
            np.add.at(delta, (lanes[drop], starts[drop]), 1)
            np.add.at(delta, (lanes[drop], ends[drop] + 1), -1)
            masks &= ~(np.cumsum(delta[:, :n], axis=1) > 0)
    return masks


@dataclass
class DetectionResult:
    """Outcome of automatic detection."""

    mask: np.ndarray
    regions: List[Region]
    selected_attributes: List[str]
    eps: float

    def to_region_spec(self) -> RegionSpec:
        """The detected abnormal regions as a user-style region spec."""
        return RegionSpec(abnormal=list(self.regions), normal=None)

    @property
    def found(self) -> bool:
        """True when at least one abnormal region was detected."""
        return bool(self.regions)


class AnomalyDetector:
    """DBSCAN-based automatic anomaly detection (Section 7 defaults)."""

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        pp_threshold: float = DEFAULT_PP_THRESHOLD,
        min_pts: int = 3,
        cluster_fraction: float = DEFAULT_CLUSTER_FRACTION,
        include_noise: bool = True,
        min_region_s: float = 5.0,
        gap_fill_s: float = 3.0,
    ) -> None:
        self.window = window
        self.pp_threshold = pp_threshold
        self.min_pts = min_pts
        self.cluster_fraction = cluster_fraction
        # DBSCAN noise points are density outliers — in high-dimensional
        # telemetry the anomalous seconds often land there rather than in
        # a cluster of their own, so they count as abnormal candidates.
        self.include_noise = include_noise
        # temporal smoothing: anomalies are sustained windows, so flagged
        # slivers shorter than min_region_s are discarded and unflagged
        # gaps shorter than gap_fill_s inside a window are bridged.
        self.min_region_s = min_region_s
        self.gap_fill_s = gap_fill_s

    def select_attributes(
        self, dataset: Dataset, attributes: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Numeric attributes whose potential power exceeds the threshold.

        All candidate columns are normalized, stacked, and scored in one
        :func:`repro.perf.batch.potential_power_batch` call.
        """
        from repro.perf.batch import potential_power_batch

        names = (
            [a for a in attributes if dataset.is_numeric(a)]
            if attributes is not None
            else dataset.numeric_attributes
        )
        if not names or dataset.n_rows == 0:
            return []
        matrix = np.stack(
            [normalize_values(dataset.column(a)) for a in names]
        )
        powers = potential_power_batch(matrix, self.window)
        return [a for a, p in zip(names, powers) if p > self.pp_threshold]

    def detect(
        self, dataset: Dataset, attributes: Optional[Sequence[str]] = None
    ) -> DetectionResult:
        """Run the full detection pipeline on *dataset*."""
        selected = self.select_attributes(dataset, attributes)
        n = dataset.n_rows
        if not selected or n == 0:
            return DetectionResult(
                mask=np.zeros(n, dtype=bool),
                regions=[],
                selected_attributes=[],
                eps=0.0,
            )
        matrix = impute_missing(
            np.column_stack(
                [normalize_values(dataset.column(a)) for a in selected]
            )
        )
        return self._cluster_and_mask(matrix, dataset.timestamps, selected)

    def _cluster_and_mask(
        self,
        matrix: np.ndarray,
        timestamps: np.ndarray,
        selected: List[str],
    ) -> DetectionResult:
        """Cluster the normalized attribute matrix and build the result.

        A one-lane call of the kernels the fleet's fallout runs for many
        streams at once (:func:`repro.fleet.fallout.cluster_windows_batch`),
        so batch and streaming results can only diverge at attribute
        selection.
        """
        labels, eps = dbscan_labels_stacks([matrix[None]], self.min_pts)
        ts = np.asarray(timestamps, dtype=np.float64)[None]
        return self._results_from_labels(labels, eps, ts, [selected])[0]

    def _results_from_labels(
        self,
        labels: np.ndarray,
        eps: np.ndarray,
        timestamps: np.ndarray,
        selections: Sequence[Sequence[str]],
    ) -> List[DetectionResult]:
        """Step (iv) and the temporal smoothing for lanes of one row count.

        *labels* and *timestamps* are ``(n_lanes, n_rows)``, timestamps
        strictly increasing per lane.  Cluster sizes come from one offset
        bincount (stride ``n + 1``: a lane has at most ``n`` clusters, ids
        ``0..n-1``), so each lane's clusters are sized on its own rows.
        """
        n_lanes, n = labels.shape
        clustered = labels != NOISE
        lane_idx, row_idx = np.nonzero(clustered)
        counts = np.bincount(
            lane_idx * (n + 1) + labels[lane_idx, row_idx],
            minlength=n_lanes * (n + 1),
        ).reshape(n_lanes, n + 1)
        size_of = np.take_along_axis(counts, np.maximum(labels, 0), axis=1)
        mask = clustered & (size_of < self.cluster_fraction * n)
        if self.include_noise:
            mask |= labels == NOISE
        smoothed = smooth_masks_batch(
            mask, timestamps, self.gap_fill_s, self.min_region_s
        )
        regions: List[List[Region]] = [[] for _ in range(n_lanes)]
        lanes, starts, ends = mask_runs_batch(smoothed)
        for g, s, e in zip(lanes.tolist(), starts.tolist(), ends.tolist()):
            regions[g].append(
                Region(float(timestamps[g, s]), float(timestamps[g, e]))
            )
        return [
            DetectionResult(
                mask=smoothed[g].copy(),
                regions=regions[g],
                selected_attributes=list(selections[g]),
                eps=float(eps[g]),
            )
            for g in range(n_lanes)
        ]
