"""Fallout kernels: the per-stream stages after attribute selection.

Only streams with a non-empty selected-attribute set leave the fleet's
dense path (:mod:`repro.fleet.engine`); for them these functions run the
Section 7 DBSCAN re-cluster and close the regions that can no longer
grow.  :func:`cluster_windows_batch` clusters any number of streams in
numpy passes — one stream is a one-lane call — and
:func:`close_regions_batch` closes their regions.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.dbscan import dbscan_labels_stacks
from repro.core.anomaly import AnomalyDetector, DetectionResult
from repro.data.regions import Region

__all__ = [
    "close_regions",
    "close_regions_batch",
    "cluster_windows_batch",
]


def cluster_windows_batch(
    batch: AnomalyDetector,
    windows: Sequence[object],
    selections: Sequence[Sequence[str]],
) -> List[DetectionResult]:
    """Normalize each window's *selections* columns and cluster them.

    Each window offers ``timestamps`` and ``matrix(attrs)``, its ``(rows,
    len(attrs))`` values in one gather, as
    :class:`~repro.fleet.arena.ArenaWindow` does; the arena holds only
    finite values and strictly increasing timestamps
    (:meth:`~repro.fleet.arena.FleetArena.append` rejects anything
    else).  Streams are grouped by row count only: one normalization
    pass covers every selected column of the group (per-column min/max
    is order-independent, so Equation 2 stays exact), and
    :func:`repro.cluster.dbscan.dbscan_labels_stacks` builds distances
    per ``(rows, width)`` stack — no padding, which would change the
    floating-point accumulation trees — then labels all of the group's
    lanes together.  The abnormal-cluster test and the smoothing run
    once per row count too
    (:meth:`~repro.core.anomaly.AnomalyDetector._results_from_labels`).
    Each lane has its own distance matrix and ε, so clusters never
    bleed across tenants.

    Element ``i`` of the returned list is bitwise-identical to
    ``batch._cluster_and_mask`` on window ``i``'s normalized columns,
    the call ``AnomalyDetector.detect`` makes — the fallout tests
    assert it.  An empty window or selection gets the all-normal result.
    """
    count = len(windows)
    results: List[Optional[DetectionResult]] = [None] * count
    raws: List[Optional[np.ndarray]] = [None] * count
    stamps: List[Optional[np.ndarray]] = [None] * count
    by_rows: Dict[int, List[int]] = {}
    for i in range(count):
        window = windows[i]
        selected = list(selections[i])
        ts = np.asarray(window.timestamps, dtype=np.float64)
        n = ts.shape[0]
        if n == 0 or not selected:
            results[i] = DetectionResult(
                mask=np.zeros(n, dtype=bool),
                regions=[],
                selected_attributes=selected,
                eps=0.0,
            )
            continue
        raws[i] = window.matrix(selected)
        stamps[i] = ts
        by_rows.setdefault(n, []).append(i)

    for n, members in by_rows.items():
        # equal widths side by side, so each (n, k) stack is one slice
        members.sort(key=lambda i: raws[i].shape[1])
        widths = [raws[i].shape[1] for i in members]
        norm = np.concatenate([raws[i] for i in members], axis=1)
        for i in members:
            raws[i] = None  # the per-lane copies are dead from here on
        # normalize_values' exact (v - lo) / span per column, in place; a
        # constant column has v - lo == 0.0 everywhere, so dividing it by
        # 1.0 gives normalize_values' zeros
        lo = norm.min(axis=0)
        span = norm.max(axis=0) - lo
        norm -= lo
        norm /= np.where(span > 0, span, 1.0)
        stacks = []
        col = 0
        for k, run in groupby(widths):
            g = len(list(run))
            stacks.append(
                norm[:, col : col + g * k].reshape(n, g, k).transpose(1, 0, 2)
            )
            col += g * k
        labels, eps = dbscan_labels_stacks(stacks, batch.min_pts)
        lane_results = batch._results_from_labels(
            labels,
            eps,
            np.stack([stamps[i] for i in members]),
            [selections[i] for i in members],
        )
        for i, result in zip(members, lane_results):
            results[i] = result
    return results  # type: ignore[return-value]


def close_regions(
    regions: Sequence[Region],
    timestamps: np.ndarray,
    gap_fill_s: float,
    emitted_ends: Set[float],
) -> Tuple[List[Region], Set[float]]:
    """Split off regions that can no longer be extended by future ticks.

    A flagged region is *closed* once the unflagged gap between its end
    and the window tail exceeds *gap_fill_s* — no future row can bridge
    into it.  Each closed region is emitted exactly once, keyed by its
    end timestamp (ends never shift; starts can, when eviction truncates
    a region).  Returns ``(closed, emitted_ends)`` where the second
    element is the pruned dedup set the caller should retain (keys whose
    timestamps have left the buffer are dropped).
    """
    if len(timestamps) == 0:
        return [], emitted_ends
    tail = float(timestamps[-1])
    oldest = float(timestamps[0])
    emitted_ends = {e for e in emitted_ends if e >= oldest}
    closed: List[Region] = []
    for region in regions:
        if tail - region.end > gap_fill_s and (
            region.end not in emitted_ends
        ):
            emitted_ends.add(region.end)
            closed.append(region)
    return closed, emitted_ends


def close_regions_batch(
    region_lists: Sequence[Sequence[Region]],
    windows: Sequence[object],
    gap_fill_s: float,
    emitted_sets: Sequence[Set[float]],
) -> Tuple[List[List[Region]], List[Set[float]]]:
    """:func:`close_regions` across a fallout set in one call.

    Streams with neither candidate regions nor retained dedup keys are
    recognized up front (in a storm most fallout streams close nothing
    on most ticks) — for them :func:`close_regions` would only rebuild
    an empty set, so the short-circuit returns identical state without
    reading the window.  The rest read their window's ``timestamps``
    and run through :func:`close_regions` unchanged.
    """
    closed_lists: List[List[Region]] = []
    emitted_out: List[Set[float]] = []
    for regions, window, emitted in zip(region_lists, windows, emitted_sets):
        if not regions and not emitted:
            closed_lists.append([])
            emitted_out.append(emitted)
            continue
        closed, emitted = close_regions(
            regions, window.timestamps, gap_fill_s, emitted
        )
        closed_lists.append(closed)
        emitted_out.append(emitted)
    return closed_lists, emitted_out
