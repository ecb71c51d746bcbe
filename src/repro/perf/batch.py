"""Batched numeric labeling: one stacked bincount pass for all attributes.

Algorithm 1 labels each numeric attribute's partitions independently; done
one attribute at a time that is hundreds of (cheap) numpy calls per
dataset.  :func:`label_rows_batch` (called by
:meth:`repro.perf.cache.LabeledSpaceCache.entries_batch`, the only place
attributes are labeled) stacks all numeric columns into one
``(n_attrs, n_rows)`` float64 matrix, per-column partition indices are
computed in one vectorized expression, and the abnormal/normal partition
counts for *every* attribute come from a single offset ``np.bincount``
call per region (column ``j`` owns the index range
``[j*R, (j+1)*R)`` of the flattened count vector).

:func:`normalized_means_batch` computes the θ-gate statistics for many
attributes the same way.  The filter, fill and block steps that run on
the label rows live in :mod:`repro.core.filtering`.

Bitwise identity with the per-attribute path is load-bearing (the
golden-output tests assert it): the per-element float operations are
exactly those of :meth:`NumericPartitionSpace.partition_indices`,
min/max/bincount are exact regardless of evaluation order, the label
kernels are integer-only, and every float reduction runs over one
C-contiguous row.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "label_rows_batch",
    "normalize_columns_batch",
    "normalized_means_batch",
    "potential_power_batch",
]


def potential_power_batch(matrix: np.ndarray, window: int) -> np.ndarray:
    """Equation 4 for many attributes (and many streams) at once.

    *matrix* is ``(..., n_rows)`` — any number of leading axes over a
    trailing sample axis, each lane already normalized to [0, 1].  The
    single-stream caller passes ``(n_attrs, n_rows)``; the fleet engine
    passes the whole arena as ``(n_streams, n_attrs, n_rows)``.  Returns
    the potential power with the trailing axis reduced away.  The
    sliding windows are materialized as one ``(..., n_windows, w)``
    stride-tricks view and their medians taken in a single
    ``np.median(axis=-1)`` call, so the result is bitwise-identical to
    calling the scalar :func:`repro.core.anomaly.potential_power` on
    each lane (same window elements, same median reduction) — and
    independent of how lanes are stacked.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim < 2:
        raise ValueError("matrix must be (..., n_rows) with ndim >= 2")
    lead = matrix.shape[:-1]
    n = matrix.shape[-1]
    if 0 in lead or n == 0:
        return np.zeros(lead)
    window = max(min(int(window), n), 1)
    windows = np.lib.stride_tricks.sliding_window_view(matrix, window, axis=-1)
    if np.isnan(matrix).any():
        # degraded telemetry: medians over the valid samples only; windows
        # (or attributes) with no valid samples contribute zero power.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            overall = np.nanmedian(matrix, axis=-1)
            locals_ = np.nanmedian(windows, axis=-1)
            powers = np.nanmax(np.abs(overall[..., None] - locals_), axis=-1)
        return np.nan_to_num(powers, nan=0.0)
    overall = np.median(matrix, axis=-1)
    locals_ = np.median(windows, axis=-1)
    return np.max(np.abs(overall[..., None] - locals_), axis=-1)


def label_rows_batch(
    matrix: np.ndarray,
    abnormal_mask: np.ndarray,
    normal_mask: np.ndarray,
    n_partitions: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition and label the rows of an ``(n_attrs, n_rows)`` matrix.

    The region masks are either ``(n_rows,)``, shared by every row, or
    ``(n_attrs, n_rows)``, one per row, so attributes of different
    anomalies (same row count) label in one pass.  Returns ``(mins,
    maxs, labels)``: the partition-space bounds of each row and its
    labels on an ``(n_attrs, R)`` grid (a one-partition constant row
    uses column 0 only).
    """
    from repro.core.partition import Label

    if int(n_partitions) < 1:
        raise ValueError("n_partitions must be at least 1")
    n_attrs = matrix.shape[0]
    nan = np.isnan(matrix)
    has_nan = bool(nan.any())
    if has_nan:
        # degraded telemetry: min/max over the valid cells per attribute;
        # an all-NaN attribute degrades to a neutral constant space.
        mins = np.where(nan, np.inf, matrix).min(axis=1)
        maxs = np.where(nan, -np.inf, matrix).max(axis=1)
        all_nan = ~np.isfinite(mins)
        mins = np.where(all_nan, 0.0, mins)
        maxs = np.where(all_nan, 0.0, maxs)
    else:
        mins = matrix.min(axis=1)
        maxs = matrix.max(axis=1)
    spans = maxs - mins
    grid = int(n_partitions)
    # Constant columns collapse to a single partition (width 0, index 0);
    # the division guard keeps their indices at exactly 0.
    nparts = np.where(spans > 0, grid, 1).astype(np.int64)
    widths = spans / nparts
    safe_widths = np.where(widths == 0.0, 1.0, widths)
    with np.errstate(invalid="ignore"):
        raw = np.floor((matrix - mins[:, None]) / safe_widths[:, None])
    if has_nan:
        raw = np.where(nan, 0.0, raw)
    idx = np.clip(raw.astype(np.int64), 0, (nparts - 1)[:, None])

    offsets = (np.arange(n_attrs, dtype=np.int64) * grid)[:, None]
    flat = idx + offsets
    counts = []
    for mask in (abnormal_mask, normal_mask):
        mask = np.broadcast_to(mask, matrix.shape)
        if has_nan:
            # NaN cells belong to no partition: drop them from both counts
            mask = mask & ~nan
        counts.append(
            np.bincount(flat[mask], minlength=n_attrs * grid).reshape(
                n_attrs, grid
            )
        )
    counts_abnormal, counts_normal = counts

    labels_grid = np.full((n_attrs, grid), int(Label.EMPTY), dtype=np.int64)
    labels_grid[(counts_abnormal > 0) & (counts_normal == 0)] = int(
        Label.ABNORMAL
    )
    labels_grid[(counts_normal > 0) & (counts_abnormal == 0)] = int(
        Label.NORMAL
    )
    return mins, maxs, labels_grid


def normalize_columns_batch(matrix: np.ndarray) -> np.ndarray:
    """Row-batched :func:`repro.core.separation.normalize_values`.

    *matrix* is ``(n_attrs, n_rows)`` and must be NaN-free
    (:func:`normalized_means_batch` sends degraded rows to the serial
    function).  Each row is
    min/max-scaled with the exact elementwise ``(v - lo) / span``
    expression of the serial path; constant rows (span <= 0) become
    zeros.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be (n_attrs, n_rows)")
    if 0 in matrix.shape:
        return matrix.copy()
    mins = matrix.min(axis=1)
    maxs = matrix.max(axis=1)
    spans = maxs - mins
    degenerate = spans <= 0
    safe = np.where(degenerate, 1.0, spans)
    normalized = (matrix - mins[:, None]) / safe[:, None]
    normalized[degenerate] = 0.0
    return normalized


def normalized_means_batch(
    matrix: np.ndarray,
    abnormal_mask,
    normal_mask,
    bounds: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The θ-gate statistics ``(µA, µN)`` for many attributes at once.

    *matrix* is ``(n_attrs, n_rows)``; returns ``(n_attrs, 2)``, row ``i``
    bitwise-equal to ``region_means(normalize_values(matrix[i]), ...)``.
    With *bounds* ``[0, b1, ..., n_attrs]`` the masks are sequences:
    rows ``bounds[k]:bounds[k + 1]`` (one anomaly's attributes) use the
    k-th mask pair, so attributes of many anomalies with the same row
    count share one normalization.  NaN-free rows are normalized in one
    :func:`normalize_columns_batch` and reduced over the region columns
    gathered with ``take``: that copy stays C-ordered, so each row sums
    with the same pairwise tree as the 1-D ``values[mask].mean()``.  (A
    boolean index on axis 1, ``m[:, mask]``, returns an F-ordered copy
    whose row means differ in the last bit.)  Rows holding NaN cells
    take the serial NaN-aware path.
    """
    from repro.core.separation import normalize_values, region_means

    matrix = np.asarray(matrix, dtype=np.float64)
    if bounds is None:
        bounds = [0, matrix.shape[0]]
        abnormal_mask, normal_mask = [abnormal_mask], [normal_mask]
    for abnormal, normal in zip(abnormal_mask, normal_mask):
        if not abnormal.any() or not normal.any():
            raise ValueError("both regions must contain tuples")
    means = np.empty((matrix.shape[0], 2), dtype=np.float64)
    if matrix.shape[0] == 0:
        return means
    nan_rows = np.isnan(matrix).any(axis=1)
    # rows are normalized independently: zero the NaN rows for the batch
    # pass and recompute them serially below
    normalized = normalize_columns_batch(
        np.where(nan_rows[:, None], 0.0, matrix) if nan_rows.any() else matrix
    )
    for k, (abnormal, normal) in enumerate(zip(abnormal_mask, normal_mask)):
        rows = normalized[bounds[k] : bounds[k + 1]]
        for col, mask in enumerate((abnormal, normal)):
            means[bounds[k] : bounds[k + 1], col] = rows.take(
                np.flatnonzero(mask), axis=1
            ).mean(axis=1)
    for i in np.flatnonzero(nan_rows).tolist():
        k = int(np.searchsorted(bounds, i, side="right")) - 1
        means[i] = region_means(
            normalize_values(matrix[i]), abnormal_mask[k], normal_mask[k]
        )
    return means
