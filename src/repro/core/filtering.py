"""Partition filtering and gap filling (Sections 4.3-4.4).

Both steps apply to numeric attributes only.  *Filtering* erases non-Empty
partitions whose label disagrees with either of their nearest non-Empty
neighbours — all decisions taken simultaneously on the original labels, so
partitions cannot cascade-filter each other (the paper's Figure 5 note).
*Gap filling* then assigns every Empty partition the label of its closer
non-Empty side, with the distance to the Abnormal side inflated by the
anomaly distance multiplier ``δ`` (δ > 1 yields more specific predicates).

Each step has one implementation, a row kernel over an ``(n_rows, R)``
label matrix that the predicate generator runs over every attribute at
once (``*_batch``); the 1-D functions are its one-row calls.  All three
kernels are integer-only, so a row's result never depends on the rows
stacked with it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.partition import Label

__all__ = [
    "abnormal_blocks",
    "abnormal_blocks_batch",
    "fill_gaps",
    "fill_gaps_batch",
    "filter_partitions",
    "filter_partitions_batch",
]


def _non_empty(labels: np.ndarray):
    """The non-Empty cells of a label matrix, in row-major order.

    Returns ``(flat, at, row, val)``: the flattened labels, the flat
    index of each non-Empty cell, its row and its label.  Two cells are
    neighbours when they are consecutive in ``at`` and share a row, so
    the filter and the fill work on these few cells and never scan the
    Empty ones.
    """
    flat = labels.ravel()
    at = np.flatnonzero(flat != int(Label.EMPTY))
    return flat, at, at // labels.shape[1], flat[at]


def filter_partitions_batch(labels: np.ndarray) -> np.ndarray:
    """Section 4.3 filtering for many label rows at once.

    *labels* is ``(n_rows, n_partitions)``; each row is filtered on its
    own (:func:`filter_partitions` is the one-row call).  A non-Empty
    partition keeps its label only when both nearest non-Empty
    neighbours agree with it; run ends and a row's lone Abnormal (or
    lone Normal) partition are never filtered.  All integer ops, so a
    row's result does not depend on the rows stacked with it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2:
        raise ValueError("labels must be (n_rows, n_partitions)")
    out = labels.copy()
    _flat, at, row, val = _non_empty(labels)
    if at.size < 3:
        return out
    same_row = row[1:] == row[:-1]
    differs = val[1:] != val[:-1]
    # interior cells: a neighbour on both sides within the row
    drop = same_row[:-1] & same_row[1:] & (differs[:-1] | differs[1:])
    abnormal = val == int(Label.ABNORMAL)
    lone_abnormal = np.bincount(row[abnormal], minlength=labels.shape[0]) == 1
    lone_normal = np.bincount(row[~abnormal], minlength=labels.shape[0]) == 1
    lone = np.where(abnormal, lone_abnormal[row], lone_normal[row])
    drop &= ~lone[1:-1]
    out.reshape(-1)[at[1:-1][drop]] = int(Label.EMPTY)
    return out


def fill_gaps_batch(
    labels: np.ndarray,
    delta: float,
    normal_mean_partitions: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Section 4.4 gap filling for many label rows at once.

    Each row is filled on its own (:func:`fill_gaps` is the one-row
    call): an Empty partition takes the label of its closer non-Empty
    side, the distance to an Abnormal side multiplied by ``δ``, ties
    going Normal.  On a row where only Abnormal labels remain, partition
    ``normal_mean_partitions[i]`` (the one holding the normal region's
    mean) is force-labeled Normal first; without that argument such rows
    raise.  Rows with no non-Empty partitions pass through unchanged.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2:
        raise ValueError("labels must be (n_rows, n_partitions)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    out = labels.copy()
    _flat, at, row, val = _non_empty(out)
    if at.size == 0:
        return out
    m, n = out.shape
    abnormal = val == int(Label.ABNORMAL)
    abnormal_only = np.flatnonzero(
        (np.bincount(row[abnormal], minlength=m) > 0)
        & (np.bincount(row[~abnormal], minlength=m) == 0)
    )
    if abnormal_only.size:
        if normal_mean_partitions is None:
            raise ValueError(
                "only Abnormal partitions remain; normal_mean_partition required"
            )
        forced = np.asarray(normal_mean_partitions, dtype=np.int64)
        out[abnormal_only, forced[abnormal_only]] = int(Label.NORMAL)
        _flat, at, row, val = _non_empty(out)
    # Each non-Empty cell k owns the Empty run after it, up to the next
    # non-Empty cell of its row (or the row end); the first non-Empty
    # cell of a row also owns the run before it.  A run takes k's label
    # for its first `keep` cells and the next cell's label for the rest.
    first = np.ones(at.size, dtype=bool)
    first[1:] = row[1:] != row[:-1]
    last = np.ones(at.size, dtype=bool)
    last[:-1] = first[1:]
    next_at = np.empty_like(at)
    next_at[:-1] = at[1:]
    next_at[last] = (row[last] + 1) * n
    run = next_at - at - 1
    next_val = np.zeros_like(val)
    next_val[:-1] = val[1:]
    keep = run.copy()
    mixed = np.flatnonzero(~last & (next_val != val) & (run > 0))
    if mixed.size:
        # Between an Abnormal and a Normal side the Abnormal distance is
        # scaled by δ and must be strictly smaller to win (ties go Normal).
        # Both distances move monotonically along the run, so the cells
        # taking the left label are a prefix: count them.
        runs = run[mixed]
        starts = np.cumsum(runs) - runs
        owner = np.repeat(np.arange(mixed.size), runs)
        dist_left = (np.arange(runs.sum()) - starts[owner] + 1).astype(
            np.float64
        )
        dist_right = (runs[owner] + 1).astype(np.float64) - dist_left
        left_wins = np.where(
            val[mixed][owner] == int(Label.ABNORMAL),
            dist_left * delta < dist_right,
            ~(dist_right * delta < dist_left),
        )
        keep[mixed] = np.add.reduceat(left_wins.astype(np.int64), starts)
    lead = np.where(first, at - row * n, 0)
    values = np.stack([val, next_val], axis=1).ravel()
    counts = np.stack([lead + 1 + keep, run - keep], axis=1).ravel()
    filled = np.repeat(values, counts)
    if filled.size == out.size:
        return filled.reshape(m, n)
    # rows with no non-Empty partition have no side to copy: unchanged
    out[np.unique(row)] = filled.reshape(-1, n)
    return out


def abnormal_blocks_batch(labels: np.ndarray) -> list:
    """Per-row contiguous Abnormal runs as ``(start, end)`` inclusive.

    Returns a list of ``n_rows`` lists of ``(start, end)`` int tuples
    (:func:`abnormal_blocks` is the one-row call).
    One padded ``np.diff`` + ``np.nonzero`` finds every run edge; the
    row-major order of ``np.nonzero`` pairs the k-th start of a row with
    its k-th end.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2:
        raise ValueError("labels must be (n_rows, n_partitions)")
    m, n = labels.shape
    blocks: list = [[] for _ in range(m)]
    if m == 0 or n == 0:
        return blocks
    padded = np.zeros((m, n + 2), dtype=np.int8)
    padded[:, 1:-1] = labels == int(Label.ABNORMAL)
    edges = np.diff(padded, axis=1)
    row_s, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1] - 1
    for r, s, e in zip(row_s.tolist(), starts.tolist(), ends.tolist()):
        blocks[r].append((s, e))
    return blocks


def _row(labels: np.ndarray) -> np.ndarray:
    return np.asarray(labels, dtype=np.int64).reshape(1, -1)


def filter_partitions(labels: np.ndarray) -> np.ndarray:
    """Section 4.3 filtering, applied simultaneously.

    A non-Empty partition keeps its label only when *both* of its nearest
    non-Empty neighbours carry the same label (Figure 5, Scenario 1).
    Partitions at either end of the non-Empty run (with a single neighbour)
    are never filtered — the paper notes that an incremental version would
    wrongly erode them.  A lone Abnormal (or lone Normal) partition is
    deemed significant and kept regardless of its neighbours.
    """
    return filter_partitions_batch(_row(labels))[0]


def fill_gaps(
    labels: np.ndarray,
    delta: float,
    normal_mean_partition: Optional[int] = None,
) -> np.ndarray:
    """Section 4.4 gap filling with anomaly distance multiplier ``δ``.

    Every Empty partition takes the label of its closer non-Empty side,
    where the distance to an Abnormal side is multiplied by ``δ``; ties go
    Normal (consistent with δ > 1 favouring specific predicates).  When
    only Abnormal partitions remain, the partition holding the normal
    region's average value (``normal_mean_partition``) is force-labeled
    Normal first, so a predicate direction can be determined.

    Returns a fully non-Empty label array (unless no non-Empty partitions
    exist at all, in which case the input is returned unchanged).
    """
    forced = (
        None if normal_mean_partition is None else [int(normal_mean_partition)]
    )
    return fill_gaps_batch(_row(labels), delta, forced)[0]


def abnormal_blocks(labels: np.ndarray) -> list:
    """Contiguous runs of Abnormal partitions as ``(start, end)`` inclusive."""
    return abnormal_blocks_batch(_row(labels))[0]
