"""Log preprocessing: timestamp alignment and transaction aggregation.

Mirrors the DBSeer preprocessing step the paper relies on (Section 2.1):
raw, unaligned log streams (per-transaction latency records, OS snapshots,
DBMS counters) are summarised at fixed 1-second intervals and joined on the
interval start timestamp into one row per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "TransactionRecord",
    "aggregate_transactions",
    "align_logs",
    "AlignedLogBuilder",
    "GapReport",
    "regularize_dataset",
]


@dataclass(frozen=True)
class TransactionRecord:
    """One completed transaction from the timestamped query log.

    Attributes
    ----------
    start_time:
        Wall-clock second (float) the transaction started.
    latency_ms:
        End-to-end latency in milliseconds.
    txn_type:
        Workload transaction type (e.g. ``"NewOrder"``).
    """

    start_time: float
    latency_ms: float
    txn_type: str = "generic"


def aggregate_transactions(
    records: Sequence[TransactionRecord],
    start: float,
    end: float,
    interval: float = 1.0,
    quantiles: Sequence[float] = (0.99,),
    txn_types: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Aggregate per-transaction records into per-interval statistics.

    Returns ``(timestamps, columns)`` where columns include average and
    quantile latencies plus per-type and total counts for every interval in
    ``[start, end)``.  Intervals without transactions report zero counts
    and carry the previous interval's latency (0 for the first), matching
    DBSeer's gap handling.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    n_bins = max(int(math.ceil((end - start) / interval)), 1)
    timestamps = start + interval * np.arange(n_bins)

    if txn_types is None:
        txn_types = sorted({r.txn_type for r in records}) or ["generic"]

    bucket_latencies: List[List[float]] = [[] for _ in range(n_bins)]
    type_counts = {t: np.zeros(n_bins) for t in txn_types}
    for record in records:
        idx = int((record.start_time - start) // interval)
        if 0 <= idx < n_bins:
            bucket_latencies[idx].append(record.latency_ms)
            if record.txn_type in type_counts:
                type_counts[record.txn_type][idx] += 1

    avg_latency = np.zeros(n_bins)
    quantile_cols = {q: np.zeros(n_bins) for q in quantiles}
    total = np.zeros(n_bins)
    prev_avg = 0.0
    prev_q = {q: 0.0 for q in quantiles}
    for i, latencies in enumerate(bucket_latencies):
        total[i] = len(latencies)
        if latencies:
            arr = np.asarray(latencies)
            prev_avg = float(arr.mean())
            for q in quantiles:
                prev_q[q] = float(np.quantile(arr, q))
        avg_latency[i] = prev_avg
        for q in quantiles:
            quantile_cols[q][i] = prev_q[q]

    columns: Dict[str, np.ndarray] = {
        "txn_avg_latency_ms": avg_latency,
        "txn_count_total": total,
    }
    for q in quantiles:
        columns[f"txn_p{int(q * 100)}_latency_ms"] = quantile_cols[q]
    for t in txn_types:
        columns[f"txn_count_{t}"] = type_counts[t]
    return timestamps, columns


def align_logs(
    timestamps: np.ndarray,
    sources: Mapping[str, Tuple[np.ndarray, Mapping[str, np.ndarray]]],
    interval: float = 1.0,
) -> Dict[str, np.ndarray]:
    """Align multiple sampled log sources onto a shared timestamp grid.

    ``sources`` maps a source name (used to prefix attributes) to a tuple of
    its own sample timestamps and its columns.  Each target timestamp takes
    the most recent source sample at or before ``t + interval`` (i.e. the
    value observed during the interval); leading gaps take the first sample.
    """
    aligned: Dict[str, np.ndarray] = {}
    for source_name, (src_ts, columns) in sources.items():
        src_ts = np.asarray(src_ts, dtype=np.float64)
        if src_ts.size == 0:
            raise ValueError(f"log source {source_name!r} is empty")
        order = np.argsort(src_ts)
        src_ts = src_ts[order]
        # index of the sample observed within each interval
        idx = np.searchsorted(src_ts, timestamps + interval, side="right") - 1
        idx = np.clip(idx, 0, src_ts.size - 1)
        for attr, values in columns.items():
            values = np.asarray(values)
            aligned[f"{source_name}.{attr}"] = values[order][idx]
    return aligned


@dataclass(frozen=True)
class GapReport:
    """Summary of the repairs :func:`regularize_dataset` performed.

    Attributes
    ----------
    n_expected:
        Rows the regular grid should contain.
    n_observed:
        Rows the raw dataset actually delivered (after snapping).
    n_filled:
        Missing rows repaired by forward fill.
    n_nan:
        Missing rows left as NaN (gap longer than ``max_ffill``).
    gaps:
        ``(start, end)`` timestamp pairs of every missing stretch.
    """

    n_expected: int
    n_observed: int
    n_filled: int
    n_nan: int
    gaps: Tuple[Tuple[float, float], ...]

    @property
    def n_missing(self) -> int:
        """Total missing rows (filled + NaN)."""
        return self.n_filled + self.n_nan


def regularize_dataset(
    dataset: Dataset,
    interval: float = 1.0,
    max_ffill: int = 5,
) -> Tuple[Dataset, GapReport]:
    """Re-grid a gappy dataset onto a regular timestamp grid.

    Observed rows are snapped to the nearest grid point (within half an
    interval).  Missing rows are forward-filled from the last observed row
    for runs of at most ``max_ffill``; longer runs become NaN for numeric
    attributes (categorical attributes always carry forward, since they
    have no NaN representation).  Returns the repaired dataset and a
    :class:`GapReport` describing what was done.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if max_ffill < 0:
        raise ValueError("max_ffill must be non-negative")
    ts = dataset.timestamps
    if ts.size == 0:
        return dataset, GapReport(0, 0, 0, 0, ())

    n_grid = int(round((float(ts[-1]) - float(ts[0])) / interval)) + 1
    grid = float(ts[0]) + interval * np.arange(n_grid)

    # nearest observed row per grid point, accepted within interval/2
    pos = np.searchsorted(ts, grid)
    left = np.clip(pos - 1, 0, ts.size - 1)
    right = np.clip(pos, 0, ts.size - 1)
    take_right = np.abs(ts[right] - grid) < np.abs(ts[left] - grid)
    nearest = np.where(take_right, right, left)
    observed = np.abs(ts[nearest] - grid) <= interval / 2.0

    # source row per grid point: the observed row, else the most recent
    # observed one (cummax of the observed rows' own indices)
    src = np.maximum.accumulate(np.where(observed, nearest, -1))
    run = np.arange(n_grid) - np.maximum.accumulate(
        np.where(observed, np.arange(n_grid), -1)
    )
    fillable = observed | ((src >= 0) & (run <= max_ffill))
    safe_src = np.clip(src, 0, ts.size - 1)

    numeric = {}
    for attr in dataset.numeric_attributes:
        col = dataset.column(attr)[safe_src]
        col = np.where(fillable, col, np.nan)
        numeric[attr] = col
    categorical = {}
    for attr in dataset.categorical_attributes:
        categorical[attr] = dataset.column(attr)[safe_src].copy()

    missing = ~observed
    n_filled = int((missing & fillable).sum())
    n_nan = int((missing & ~fillable).sum())
    gap_bounds: List[Tuple[float, float]] = []
    if missing.any():
        padded = np.concatenate(([False], missing, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        for s, e in zip(edges[0::2], edges[1::2] - 1):
            gap_bounds.append((float(grid[s]), float(grid[e])))
    report = GapReport(
        n_expected=n_grid,
        n_observed=int(observed.sum()),
        n_filled=n_filled,
        n_nan=n_nan,
        gaps=tuple(gap_bounds),
    )
    repaired = Dataset(
        grid, numeric=numeric, categorical=categorical, name=dataset.name
    )
    return repaired, report


class AlignedLogBuilder:
    """Incrementally assemble an aligned ``Dataset`` from raw log streams.

    Typical use::

        builder = AlignedLogBuilder(start=0.0, end=180.0)
        builder.add_transactions(records)
        builder.add_sampled("os", os_timestamps, os_columns)
        builder.add_sampled("mysql", db_timestamps, db_columns)
        dataset = builder.build(name="tpcc-run-1")
    """

    def __init__(self, start: float, end: float, interval: float = 1.0) -> None:
        if end <= start:
            raise ValueError("end must exceed start")
        self.start = float(start)
        self.end = float(end)
        self.interval = float(interval)
        n_bins = max(int(math.ceil((end - start) / interval)), 1)
        self.timestamps = self.start + self.interval * np.arange(n_bins)
        self._numeric: Dict[str, np.ndarray] = {}
        self._categorical: Dict[str, np.ndarray] = {}
        self._sources: Dict[str, Tuple[np.ndarray, Dict[str, np.ndarray]]] = {}

    def add_transactions(
        self,
        records: Sequence[TransactionRecord],
        txn_types: Optional[Sequence[str]] = None,
    ) -> None:
        """Attach transaction-aggregate columns computed from *records*."""
        _, columns = aggregate_transactions(
            records,
            self.start,
            self.end,
            interval=self.interval,
            txn_types=txn_types,
        )
        self._numeric.update(columns)

    def add_sampled(
        self,
        source_name: str,
        sample_times: Sequence[float],
        columns: Mapping[str, Sequence[float]],
    ) -> None:
        """Register a sampled numeric log source to be aligned on build."""
        self._sources[source_name] = (
            np.asarray(sample_times, dtype=np.float64),
            {a: np.asarray(v, dtype=np.float64) for a, v in columns.items()},
        )

    def add_constant_categorical(self, attr: str, value: str) -> None:
        """Attach an invariant categorical attribute (e.g. a config value)."""
        self._categorical[attr] = np.asarray(
            [value] * self.timestamps.size, dtype=object
        )

    def build(self, name: str = "") -> Dataset:
        """Align all registered sources and return the dataset."""
        numeric = dict(self._numeric)
        numeric.update(align_logs(self.timestamps, self._sources, self.interval))
        return Dataset(
            self.timestamps,
            numeric=numeric,
            categorical=self._categorical,
            name=name,
        )
