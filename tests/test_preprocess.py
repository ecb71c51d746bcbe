"""Unit tests for log preprocessing: aggregation and alignment (Section 2.1)."""

import numpy as np
import pytest

from repro.data.preprocess import (
    AlignedLogBuilder,
    TransactionRecord,
    aggregate_transactions,
    align_logs,
)


def records():
    return [
        TransactionRecord(0.2, 10.0, "A"),
        TransactionRecord(0.7, 20.0, "B"),
        TransactionRecord(1.5, 30.0, "A"),
        TransactionRecord(3.1, 40.0, "A"),
    ]


class TestAggregateTransactions:
    def test_interval_counts(self):
        ts, cols = aggregate_transactions(records(), 0.0, 4.0)
        assert list(cols["txn_count_total"]) == [2, 1, 0, 1]

    def test_per_type_counts(self):
        ts, cols = aggregate_transactions(records(), 0.0, 4.0)
        assert list(cols["txn_count_A"]) == [1, 1, 0, 1]
        assert list(cols["txn_count_B"]) == [1, 0, 0, 0]

    def test_average_latency(self):
        ts, cols = aggregate_transactions(records(), 0.0, 4.0)
        assert cols["txn_avg_latency_ms"][0] == pytest.approx(15.0)

    def test_gap_carries_previous_latency(self):
        ts, cols = aggregate_transactions(records(), 0.0, 4.0)
        # interval 2 has no transactions: it repeats interval 1's latency
        assert cols["txn_avg_latency_ms"][2] == cols["txn_avg_latency_ms"][1]

    def test_leading_gap_is_zero(self):
        ts, cols = aggregate_transactions(
            [TransactionRecord(2.5, 10.0)], 0.0, 4.0
        )
        assert cols["txn_avg_latency_ms"][0] == 0.0

    def test_quantile_columns(self):
        ts, cols = aggregate_transactions(records(), 0.0, 4.0, quantiles=(0.5,))
        assert "txn_p50_latency_ms" in cols

    def test_out_of_range_records_ignored(self):
        ts, cols = aggregate_transactions(
            [TransactionRecord(99.0, 1.0)], 0.0, 4.0
        )
        assert cols["txn_count_total"].sum() == 0

    def test_explicit_type_list(self):
        ts, cols = aggregate_transactions(
            records(), 0.0, 4.0, txn_types=["A", "C"]
        )
        assert "txn_count_C" in cols and "txn_count_B" not in cols

    def test_timestamps_grid(self):
        ts, _ = aggregate_transactions(records(), 0.0, 4.0)
        assert list(ts) == [0.0, 1.0, 2.0, 3.0]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            aggregate_transactions(records(), 0.0, 4.0, interval=0.0)


class TestAlignLogs:
    def test_takes_sample_within_interval(self):
        target = np.asarray([0.0, 1.0, 2.0])
        aligned = align_logs(
            target,
            {"os": (np.asarray([0.4, 1.4, 2.4]), {"cpu": np.asarray([1.0, 2.0, 3.0])})},
        )
        assert list(aligned["os.cpu"]) == [1.0, 2.0, 3.0]

    def test_leading_gap_takes_first_sample(self):
        target = np.asarray([0.0, 1.0])
        aligned = align_logs(
            target, {"s": (np.asarray([5.0]), {"v": np.asarray([42.0])})}
        )
        assert list(aligned["s.v"]) == [42.0, 42.0]

    def test_unsorted_source_sorted(self):
        target = np.asarray([0.0, 1.0])
        aligned = align_logs(
            target,
            {"s": (np.asarray([1.2, 0.2]), {"v": np.asarray([20.0, 10.0])})},
        )
        assert list(aligned["s.v"]) == [10.0, 20.0]

    def test_prefixes_source_name(self):
        aligned = align_logs(
            np.asarray([0.0]), {"db": (np.asarray([0.0]), {"x": np.asarray([1.0])})}
        )
        assert "db.x" in aligned

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            align_logs(np.asarray([0.0]), {"s": (np.asarray([]), {"v": np.asarray([])})})


class TestAlignedLogBuilder:
    def test_build_combines_sources(self):
        builder = AlignedLogBuilder(0.0, 5.0)
        builder.add_transactions([TransactionRecord(1.0, 5.0, "A")],
                                 txn_types=["A"])
        builder.add_sampled("os", [0.5, 2.5, 4.5], {"cpu": [1.0, 2.0, 3.0]})
        builder.add_constant_categorical("ver", "5.6")
        ds = builder.build(name="demo")
        assert ds.n_rows == 5
        assert "os.cpu" in ds.numeric_attributes
        assert "txn_count_A" in ds.numeric_attributes
        assert set(ds.column("ver")) == {"5.6"}

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            AlignedLogBuilder(5.0, 5.0)
