"""Unit tests for workload specs, mixes, and the closed-loop client pool."""

import numpy as np
import pytest

from repro.workload.client import TerminalPool
from repro.workload.spec import TransactionType, WorkloadSpec
from repro.workload.tpcc import TPCC_TYPES, tpcc_workload
from repro.workload.tpce import TPCE_TYPES, tpce_workload


def _read_fraction(spec):
    """Mix-weighted share of read-only transactions."""
    return sum(w for w, t in zip(spec.weights, spec.types) if t.read_only)


class TestTransactionType:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TransactionType("t", weight=-1.0, cpu_ms=1.0, logical_reads=1.0)

    def test_dml_fractions_capped(self):
        with pytest.raises(ValueError):
            TransactionType(
                "t", weight=1.0, cpu_ms=1.0, logical_reads=1.0,
                insert_fraction=0.6, update_fraction=0.6,
            )


class TestWorkloadSpec:
    def test_weights_normalized(self):
        spec = tpcc_workload()
        assert spec.weights.sum() == pytest.approx(1.0)

    def test_mix_average(self):
        types = [
            TransactionType("a", weight=1.0, cpu_ms=2.0, logical_reads=10.0),
            TransactionType("b", weight=1.0, cpu_ms=4.0, logical_reads=20.0),
        ]
        spec = WorkloadSpec(name="w", types=types)
        assert spec.mix_average("cpu_ms") == pytest.approx(3.0)
        assert spec.mix_average("logical_reads") == pytest.approx(15.0)

    def test_empty_types_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", types=[])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                name="w",
                types=[TransactionType("a", weight=0.0, cpu_ms=1.0,
                                       logical_reads=1.0)],
            )

    def test_type_names_order(self):
        assert tpcc_workload().type_names[0] == "NewOrder"


class TestTpccMix:
    def test_five_types(self):
        assert len(TPCC_TYPES) == 5

    def test_canonical_mix_weights(self):
        spec = tpcc_workload()
        by_name = dict(zip(spec.type_names, spec.weights))
        assert by_name["NewOrder"] == pytest.approx(0.45)
        assert by_name["Payment"] == pytest.approx(0.43)

    def test_write_heavy(self):
        assert _read_fraction(tpcc_workload()) < 0.15


class TestTpceMix:
    def test_ten_types(self):
        assert len(TPCE_TYPES) == 10

    def test_read_intensive(self):
        # TPC-E is far more read-heavy than TPC-C (Chen et al. 2011)
        assert _read_fraction(tpce_workload()) > 0.70

    def test_write_surface_smaller_than_tpcc(self):
        tpcc, tpce = tpcc_workload(), tpce_workload()
        assert tpce.mix_average("write_rows") < tpcc.mix_average("write_rows")
        assert tpce.mix_average("lock_rows") < tpcc.mix_average("lock_rows")


class TestTerminalPool:
    def test_open_arrival_cap(self):
        pool = TerminalPool(n_terminals=1000, think_time_s=0.001, target_rate=500.0)
        assert pool.offered_tps(latency_s=0.0) == 500.0

    def test_closed_loop_limits_under_latency(self):
        pool = TerminalPool(n_terminals=100, think_time_s=0.05, target_rate=1e9)
        fast = pool.offered_tps(latency_s=0.001)
        slow = pool.offered_tps(latency_s=0.5)
        assert slow < fast
        assert slow == pytest.approx(100 / 0.55)

    def test_network_delay_masks_spike(self):
        # the Section 8.7 phenomenon: extra latency throttles offered load
        pool = TerminalPool(n_terminals=256, think_time_s=0.05, target_rate=3600.0)
        congested = pool.offered_tps(latency_s=0.305)
        assert congested < 1000.0

    def test_concurrency_littles_law(self):
        pool = TerminalPool(n_terminals=100, think_time_s=0.05, target_rate=1e9)
        latency = 0.01
        assert pool.concurrency(latency) == pytest.approx(
            pool.offered_tps(latency) * latency
        )
