"""Unit tests for the OLTP server simulator substrate."""

import numpy as np
import pytest

from repro.engine.locks import LockModel
from repro.engine.metrics import MetricCatalog
from repro.engine.resources import ServerConfig, mm1_latency_factor
from repro.engine.server import DatabaseServer, TickModifiers
from repro.workload.tpcc import tpcc_workload


def tick(server=None, modifiers=TickModifiers(), seed=0, t=0.0):
    server = server or DatabaseServer(tpcc_workload())
    return server.tick(t, modifiers, np.random.default_rng(seed))


class TestQueueing:
    def test_idle_factor_is_one(self):
        assert mm1_latency_factor(0.0) == 1.0

    def test_half_utilisation_doubles(self):
        assert mm1_latency_factor(0.5) == pytest.approx(2.0)

    def test_saturation_capped(self):
        assert mm1_latency_factor(5.0) == pytest.approx(1.0 / 0.03)

    def test_monotone(self):
        factors = [mm1_latency_factor(u) for u in (0.1, 0.5, 0.9)]
        assert factors == sorted(factors)


class TestServerConfig:
    def test_buffer_pool_size(self):
        cfg = ServerConfig(buffer_pool_pages=1024, page_size_kb=16.0)
        assert cfg.buffer_pool_mb == 16.0

    def test_miss_rate_grows_with_scale(self):
        cfg = ServerConfig()
        assert cfg.base_miss_rate(2000.0) > cfg.base_miss_rate(100.0)

    def test_miss_rate_bounded(self):
        assert ServerConfig().base_miss_rate(1e9) <= 0.25


class TestLockModel:
    def test_uniform_access_low_conflict(self):
        model = LockModel(scale_factor=500.0, hot_fraction=1.0)
        assert model.conflict_probability(10.0, 10.0) < 0.001

    def test_hot_spot_high_conflict(self):
        model = LockModel(scale_factor=500.0, hot_fraction=2.5e-5)
        assert model.conflict_probability(20.0, 10.0) > 0.9

    def test_wait_time_grows_with_skew(self):
        uniform = LockModel(500.0, 1.0).wait_time_ms(900.0, 5.0, 8.0, 2.0)
        skewed = LockModel(500.0, 2e-6).wait_time_ms(900.0, 5.0, 8.0, 2.0)
        assert skewed > uniform * 100

    def test_hot_row_utilisation(self):
        model = LockModel(scale_factor=1.0, hot_fraction=1.0)  # 1000 keys
        rho = model.hot_row_utilisation(tps=100.0, lock_rows=10.0,
                                        holding_time_ms=10.0)
        assert rho == pytest.approx(0.01)

    def test_zero_concurrency_no_conflict(self):
        model = LockModel(500.0, 1.0)
        assert model.conflict_probability(1.0, 10.0) == 0.0


class TestServerTick:
    def test_steady_state_is_reasonable(self):
        state = tick()
        assert 500 < state.completed_tps <= 900
        assert 0.5 < state.avg_latency_ms < 20.0
        assert 0.0 < state.cpu_util < 0.5

    def test_txn_counts_sum_to_throughput(self):
        state = tick()
        assert sum(state.txn_counts.values()) == pytest.approx(
            round(state.completed_tps), abs=1.0
        )

    def test_deterministic_given_seed(self):
        s1, s2 = tick(seed=5), tick(seed=5)
        assert s1.completed_tps == s2.completed_tps
        assert s1.txn_counts == s2.txn_counts

    def test_external_cpu_raises_latency(self):
        base = tick()
        stressed = tick(modifiers=TickModifiers(external_cpu_cores=3.8))
        assert stressed.avg_latency_ms > base.avg_latency_ms * 2
        assert stressed.cpu_util > 0.9
        # the DBMS's own CPU does not rise (the CPU-saturation signature)
        assert stressed.db_cpu_cores <= base.db_cpu_cores * 1.2

    def test_io_saturation_raises_iowait(self):
        base = tick()
        stressed = tick(modifiers=TickModifiers(external_disk_ops=2300.0))
        assert stressed.disk_util > 0.9
        assert stressed.cpu_iowait_frac > base.cpu_iowait_frac * 2

    def test_network_delay_throttles_throughput(self):
        base = tick()
        congested = tick(modifiers=TickModifiers(network_delay_ms=300.0))
        assert congested.completed_tps < base.completed_tps * 0.6
        assert congested.avg_latency_ms > 250.0
        assert congested.net_send_mb < base.net_send_mb

    def test_workload_spike_raises_concurrency(self):
        base = tick()
        spiked = tick(
            modifiers=TickModifiers(tps_multiplier=5.0, added_terminals=128)
        )
        assert spiked.completed_tps > base.completed_tps * 2
        assert spiked.concurrency > base.concurrency * 2
        assert spiked.lock_waits > base.lock_waits

    def test_lock_hotspot_explodes_lock_waits(self):
        base = tick()
        contended = tick(
            modifiers=TickModifiers(hot_fraction_override=2e-6)
        )
        assert contended.lock_wait_ms_per_txn > base.lock_wait_ms_per_txn * 50
        assert contended.avg_latency_ms > base.avg_latency_ms * 3

    def test_backup_stream_hits_disk_and_network(self):
        base = tick()
        backup = tick(modifiers=TickModifiers(dump_read_mb=85.0, dump_net_mb=30.0))
        assert backup.disk_read_mb > base.disk_read_mb + 50.0
        assert backup.net_send_mb > base.net_send_mb + 20.0

    def test_bulk_insert_hits_log_and_inserts(self):
        base = tick()
        restore = tick(modifiers=TickModifiers(bulk_insert_rows=22000.0))
        assert restore.rows_inserted > base.rows_inserted + 10000.0
        assert restore.log_writes > base.log_writes * 2

    def test_flush_storm_spikes_flushes(self):
        base = tick()
        flushed = tick(modifiers=TickModifiers(flush_pages=3200.0))
        assert flushed.pages_flushed > base.pages_flushed + 2000.0

    def test_scan_stream_raises_db_cpu(self):
        base = tick()
        scanning = tick(
            modifiers=TickModifiers(scan_cpu_cores=1.6, scan_rows_per_s=2.5e6)
        )
        assert scanning.db_cpu_cores > base.db_cpu_cores + 1.0
        assert scanning.scan_rows == pytest.approx(2.5e6)

    def test_dirty_backlog_accumulates_under_write_pressure(self):
        server = DatabaseServer(tpcc_workload())
        rng = np.random.default_rng(0)
        heavy = TickModifiers(bulk_insert_rows=60000.0)
        first = server.tick(0.0, heavy, rng)
        for t in range(1, 6):
            state = server.tick(float(t), heavy, rng)
        assert state.dirty_pages > first.dirty_pages


class TestModifierCombination:
    def test_additive_fields_sum(self):
        combined = TickModifiers(external_cpu_cores=1.0).combine(
            TickModifiers(external_cpu_cores=2.0)
        )
        assert combined.external_cpu_cores == 3.0

    def test_multiplicative_fields_multiply(self):
        combined = TickModifiers(tps_multiplier=2.0).combine(
            TickModifiers(tps_multiplier=3.0)
        )
        assert combined.tps_multiplier == 6.0

    def test_hot_fraction_takes_minimum(self):
        combined = TickModifiers(hot_fraction_override=0.5).combine(
            TickModifiers(hot_fraction_override=0.1)
        )
        assert combined.hot_fraction_override == 0.1

    def test_none_hot_fraction_passthrough(self):
        combined = TickModifiers().combine(
            TickModifiers(hot_fraction_override=0.2)
        )
        assert combined.hot_fraction_override == 0.2

    def test_identity_combination(self):
        base = TickModifiers(network_delay_ms=300.0)
        assert base.combine(TickModifiers()) == base


class TestMetricCatalog:
    def catalog(self):
        return MetricCatalog(tpcc_workload().type_names)

    def test_catalogue_size(self):
        # the paper cites MySQL's 260+ statistics; we model well over 100
        assert len(self.catalog().numeric_names) >= 120

    def test_no_duplicate_names(self):
        names = self.catalog().numeric_names
        assert len(names) == len(set(names))

    def test_emission_covers_catalogue(self):
        catalog = self.catalog()
        state = tick()
        row = catalog.emit_numeric(state, np.random.default_rng(0))
        assert set(row) == set(catalog.numeric_names)

    def test_counters_non_negative(self):
        catalog = self.catalog()
        state = tick()
        row = catalog.emit_numeric(state, np.random.default_rng(0))
        assert all(v >= 0 for v in row.values())

    def test_categoricals_include_invariants(self):
        catalog = self.catalog()
        cats = catalog.emit_categorical(tick())
        assert cats["mysql.version"] == "5.6.20"
        assert cats["workload.dominant_txn"] in tpcc_workload().type_names

    def test_noise_scale_zero_is_deterministic(self):
        catalog = MetricCatalog(tpcc_workload().type_names, noise_scale=0.0)
        state = tick()
        r1 = catalog.emit_numeric(state, np.random.default_rng(1))
        r2 = catalog.emit_numeric(state, np.random.default_rng(2))
        assert r1 == r2

    def test_cpu_usage_tracks_state(self):
        catalog = MetricCatalog(tpcc_workload().type_names, noise_scale=0.0)
        state = tick(modifiers=TickModifiers(external_cpu_cores=3.8))
        row = catalog.emit_numeric(state, np.random.default_rng(0))
        assert row["os.cpu_usage"] > 90.0
