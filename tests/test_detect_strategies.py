"""Unit tests for the pluggable detection strategies."""

import numpy as np
import pytest

from repro.core.anomaly import AnomalyDetector
from repro.detect.strategies import (
    DbscanDetector,
    EnsembleDetector,
    RobustZScoreDetector,
    ThroughputDipDetector,
)
from repro.data.dataset import Dataset


def telemetry(n=400, start=200, width=50, seed=0):
    """Five stepped attributes + latency/throughput indicators."""
    rng = np.random.default_rng(seed)
    numeric = {}
    for i in range(5):
        v = np.full(n, 10.0) + rng.normal(0, 0.3, n)
        v[start : start + width] = 30.0 + rng.normal(0, 0.3, width)
        numeric[f"m{i}"] = v
    latency = np.full(n, 2.0) + rng.normal(0, 0.05, n)
    latency[start : start + width] = 8.0 + rng.normal(0, 0.2, width)
    tps = np.full(n, 900.0) + rng.normal(0, 5.0, n)
    tps[start : start + width] = 300.0 + rng.normal(0, 5.0, width)
    numeric["txn.avg_latency_ms"] = latency
    numeric["txn.throughput_tps"] = tps
    return Dataset(np.arange(n, dtype=float), numeric=numeric)


def covers_window(result, start=200, end=249, tolerance=10):
    if not result.found:
        return False
    region = max(result.regions, key=lambda r: r.duration)
    return abs(region.start - start) <= tolerance and abs(region.end - end) <= tolerance


ALL_STRATEGIES = [
    DbscanDetector,
    RobustZScoreDetector,
    ThroughputDipDetector,
    EnsembleDetector,
]


class TestAllStrategies:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_finds_step_window(self, strategy):
        result = strategy().detect(telemetry())
        assert covers_window(result), strategy.__name__

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_quiet_run_stays_quiet(self, strategy):
        rng = np.random.default_rng(3)
        n = 300
        ds = Dataset(
            np.arange(n, dtype=float),
            numeric={
                "m": 10.0 + rng.normal(0, 0.3, n),
                "txn.avg_latency_ms": 2.0 + rng.normal(0, 0.05, n),
                "txn.throughput_tps": 900.0 + rng.normal(0, 5.0, n),
            },
        )
        result = strategy().detect(ds)
        flagged = result.mask.sum()
        assert flagged < n * 0.2, strategy.__name__

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_mask_matches_regions(self, strategy):
        ds = telemetry()
        result = strategy().detect(ds)
        rebuilt = np.zeros(ds.n_rows, dtype=bool)
        for region in result.regions:
            rebuilt |= region.contains(ds.timestamps)
        assert np.array_equal(rebuilt, result.mask)


class TestDbscanDetector:
    def test_smoothing_follows_the_given_values(self):
        # a 2 s dip back to normal inside the anomaly and a 3 s sliver
        # after it: the default smoothing (5 s / 3 s) bridges the dip and
        # drops the sliver, 2 s / 0 s keeps both
        ds = telemetry()
        quiet = telemetry(seed=1)
        numeric = {}
        for attr in ds.numeric_attributes:
            values = ds.column(attr).copy()
            values[220:222] = quiet.column(attr)[100:102]
            values[300:303] = values[230:233]
            numeric[attr] = values
        ds = Dataset(ds.timestamps, numeric=numeric)
        detector = DbscanDetector(min_region_s=2.0, gap_fill_s=0.0)
        assert (detector.min_region_s, detector.gap_fill_s) == (2.0, 0.0)
        got = detector.detect(ds)
        want = AnomalyDetector(min_region_s=2.0, gap_fill_s=0.0).detect(ds)
        assert np.array_equal(got.mask, want.mask)
        assert got.regions == want.regions
        assert got.selected_attributes == want.selected_attributes
        assert got.eps == want.eps
        assert len(got.regions) == 3
        assert got.regions != AnomalyDetector().detect(ds).regions


class TestRobustZScore:
    def test_threshold_controls_sensitivity(self):
        ds = telemetry()
        loose = RobustZScoreDetector(z_threshold=3.0).detect(ds)
        strict = RobustZScoreDetector(z_threshold=500.0).detect(ds)
        assert loose.mask.sum() >= strict.mask.sum()

    def test_no_informative_attributes(self):
        n = 100
        ds = Dataset(np.arange(n, dtype=float), numeric={"flat": np.ones(n)})
        result = RobustZScoreDetector().detect(ds)
        assert not result.found


class TestThroughputDip:
    def test_latency_only_dataset(self):
        rng = np.random.default_rng(1)
        n = 300
        latency = np.full(n, 2.0) + rng.normal(0, 0.05, n)
        latency[150:200] = 8.0
        ds = Dataset(np.arange(n, dtype=float),
                     numeric={"txn.avg_latency_ms": latency})
        result = ThroughputDipDetector().detect(ds)
        assert covers_window(result, 150, 199)

    def test_missing_indicators_no_detection(self):
        n = 100
        ds = Dataset(np.arange(n, dtype=float), numeric={"m": np.ones(n)})
        result = ThroughputDipDetector().detect(ds)
        assert not result.found

    def test_blind_to_non_indicator_shifts(self):
        # a pure cache-metric shift without a latency/throughput change
        rng = np.random.default_rng(2)
        n = 300
        m = np.full(n, 5.0) + rng.normal(0, 0.1, n)
        m[150:200] = 25.0
        ds = Dataset(
            np.arange(n, dtype=float),
            numeric={
                "m": m,
                "txn.avg_latency_ms": np.full(n, 2.0),
                "txn.throughput_tps": np.full(n, 900.0),
            },
        )
        result = ThroughputDipDetector().detect(ds)
        assert not result.found


class TestEnsemble:
    def test_majority_required(self):
        # two blind members outvote one seeing member
        seeing = RobustZScoreDetector()
        blind = ThroughputDipDetector(
            latency_attr="nope", throughput_attr="nope2"
        )
        ds = telemetry()
        ensemble = EnsembleDetector(members=[seeing, blind, blind])
        result = ensemble.detect(ds)
        assert result.mask.sum() == 0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            EnsembleDetector(members=[])

    def test_selected_attributes_union(self):
        ds = telemetry()
        result = EnsembleDetector().detect(ds)
        assert "txn.avg_latency_ms" in result.selected_attributes


class TestFacadeIntegration:
    def test_strategies_plug_into_dbsherlock(self):
        """Any strategy drops into the DBSherlock facade as the detector."""
        from repro.core.explain import DBSherlock

        ds = telemetry()
        sherlock = DBSherlock(detector=RobustZScoreDetector())
        explanation = sherlock.explain(ds)  # no spec: auto-detect path
        assert len(explanation.predicates) > 0

    def test_ensemble_plugs_into_dbsherlock(self):
        from repro.core.explain import DBSherlock

        ds = telemetry()
        sherlock = DBSherlock(detector=EnsembleDetector())
        detection = sherlock.detect(ds)
        assert detection.found
