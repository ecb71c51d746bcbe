"""Unit tests for the PerfXplain and PerfAugur baselines."""

import numpy as np
import pytest

from repro.baselines.perfaugur import PerfAugur, PerfAugurConfig
from repro.baselines.perfxplain import (
    HIGHER,
    LATENCY_ATTR,
    LOWER,
    PerfXplain,
    PerfXplainConfig,
    SIMILAR,
    _relation,
)
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec


def step_run(seed=0, n=160, start=80, width=40, hi=50.0):
    """Latency and a correlated metric both step up in the anomaly window."""
    rng = np.random.default_rng(seed)
    m = np.full(n, 10.0) + rng.normal(0, 0.5, n)
    m[start : start + width] = hi + rng.normal(0, 0.5, width)
    latency = np.full(n, 2.0) + rng.normal(0, 0.05, n)
    latency[start : start + width] = 8.0 + rng.normal(0, 0.2, width)
    quiet = np.full(n, 5.0) + rng.normal(0, 0.1, n)
    ds = Dataset(
        np.arange(n, dtype=float),
        numeric={"m": m, "quiet": quiet, LATENCY_ATTR: latency},
    )
    spec = RegionSpec(abnormal=[Region(float(start), float(start + width - 1))])
    return ds, spec


class TestRelation:
    def test_similar_within_half(self):
        assert _relation(12.0, 10.0, 0.5) == SIMILAR

    def test_higher_beyond_half(self):
        assert _relation(20.0, 10.0, 0.5) == HIGHER

    def test_lower(self):
        assert _relation(2.0, 10.0, 0.5) == LOWER

    def test_zero_reference_guarded(self):
        assert _relation(1.0, 0.0, 0.5) == HIGHER


class TestPerfXplain:
    def test_learns_discriminating_feature(self):
        ds, spec = step_run()
        px = PerfXplain().fit([ds], [spec], seed=0)
        assert any(f.attr == "m" and f.relation == HIGHER for f in px.features_)

    def test_latency_excluded_from_features(self):
        # PerfXplain must explain the latency difference, not restate it
        ds, spec = step_run()
        px = PerfXplain().fit([ds], [spec], seed=0)
        assert all(f.attr != LATENCY_ATTR for f in px.features_)

    def test_max_predicates_respected(self):
        ds, spec = step_run()
        px = PerfXplain(PerfXplainConfig(n_predicates=1)).fit([ds], [spec], seed=0)
        assert len(px.features_) <= 1

    def test_predict_recovers_abnormal_rows(self):
        ds, spec = step_run()
        px = PerfXplain().fit([ds], [spec], seed=0)
        predicted = px.predict(ds, seed=1)
        actual = spec.abnormal_mask(ds)
        tp = (predicted & actual).sum()
        assert tp / actual.sum() > 0.8

    def test_transfer_to_unseen_dataset(self):
        train, train_spec = step_run(seed=1)
        test, test_spec = step_run(seed=2)
        px = PerfXplain().fit([train], [train_spec], seed=0)
        predicted = px.predict(test, seed=1)
        actual = test_spec.abnormal_mask(test)
        assert (predicted & actual).sum() / actual.sum() > 0.8

    def test_misses_sub_threshold_shift(self):
        # a 20 % metric shift is below the 50 % significance cut: the
        # pairwise feature on 'm' fires only on noise extremes, so recall
        # collapses (DBSherlock's partition space has no such floor)
        ds, spec = step_run(hi=12.0)
        px = PerfXplain().fit([ds], [spec], seed=0)
        predicted = px.predict(ds, seed=1)
        actual = spec.abnormal_mask(ds)
        assert (predicted & actual).sum() / actual.sum() < 0.5

    def test_requires_latency_attribute(self):
        ds = Dataset([0.0, 1.0], numeric={"m": [1.0, 2.0]})
        spec = RegionSpec(abnormal=[Region(1.0, 1.0)])
        with pytest.raises(ValueError):
            PerfXplain().fit([ds], [spec])

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            PerfXplain().fit([], [])

    def test_unfitted_predicts_nothing(self):
        ds, _ = step_run()
        assert not PerfXplain().predict(ds).any()

    def test_explanation_string(self):
        ds, spec = step_run()
        px = PerfXplain().fit([ds], [spec], seed=0)
        assert "slow vs fast" in px.explanation()

    def test_multiple_training_datasets(self):
        d1, s1 = step_run(seed=3)
        d2, s2 = step_run(seed=4)
        px = PerfXplain().fit([d1, d2], [s1, s2], seed=0)
        assert px.features_

    def test_feature_masks_shape(self):
        ds, spec = step_run()
        px = PerfXplain().fit([ds], [spec], seed=0)
        masks = px.feature_masks(ds)
        assert len(masks) == len(px.features_)
        assert all(m.shape == (ds.n_rows,) for m in masks)

    def test_missing_attribute_mask_empty(self):
        ds, spec = step_run()
        px = PerfXplain().fit([ds], [spec], seed=0)
        used = {f.attr for f in px.features_}
        reduced = Dataset(
            ds.timestamps,
            numeric={
                a: ds.column(a) for a in ds.numeric_attributes if a not in used
            },
        )
        assert not px.predict(reduced, seed=0).any()


class TestPerfAugur:
    def latency_series(self, n=200, start=100, width=40):
        rng = np.random.default_rng(5)
        v = 5.0 + rng.normal(0, 0.3, n)
        v[start : start + width] = 25.0 + rng.normal(0, 1.0, width)
        return v

    def test_finds_shifted_interval(self):
        # PerfAugur's robust scan covers the anomaly but (with its length
        # bonus) tends to over-extend — the sloppiness Table 7 reflects.
        pa = PerfAugur()
        start, end, score = pa.best_interval(self.latency_series())
        assert 90 <= start <= 105
        assert end >= 135
        assert score > 0

    def test_detect_returns_region_spec(self):
        values = self.latency_series()
        ds = Dataset(np.arange(200, dtype=float),
                     numeric={"txn.avg_latency_ms": values})
        spec = PerfAugur().detect(ds)
        region = spec.abnormal[0]
        assert region.start <= 100 <= region.end
        assert region.end >= 135

    def test_short_series_degrades_gracefully(self):
        pa = PerfAugur(PerfAugurConfig(min_length=10))
        start, end, score = pa.best_interval(np.ones(5))
        assert (start, end) == (0, 5)

    def test_step_scan_speedup_close_enough(self):
        exact = PerfAugur(PerfAugurConfig(step=1))
        coarse = PerfAugur(PerfAugurConfig(step=5))
        series = self.latency_series()
        s1, e1, _ = exact.best_interval(series)
        s5, e5, _ = coarse.best_interval(series)
        assert abs(s1 - s5) <= 5 and abs(e1 - e5) <= 5

    def test_score_prefers_true_window(self):
        pa = PerfAugur()
        series = self.latency_series()
        true_score = pa.score_interval(series, 100, 140)
        off_score = pa.score_interval(series, 10, 50)
        assert true_score > off_score

    def test_length_bonus_configurable(self):
        series = self.latency_series()
        flat = PerfAugur(PerfAugurConfig(length_exponent=0.0))
        s, e, _ = flat.best_interval(series)
        assert e - s >= 10
