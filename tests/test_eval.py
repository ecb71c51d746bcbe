"""Unit tests for evaluation metrics and the experiment harness."""

import numpy as np
import pytest

from repro.core.causal import CausalModel
from repro.core.predicates import NumericPredicate
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec
from repro.eval.harness import (
    AnomalyDataset,
    build_merged_models,
    build_model,
    build_suite,
    rank_models,
    simulate_run,
)
from repro.core.predicates import NumericPredicate as NP
from repro.eval.metrics import (
    MeanScores,
    PredicateScores,
    margin_of_confidence,
    score_predicates_mean,
    topk_contains,
)


def step():
    values = np.asarray([1.0] * 60 + [10.0] * 30 + [1.0] * 30)
    return (
        Dataset(np.arange(120, dtype=float), numeric={"m": values}),
        RegionSpec(abnormal=[Region(60.0, 89.0)]),
    )


class TestPredicateScores:
    def test_f1_harmonic_mean(self):
        scores = PredicateScores(precision=0.5, recall=1.0)
        assert scores.f1 == pytest.approx(2 / 3)


class TestMeanScores:
    def test_mean_over_predicates(self):
        ds, spec = step()
        good = NP("m", lower=5.0)       # perfect: P=1, R=1, F1=1
        useless = NP("m", lower=100.0)  # matches nothing: 0, 0, 0
        scores = score_predicates_mean([good, useless], ds, spec)
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(0.5)
        assert scores.f1 == pytest.approx(0.5)

    def test_f1_is_mean_of_per_predicate_f1(self):
        # mean-of-F1s differs from F1-of-means; the former is reported
        ds, spec = step()
        half = NP("m", lower=0.5)  # P = 30/120, R = 1 -> F1 = 0.4
        scores = score_predicates_mean([half], ds, spec)
        assert scores.f1 == pytest.approx(0.4)

    def test_missing_attribute_counts_as_zero(self):
        ds, spec = step()
        scores = score_predicates_mean(
            [NP("m", lower=5.0), NP("ghost", lower=0.0)], ds, spec
        )
        assert scores.recall == pytest.approx(0.5)

    def test_empty_predicates(self):
        ds, spec = step()
        scores = score_predicates_mean([], ds, spec)
        assert scores == MeanScores(0.0, 0.0, 0.0)


class TestRankingMetrics:
    def scores(self):
        return [("A", 0.9), ("B", 0.5), ("C", 0.1)]

    def test_margin_when_correct_leads(self):
        assert margin_of_confidence(self.scores(), "A") == pytest.approx(0.4)

    def test_margin_negative_when_correct_trails(self):
        assert margin_of_confidence(self.scores(), "B") == pytest.approx(-0.4)

    def test_margin_single_model(self):
        assert margin_of_confidence([("A", 0.7)], "A") == pytest.approx(0.7)

    def test_margin_missing_cause_rejected(self):
        with pytest.raises(ValueError):
            margin_of_confidence(self.scores(), "Z")

    def test_topk(self):
        assert topk_contains(self.scores(), "B", 2)
        assert not topk_contains(self.scores(), "C", 2)

    def test_topk_unsorted_input(self):
        scores = [("B", 0.5), ("A", 0.9)]
        assert topk_contains(scores, "A", 1)


class TestHarness:
    def test_simulate_run_layout(self):
        ds, spec, cause = simulate_run(
            "workload_spike", duration_s=30, normal_s=60, seed=1
        )
        assert ds.n_rows == 90
        assert cause == "Workload Spike"
        region = spec.abnormal[0]
        assert region.start == 30.0 and region.end == 59.0

    def test_simulate_run_custom_start(self):
        ds, spec, _ = simulate_run(
            "workload_spike", duration_s=30, normal_s=60, start_s=10, seed=1
        )
        assert spec.abnormal[0].start == 10.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            simulate_run("workload_spike", workload="oracle")

    def test_build_suite_structure(self):
        suite = build_suite(
            durations=[30, 40], anomaly_keys=["cpu_saturation"], seed=0
        )
        assert list(suite) == ["CPU Saturation"]
        runs = suite["CPU Saturation"]
        assert [r.duration_s for r in runs] == [30, 40]
        assert all(isinstance(r, AnomalyDataset) for r in runs)

    def test_suite_seeds_unique(self):
        suite = build_suite(
            durations=[30, 40],
            anomaly_keys=["cpu_saturation", "io_saturation"],
            seed=0,
        )
        seeds = [r.seed for runs in suite.values() for r in runs]
        assert len(set(seeds)) == len(seeds)

    def test_build_model_uses_theta(self):
        ds, spec, cause = simulate_run("cpu_saturation", 30, seed=2, normal_s=60)
        run = AnomalyDataset(ds, spec, cause, "cpu_saturation", 30, 2)
        loose = build_model(run, theta=0.05)
        strict = build_model(run, theta=0.5)
        assert len(loose.predicates) >= len(strict.predicates)

    def test_rank_models_orders(self):
        ds, spec, cause = simulate_run("cpu_saturation", 30, seed=3, normal_s=60)
        good = CausalModel(
            "good", [NumericPredicate("os.cpu_usage", lower=60.0)]
        )
        bad = CausalModel(
            "bad", [NumericPredicate("os.cpu_usage", upper=60.0)]
        )
        ranked = rank_models([bad, good], ds, spec)
        assert ranked[0][0] == "good"

    def test_build_merged_models(self):
        suite = build_suite(
            durations=[30, 40, 50], anomaly_keys=["cpu_saturation"], seed=5
        )
        models = build_merged_models(
            suite, {"CPU Saturation": [0, 1]}, theta=0.05
        )
        assert len(models) == 1
        assert models[0].n_merged == 2
