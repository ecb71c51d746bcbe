"""Evaluation harness: dataset suites, accuracy metrics, experiment protocols."""

from repro.eval.metrics import (
    MeanScores,
    PredicateScores,
    score_predicates_mean,
    margin_of_confidence,
    topk_contains,
)
from repro.eval.harness import (
    AnomalyDataset,
    build_suite,
    simulate_run,
    evaluate_single_models,
    build_merged_models,
)
from repro.eval.chaos import FaultProfile, PROFILES, run_chaos_suite

__all__ = [
    "FaultProfile",
    "PROFILES",
    "run_chaos_suite",
    "PredicateScores",
    "MeanScores",
    "score_predicates_mean",
    "margin_of_confidence",
    "topk_contains",
    "AnomalyDataset",
    "simulate_run",
    "build_suite",
    "evaluate_single_models",
    "build_merged_models",
]
