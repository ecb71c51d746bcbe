"""Accuracy metrics for explanations.

The paper evaluates predicates by precision / recall / F1 over tuples
(Figure 9): a tuple is *predicted abnormal* when it satisfies the whole
explanation conjunction, and *actually abnormal* when it lies inside the
ground-truth anomaly window.  Causal-model experiments report the margin
of confidence (correct model vs best incorrect, Figures 7/8a/11) and
top-k correct-cause ratios (Figures 8b/8c, Tables 2/4/5/7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = [
    "PredicateScores",
    "MeanScores",
    "score_predicates_mean",
    "margin_of_confidence",
    "topk_contains",
    "mean",
]


@dataclass(frozen=True)
class PredicateScores:
    """Tuple-level precision / recall / F1 of an explanation."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        """Balanced F-score (the paper's headline accuracy measure)."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


@dataclass(frozen=True)
class MeanScores:
    """Per-predicate scores averaged across an explanation's predicates."""

    precision: float
    recall: float
    f1: float


def score_predicates_mean(
    predicates, dataset: Dataset, truth: RegionSpec
) -> PredicateScores:
    """Mean per-predicate precision/recall against the ground truth.

    Figure 9's caption reads "Average precision, recall and F1-measure of
    predicates": each predicate is scored individually as a one-clause
    classifier and the scores are averaged.  This is far more robust than
    scoring the full conjunction — with dozens of noisy per-second
    predicates, the AND of all clauses misses almost every row even when
    each clause is individually accurate.
    """
    if not predicates:
        return MeanScores(precision=0.0, recall=0.0, f1=0.0)
    actual = truth.abnormal_mask(dataset)
    n_actual = float(actual.sum())
    scores = []
    for predicate in predicates:
        if predicate.attr in dataset:
            predicted = predicate.evaluate(dataset)
        else:
            predicted = np.zeros(dataset.n_rows, dtype=bool)
        tp = float((predicted & actual).sum())
        n_predicted = float(predicted.sum())
        scores.append(
            PredicateScores(
                precision=tp / n_predicted if n_predicted else 0.0,
                recall=tp / n_actual if n_actual else 0.0,
            )
        )
    return MeanScores(
        precision=float(np.mean([s.precision for s in scores])),
        recall=float(np.mean([s.recall for s in scores])),
        f1=float(np.mean([s.f1 for s in scores])),
    )


def margin_of_confidence(
    scores: Sequence[Tuple[str, float]], correct_cause: str
) -> float:
    """Correct model's confidence minus the best incorrect model's.

    Positive when the correct cause ranks first; the paper reports the
    average margin across datasets (Figures 7, 8a, 11b).
    """
    correct = None
    best_incorrect = None
    for cause, confidence in scores:
        if cause == correct_cause:
            correct = confidence
        elif best_incorrect is None or confidence > best_incorrect:
            best_incorrect = confidence
    if correct is None:
        raise ValueError(f"correct cause {correct_cause!r} not among scores")
    if best_incorrect is None:
        return correct
    return correct - best_incorrect


def topk_contains(
    scores: Sequence[Tuple[str, float]], correct_cause: str, k: int
) -> bool:
    """True when the correct cause appears among the top-k scores."""
    ranked = sorted(scores, key=lambda item: item[1], reverse=True)
    return correct_cause in [cause for cause, _ in ranked[:k]]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sequence."""
    return float(np.mean(values)) if len(values) else 0.0
