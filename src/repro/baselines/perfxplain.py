"""PerfXplain baseline (Khoussainova et al., PVLDB 2012), adapted per §8.4.

PerfXplain explains *pairs* of MapReduce jobs: the user states an EXPECTED
relation and an OBSERVED one, and the tool learns a conjunction of
pairwise feature predicates maximising a weighted precision/recall score.
The paper re-implements it over pairs of telemetry tuples with the query::

    EXPECTED avg_latency_difference = insignificant
    OBSERVED avg_latency_difference = significant

where two latencies differ *significantly* when the gap is at least 50 %
of the smaller value, using 2 000 sampled pairs, a scoring weight of 0.8,
and (the best-performing) 2 predicates.

Faithful to that construction, this implementation works on random tuple
pairs rather than a curated normal reference:

* **fit** samples 2 000 random pairs of input tuples; a pair is a positive
  example when its latency difference is significant.  Pair features
  compare each attribute between the *slower* and the *faster* tuple of
  the pair (``higher`` / ``similar`` / ``lower`` with the same 50 % cut).
  A greedy search grows the best conjunction of at most ``n_predicates``
  features under ``w · precision + (1 − w) · recall``.
* **predict** classifies a test tuple by pairing it against ``n_probes``
  random tuples of the test dataset itself (PerfXplain has no notion of a
  ground-truth normal region) and majority-voting the learned conjunction
  with the test tuple on the slow side.

The pair sampling is exactly what limits PerfXplain here (Figure 9):
abnormal-abnormal pairs have insignificant latency differences and teach
it nothing, and attribute shifts below the 50 % significance cut are
invisible to its coarse pairwise features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = ["PerfXplain", "PerfXplainConfig", "PairFeature"]

HIGHER = "higher"
SIMILAR = "similar"
LOWER = "lower"

LATENCY_ATTR = "txn.avg_latency_ms"


@dataclass(frozen=True)
class PairFeature:
    """One pairwise predicate: the slow tuple's attribute vs the fast one's."""

    attr: str
    relation: str  # HIGHER / SIMILAR / LOWER

    def __str__(self) -> str:
        return f"{self.attr} {self.relation} (slow vs fast)"


@dataclass(frozen=True)
class PerfXplainConfig:
    """The §8.4 PerfXplain settings.

    Attributes
    ----------
    n_samples:
        Training pairs sampled (paper: 2 000).
    weight:
        Scoring weight ``w`` on precision (paper: 0.8).
    n_predicates:
        Conjunction size (paper varied 1-10 and chose 2).
    significance:
        Relative difference below which two values are *similar* (50 %).
    n_probes:
        Random peers each test tuple is paired with at prediction time.
    """

    n_samples: int = 2000
    weight: float = 0.8
    n_predicates: int = 2
    significance: float = 0.5
    n_probes: int = 15


def _relation(value: float, reference: float, significance: float) -> str:
    """Discretize the relative difference between two paired values."""
    smaller = min(abs(value), abs(reference))
    gap = abs(value - reference)
    if gap < significance * max(smaller, 1e-9):
        return SIMILAR
    return HIGHER if value > reference else LOWER


class PerfXplain:
    """Pairwise decision-list explanations over telemetry tuples."""

    def __init__(self, config: Optional[PerfXplainConfig] = None) -> None:
        self.config = config or PerfXplainConfig()
        self.features_: List[PairFeature] = []
        self._attrs: List[str] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        datasets: Sequence[Dataset],
        specs: Sequence[RegionSpec],
        seed: Optional[int] = None,
    ) -> "PerfXplain":
        """Learn an explanation from random tuple pairs of the datasets.

        ``specs`` select the rows PerfXplain may sample from (tuples in
        either region, matching the input DBSherlock receives); the region
        labels themselves are never shown to PerfXplain — it learns purely
        from the latency-difference query.
        """
        if len(datasets) != len(specs) or not datasets:
            raise ValueError("datasets and specs must be equal-length, non-empty")
        if LATENCY_ATTR not in datasets[0]:
            raise ValueError(f"datasets must carry {LATENCY_ATTR!r}")
        rng = np.random.default_rng(seed)
        self._attrs = [
            a for a in datasets[0].numeric_attributes if a != LATENCY_ATTR
        ]

        per_dataset = max(self.config.n_samples // len(datasets), 1)
        feature_rows: List[Dict[str, str]] = []
        labels: List[bool] = []
        for dataset, spec in zip(datasets, specs):
            rows = np.flatnonzero(
                spec.abnormal_mask(dataset) | spec.normal_mask(dataset)
            )
            if rows.size < 2:
                continue
            latency = dataset.column(LATENCY_ATTR)
            for _ in range(per_dataset):
                i, j = rng.choice(rows, size=2, replace=False)
                # orient the pair: slow tuple first
                if latency[i] < latency[j]:
                    i, j = j, i
                significant = _relation(
                    float(latency[i]), float(latency[j]),
                    self.config.significance,
                ) != SIMILAR
                feats = {
                    attr: _relation(
                        float(dataset.column(attr)[i]),
                        float(dataset.column(attr)[j]),
                        self.config.significance,
                    )
                    for attr in self._attrs
                }
                feature_rows.append(feats)
                labels.append(significant)

        label_arr = np.asarray(labels, dtype=bool)
        self.features_ = self._greedy_search(feature_rows, label_arr)
        return self

    # ------------------------------------------------------------------
    def _score(self, predicted: np.ndarray, actual: np.ndarray) -> float:
        """``w · precision + (1 − w) · recall`` (the paper's scoring weight)."""
        tp = float((predicted & actual).sum())
        precision = tp / predicted.sum() if predicted.any() else 0.0
        recall = tp / actual.sum() if actual.any() else 0.0
        w = self.config.weight
        return w * precision + (1.0 - w) * recall

    def _greedy_search(
        self, rows: List[Dict[str, str]], labels: np.ndarray
    ) -> List[PairFeature]:
        """Grow the best conjunction of pair features, one at a time."""
        candidates = [
            PairFeature(attr, relation)
            for attr in self._attrs
            for relation in (HIGHER, LOWER)
        ]
        matches = {
            feature: np.asarray(
                [row[feature.attr] == feature.relation for row in rows],
                dtype=bool,
            )
            for feature in candidates
        }
        chosen: List[PairFeature] = []
        current = np.ones(len(rows), dtype=bool)
        current_score = -1.0
        for _ in range(self.config.n_predicates):
            best_feature = None
            best_mask = None
            best_score = current_score
            for feature in candidates:
                if any(feature.attr == c.attr for c in chosen):
                    continue
                mask = current & matches[feature]
                score = self._score(mask, labels)
                if score > best_score:
                    best_feature, best_mask, best_score = feature, mask, score
            if best_feature is None:
                break
            chosen.append(best_feature)
            current = best_mask
            current_score = best_score
        return chosen

    def predict(
        self, dataset: Dataset, seed: Optional[int] = None
    ) -> np.ndarray:
        """Classify tuples by majority vote over random-peer pairings."""
        if not self.features_:
            return np.zeros(dataset.n_rows, dtype=bool)
        rng = np.random.default_rng(seed)
        masks = self.feature_masks(dataset, rng)
        combined = np.ones(dataset.n_rows, dtype=bool)
        for mask in masks:
            combined &= mask
        return combined

    def feature_masks(
        self,
        dataset: Dataset,
        rng: Optional[np.random.Generator] = None,
    ) -> List[np.ndarray]:
        """Per-feature row masks via random-peer majority vote (Figure 9)."""
        rng = rng or np.random.default_rng(0)
        n = dataset.n_rows
        n_probes = min(self.config.n_probes, max(n - 1, 1))
        peers = rng.integers(0, n, size=(n, n_probes))
        masks: List[np.ndarray] = []
        for feature in self.features_:
            if feature.attr not in dataset:
                masks.append(np.zeros(n, dtype=bool))
                continue
            values = np.asarray(dataset.column(feature.attr), dtype=float)
            votes = np.zeros(n, dtype=np.int64)
            for p in range(n_probes):
                peer_vals = values[peers[:, p]]
                smaller = np.minimum(np.abs(values), np.abs(peer_vals))
                gap = np.abs(values - peer_vals)
                similar = gap < self.config.significance * np.maximum(
                    smaller, 1e-9
                )
                if feature.relation == SIMILAR:
                    votes += similar
                elif feature.relation == HIGHER:
                    votes += (~similar) & (values > peer_vals)
                else:
                    votes += (~similar) & (values < peer_vals)
            masks.append(votes * 2 > n_probes)
        return masks

    def explanation(self) -> str:
        """Human-readable rendering of the learned conjunction."""
        return " ∧ ".join(str(f) for f in self.features_) or "(empty)"
