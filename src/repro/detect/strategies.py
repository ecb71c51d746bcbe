"""Pluggable anomaly-detection strategies.

All strategies consume a :class:`~repro.data.dataset.Dataset`, select
informative attributes by potential power (Equation 4), and return a
:class:`~repro.core.anomaly.DetectionResult` so callers can swap them
freely:

* :class:`DbscanDetector` — the paper's Section 7 algorithm (delegates to
  :class:`~repro.core.anomaly.AnomalyDetector`).
* :class:`RobustZScoreDetector` — flags seconds whose mean normalized
  deviation from the per-attribute median exceeds ``k`` MADs; the classic
  robust-statistics approach PerfAugur builds on.
* :class:`ThroughputDipDetector` — a domain-specific heuristic watching a
  single indicator (latency up or throughput down beyond a relative
  threshold); cheap, interpretable, blind to anything else.
* :class:`EnsembleDetector` — majority vote of member strategies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.anomaly import (
    AnomalyDetector,
    DetectionResult,
    mask_to_regions,
    smooth_masks_batch,
)
from repro.core.separation import normalize_values
from repro.data.dataset import Dataset

__all__ = [
    "BaseDetector",
    "DbscanDetector",
    "RobustZScoreDetector",
    "ThroughputDipDetector",
    "EnsembleDetector",
]


class BaseDetector:
    """Shared smoothing/selection plumbing for detection strategies."""

    def __init__(
        self,
        min_region_s: float = 5.0,
        gap_fill_s: float = 3.0,
    ) -> None:
        self.min_region_s = min_region_s
        self.gap_fill_s = gap_fill_s

    def detect(self, dataset: Dataset) -> DetectionResult:
        """Run the strategy; subclasses implement :meth:`_score_mask`."""
        mask, selected, eps = self._score_mask(dataset)
        # the Section 7 temporal smoothing, as a one-lane call
        mask = smooth_masks_batch(
            mask[None],
            dataset.timestamps[None],
            self.gap_fill_s,
            self.min_region_s,
        )[0]
        return DetectionResult(
            mask=mask,
            regions=mask_to_regions(dataset.timestamps, mask),
            selected_attributes=selected,
            eps=eps,
        )

    def _score_mask(self, dataset: Dataset):
        raise NotImplementedError


class DbscanDetector(BaseDetector):
    """The paper's Section 7 algorithm behind the strategy interface."""

    def __init__(
        self, min_region_s: float = 5.0, gap_fill_s: float = 3.0, **kwargs
    ) -> None:
        super().__init__(min_region_s=min_region_s, gap_fill_s=gap_fill_s)
        self._inner = AnomalyDetector(
            min_region_s=min_region_s, gap_fill_s=gap_fill_s, **kwargs
        )

    def detect(self, dataset: Dataset) -> DetectionResult:
        return self._inner.detect(dataset)

    def _score_mask(self, dataset: Dataset):  # pragma: no cover - unused
        raise NotImplementedError


class RobustZScoreDetector(BaseDetector):
    """Median/MAD outlier scoring across high-potential-power attributes."""

    def __init__(
        self,
        z_threshold: float = 5.0,
        pp_threshold: float = 0.3,
        window: int = 20,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.z_threshold = z_threshold
        self.pp_threshold = pp_threshold
        self.window = window

    def _score_mask(self, dataset: Dataset):
        selector = AnomalyDetector(
            window=self.window, pp_threshold=self.pp_threshold
        )
        selected = selector.select_attributes(dataset)
        n = dataset.n_rows
        if not selected or n == 0:
            return np.zeros(n, dtype=bool), [], 0.0
        scores = np.zeros(n)
        for attr in selected:
            values = normalize_values(dataset.column(attr))
            median = float(np.median(values))
            mad = float(np.median(np.abs(values - median)))
            mad = max(mad, 1e-6)
            scores += np.abs(values - median) / mad
        scores /= len(selected)
        return scores > self.z_threshold, selected, float(self.z_threshold)


class ThroughputDipDetector(BaseDetector):
    """Single-indicator heuristic: latency spikes or throughput dips.

    Flags seconds where the indicator deviates from its median by more
    than ``relative_threshold`` of the median — the check an on-call
    engineer's first dashboard alert encodes.
    """

    def __init__(
        self,
        latency_attr: str = "txn.avg_latency_ms",
        throughput_attr: str = "txn.throughput_tps",
        relative_threshold: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.latency_attr = latency_attr
        self.throughput_attr = throughput_attr
        self.relative_threshold = relative_threshold

    def _score_mask(self, dataset: Dataset):
        n = dataset.n_rows
        mask = np.zeros(n, dtype=bool)
        selected: List[str] = []
        if self.latency_attr in dataset:
            latency = np.asarray(dataset.column(self.latency_attr), float)
            median = max(float(np.median(latency)), 1e-9)
            mask |= latency > median * (1.0 + self.relative_threshold)
            selected.append(self.latency_attr)
        if self.throughput_attr in dataset:
            tps = np.asarray(dataset.column(self.throughput_attr), float)
            median = max(float(np.median(tps)), 1e-9)
            mask |= tps < median * (1.0 - self.relative_threshold)
            selected.append(self.throughput_attr)
        return mask, selected, self.relative_threshold


class EnsembleDetector(BaseDetector):
    """Majority vote across member strategies' row masks."""

    def __init__(
        self,
        members: Optional[Sequence[BaseDetector]] = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.members: List[BaseDetector] = list(
            members
            if members is not None
            else [
                DbscanDetector(),
                RobustZScoreDetector(),
                ThroughputDipDetector(),
            ]
        )
        if not self.members:
            raise ValueError("ensemble needs at least one member")

    def _score_mask(self, dataset: Dataset):
        n = dataset.n_rows
        votes = np.zeros(n, dtype=np.int64)
        selected: List[str] = []
        for member in self.members:
            result = member.detect(dataset)
            votes += result.mask
            for attr in result.selected_attributes:
                if attr not in selected:
                    selected.append(attr)
        mask = votes * 2 > len(self.members)
        return mask, selected, float(len(self.members))
