"""Reference ingest rules for the streaming-detection tests.

The per-row repairs the streaming detector applies before detection,
written as plain per-stream Python — one dict per row, one deque per
attribute — so the vectorized fleet engine has an independent reference
for them:

* a row whose timestamp does not advance is dropped (before sanitize);
* a non-finite (NaN, ±inf) or missing numeric cell takes the
  attribute's last finite value (0.0 before any);
* exact rule: a tracked attribute whose sanitized value repeated for
  ``quarantine_after`` consecutive rows is quarantined until it moves;
* variance rule (``quarantine_rel_epsilon``): a tracked attribute whose
  last ``quarantine_after`` values have ``std <= eps * max(|mean|,
  1e-12)`` is quarantined, and released by the same statistic.

:meth:`IngestOracle.window` cuts the retained repaired rows into a
:class:`~repro.data.dataset.Dataset` for the batch
:class:`~repro.core.anomaly.AnomalyDetector`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.data.dataset import Dataset


class IngestOracle:
    def __init__(
        self,
        attributes: Sequence[str],
        capacity: int,
        tracked: Optional[Sequence[str]] = None,
        quarantine_after: Optional[int] = None,
        quarantine_rel_epsilon: Optional[float] = None,
    ) -> None:
        self.attributes = list(attributes)
        self.tracked = [
            a
            for a in (self.attributes if tracked is None else tracked)
            if a in self.attributes
        ]
        self.quarantine_after = quarantine_after
        self.quarantine_rel_epsilon = quarantine_rel_epsilon
        self.times: Deque[float] = deque(maxlen=capacity)
        self.rows: Deque[Dict[str, float]] = deque(maxlen=capacity)
        self.dropped = 0
        self.sanitized = 0
        self.quarantined: Set[str] = set()
        self._last_time: Optional[float] = None
        self._last_seen: Dict[str, float] = {}
        self._prev: Dict[str, float] = {}
        self._runs: Dict[str, int] = {}
        self._recent: Dict[str, Deque[float]] = {}

    def observe(self, time: float, row: Mapping[str, float]) -> bool:
        """Repair and retain one row; ``False`` when it was dropped."""
        time = float(time)
        if self._last_time is not None and time <= self._last_time:
            self.dropped += 1
            return False
        clean = {}
        for attr in self.attributes:
            value = row.get(attr)
            if value is None or not math.isfinite(value):
                clean[attr] = self._last_seen.get(attr, 0.0)
                self.sanitized += 1
            else:
                clean[attr] = self._last_seen[attr] = float(value)
        self._last_time = time
        self.times.append(time)
        self.rows.append(clean)
        if self.quarantine_after is not None:
            for attr in self.tracked:
                self._update_quarantine(attr, clean[attr])
        return True

    def _update_quarantine(self, attr: str, value: float) -> None:
        if self.quarantine_rel_epsilon is None:
            repeated = self._prev.get(attr) == value
            run = self._runs.get(attr, 1) + 1 if repeated else 1
            self._runs[attr] = run
            self._prev[attr] = value
            stuck = run >= self.quarantine_after
            if run == 1:
                self.quarantined.discard(attr)
        else:
            recent = self._recent.setdefault(
                attr, deque(maxlen=self.quarantine_after)
            )
            recent.append(value)
            if len(recent) < self.quarantine_after:
                return
            arr = np.asarray(recent)
            scale = max(abs(float(arr.mean())), 1e-12)
            stuck = float(arr.std()) <= self.quarantine_rel_epsilon * scale
            if not stuck:
                self.quarantined.discard(attr)
        if stuck:
            self.quarantined.add(attr)

    def candidates(self) -> List[str]:
        """Tracked attributes open to selection (not quarantined)."""
        return [a for a in self.tracked if a not in self.quarantined]

    def window(self) -> Dataset:
        """The retained repaired rows, oldest first."""
        return Dataset(
            np.asarray(self.times, dtype=np.float64),
            numeric={
                a: np.asarray([row[a] for row in self.rows], dtype=np.float64)
                for a in self.attributes
            },
            name="oracle-window",
        )
