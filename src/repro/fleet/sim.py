"""Synthetic fleet tick sources for benchmarks and smoke tests.

The telemetry collector (:mod:`repro.engine.collector`) simulates one
tenant at a time with per-row Python work; at 10 000 tenants that
dominates any benchmark of the fleet engine itself.
:class:`FleetSimSource` instead draws each round's ``(times, values,
active)`` batch with whole-fleet numpy calls: a per-stream baseline plus
Gaussian noise, square-wave anomaly bursts on a configurable subset of
streams (scaled spikes on a couple of attributes — enough to push
Equation 4 over any reasonable threshold), and optional chaos in the
shape the fleet engine must tolerate — missing rows, NaN cells,
non-monotone (replayed) timestamps, and stuck-at-constant attributes.

Determinism: one :class:`numpy.random.Generator` seeded from
``np.random.SeedSequence(seed)`` drives everything, so a source with the
same parameters replays the same fleet history — which is what lets the
equivalence tests feed identical rows to the fleet engine and to its
per-stream references.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FleetSimSource"]


class FleetSimSource:
    """Deterministic ``(times, values, active)`` batches for a fleet.

    Parameters
    ----------
    n_streams / attributes:
        Fleet shape; every stream shares the attribute schema.
    interval_s:
        Nominal tick spacing (timestamps are ``(tick + 1) * interval_s``
        plus optional jitter).
    anomaly_fraction:
        Fraction of streams that carry periodic anomaly bursts.
    anomaly_period / anomaly_duration:
        Burst cadence in ticks: every *period* ticks an anomalous stream
        spikes for *duration* ticks.
    anomaly_scale:
        Burst amplitude as a multiple of the baseline spread.
    drop_rate / nan_rate:
        Chaos knobs: probability a present row is replayed with a stale
        timestamp (exercising the non-monotone drop path) and the
        per-cell NaN probability (exercising sanitize).
    absent_rate:
        Probability a stream simply has no row this round (partial
        ``active`` masks).
    stuck_streams / stuck_attr:
        Streams whose *stuck_attr* column is frozen at a constant
        (exercising stuck-at quarantine).
    """

    def __init__(
        self,
        n_streams: int,
        attributes: Sequence[str],
        interval_s: float = 1.0,
        seed: int = 0,
        anomaly_fraction: float = 0.05,
        anomaly_period: int = 40,
        anomaly_duration: int = 6,
        anomaly_scale: float = 8.0,
        drop_rate: float = 0.0,
        nan_rate: float = 0.0,
        absent_rate: float = 0.0,
        stuck_streams: Optional[Sequence[int]] = None,
        stuck_attr: Optional[str] = None,
    ) -> None:
        self.n_streams = int(n_streams)
        self.attributes = list(attributes)
        self.interval_s = float(interval_s)
        self.anomaly_period = int(anomaly_period)
        self.anomaly_duration = int(anomaly_duration)
        self.anomaly_scale = float(anomaly_scale)
        self.drop_rate = float(drop_rate)
        self.nan_rate = float(nan_rate)
        self.absent_rate = float(absent_rate)
        S, A = self.n_streams, len(self.attributes)
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        # Per-stream per-attribute baselines and spreads, fixed at
        # construction so replays match.
        self._base = self._rng.uniform(10.0, 100.0, size=(S, A))
        self._spread = self._rng.uniform(0.5, 3.0, size=(S, A))
        n_anom = int(round(S * float(anomaly_fraction)))
        self.anomalous = np.zeros(S, dtype=bool)
        if n_anom:
            picks = self._rng.choice(S, size=n_anom, replace=False)
            self.anomalous[picks] = True
        self._stuck = np.zeros(S, dtype=bool)
        if stuck_streams is not None:
            self._stuck[np.asarray(list(stuck_streams), dtype=np.int64)] = (
                True
            )
        self._stuck_ai = (
            self.attributes.index(stuck_attr)
            if stuck_attr is not None
            else None
        )
        self._tick = 0

    def batch(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw the next fleet round."""
        S, A = self.n_streams, len(self.attributes)
        t = self._tick
        self._tick += 1
        times = np.full(S, (t + 1) * self.interval_s)
        values = self._base + self._rng.standard_normal((S, A)) * self._spread
        if self.anomaly_period > 0:
            in_burst = (t % self.anomaly_period) < self.anomaly_duration
            if in_burst and t >= self.anomaly_period // 2:
                # spike the first two attributes of anomalous streams
                k = min(2, A)
                values[self.anomalous, :k] += (
                    self.anomaly_scale * self._spread[self.anomalous, :k]
                )
        if self._stuck_ai is not None and self._stuck.any():
            values[self._stuck, self._stuck_ai] = self._base[
                self._stuck, self._stuck_ai
            ]
        if self.nan_rate > 0:
            values[self._rng.random((S, A)) < self.nan_rate] = np.nan
        if self.drop_rate > 0:
            stale = self._rng.random(S) < self.drop_rate
            times[stale] -= 2.0 * self.interval_s
        active = np.ones(S, dtype=bool)
        if self.absent_rate > 0:
            active &= self._rng.random(S) >= self.absent_rate
        return times, values, active

    def __iter__(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        while True:
            yield self.batch()

    def take(
        self, n: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """A bounded iterator of *n* rounds."""
        for _ in range(int(n)):
            yield self.batch()
