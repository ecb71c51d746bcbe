"""Telemetry collection: run the simulator and assemble a ``Dataset``.

Plays the role of DBSeer's collectors + preprocessing: per-second tick
states are turned into noisy metric rows and aligned into a single
timestamped attribute table, with the scheduled anomaly windows recorded
as the ground-truth region spec.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.engine.metrics import MetricCatalog
from repro.engine.server import DatabaseServer, TickModifiers
from repro.engine.resources import ServerConfig
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # avoid the anomalies ↔ engine import cycle at runtime
    from repro.anomalies.base import ScheduledAnomaly
    from repro.faults.plan import FaultPlan

__all__ = ["TelemetryCollector", "simulate_telemetry"]


class TelemetryCollector:
    """Drives a :class:`DatabaseServer` and records telemetry rows."""

    def __init__(
        self,
        workload: WorkloadSpec,
        config: Optional[ServerConfig] = None,
        noise_scale: float = 1.0,
    ) -> None:
        self.workload = workload
        self.server = DatabaseServer(workload, config)
        self.catalog = MetricCatalog(workload.type_names, noise_scale)

    def stream(
        self,
        duration_s: float,
        anomalies: Sequence["ScheduledAnomaly"] = (),
        seed: Optional[int] = None,
        warmup_s: float = 5.0,
        faults: Optional["FaultPlan"] = None,
    ) -> Iterator[Tuple[float, Dict[str, float], Dict[str, str]]]:
        """Yield ``(t, numeric_row, categorical_row)`` one tick at a time.

        The online feed for :class:`repro.stream.StreamingDetector`'s
        ring buffer; :meth:`run` is this generator drained into a
        :class:`Dataset`, so streaming and batch consumers observe the
        identical row sequence for identical seeds.

        An optional :class:`~repro.faults.FaultPlan` wraps the tick
        stream to model degraded collection (dropped/duplicated ticks,
        NaN cells, crashes, ...); the underlying simulation is
        unaffected, only delivery is.
        """
        ticks = self._raw_stream(duration_s, anomalies, seed, warmup_s)
        if faults is not None:
            ticks = faults.wrap(ticks)
        return ticks

    def _raw_stream(
        self,
        duration_s: float,
        anomalies: Sequence["ScheduledAnomaly"],
        seed: Optional[int],
        warmup_s: float,
    ) -> Iterator[Tuple[float, Dict[str, float], Dict[str, str]]]:
        rng = np.random.default_rng(seed)
        self.server.warm_up(warmup_s, rng)
        for second in range(int(duration_s)):
            t = float(second)
            modifiers = TickModifiers()
            for anomaly in anomalies:
                modifiers = modifiers.combine(anomaly.modifiers(t, rng))
            state = self.server.tick(t, modifiers, rng)
            yield (
                t,
                self.catalog.emit_numeric(state, rng),
                self.catalog.emit_categorical(state),
            )

    def run(
        self,
        duration_s: float,
        anomalies: Sequence["ScheduledAnomaly"] = (),
        seed: Optional[int] = None,
        warmup_s: float = 5.0,
        name: str = "",
        faults: Optional["FaultPlan"] = None,
    ) -> Tuple[Dataset, RegionSpec]:
        """Simulate ``duration_s`` seconds and return (dataset, ground truth).

        A short warm-up runs before ``t = 0`` so the server starts from its
        steady state (dirty-page backlog, latency fixed point) rather than
        cold-start transients that would look like an anomaly at the origin.

        With a ``faults`` plan, the clean dataset is corrupted through the
        plan's table path and the ground-truth spec is mapped through any
        time-warping injectors, so region marks stay aligned with the
        delivered (possibly skewed) timeline.
        """
        timestamps: List[float] = []
        numeric: Dict[str, List[float]] = {
            n: [] for n in self.catalog.numeric_names
        }
        categorical: Dict[str, List[str]] = {
            n: [] for n in self.catalog.categorical_names
        }
        for t, row, cats in self._raw_stream(
            duration_s, anomalies, seed, warmup_s
        ):
            timestamps.append(t)
            for attr, value in row.items():
                numeric[attr].append(value)
            for attr, value in cats.items():
                categorical[attr].append(value)

        from repro.anomalies.base import ground_truth_spec

        dataset = Dataset(
            timestamps,
            numeric=numeric,
            categorical=categorical,
            name=name or self.workload.name,
        )
        spec = ground_truth_spec(list(anomalies))
        if faults is not None:
            dataset = faults.apply(dataset)
            spec = faults.transform_spec(spec)
        return dataset, spec


def simulate_telemetry(
    workload: WorkloadSpec,
    duration_s: float,
    anomalies: Sequence["ScheduledAnomaly"] = (),
    seed: Optional[int] = None,
    config: Optional[ServerConfig] = None,
    noise_scale: float = 1.0,
    name: str = "",
    faults: Optional["FaultPlan"] = None,
) -> Tuple[Dataset, RegionSpec]:
    """One-shot convenience wrapper around :class:`TelemetryCollector`."""
    collector = TelemetryCollector(workload, config, noise_scale)
    return collector.run(
        duration_s, anomalies, seed=seed, name=name, faults=faults
    )

