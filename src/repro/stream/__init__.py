"""Streaming anomaly detection: the Section 7 pipeline as an online engine.

The batch :class:`~repro.core.anomaly.AnomalyDetector` recomputes the full
pipeline per call; for an always-on monitor fed one telemetry row per
second that is an O(attrs × n × w log w) bill every tick.  This package
keeps the pipeline's state resident instead:

``detector``  :class:`StreamingDetector` — per-tick detection on one
              stream, a one-lane :class:`~repro.fleet.engine.FleetDetector`
              (output identical to the batch detector on the same
              window); :class:`StreamingDiagnoser` — hands newly-closed
              abnormal regions to the ``DBSherlock`` diagnosis path;
``supervisor`` :class:`StreamSupervisor` — crash recovery around the
              detector: periodic checkpoints, exponential-backoff
              restarts, replay-exact restore;
``wal`` / ``durability``  write-ahead tick log, checkpoint store, and
              degraded persistence modes.

The frozen seed detector (loop Equation 4, dense-matrix DBSCAN) that the
equivalence tests and ``benchmarks/bench_online_detect.py`` compare
against lives in ``tests/stream_oracle.py``.
"""

from repro.stream.detector import (
    StreamingDetector,
    StreamingDiagnoser,
    StreamTick,
)
from repro.stream.supervisor import StreamSupervisor, SupervisorReport

__all__ = [
    "StreamSupervisor",
    "StreamTick",
    "StreamingDetector",
    "StreamingDiagnoser",
    "SupervisorReport",
]
