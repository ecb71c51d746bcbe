"""Alternative anomaly detectors — the paper's Section 9 future work.

    "Allowing users to choose from additional outlier detection
    algorithms [...] will make an interesting future work."

Every detector shares the Section 7 pipeline's front end (normalization +
potential-power attribute selection) and the ``DetectionResult`` output,
so they are drop-in replacements for the DBSCAN strategy inside
:class:`repro.core.anomaly.AnomalyDetector`-based workflows.

For *online* detection over a live telemetry feed, use
:class:`repro.stream.StreamingDetector` (re-exported here): it produces
the same ``DetectionResult`` per tick from a one-lane fleet arena, whose
potential power updates per row instead of re-running a batch pass.
"""

from repro.detect.strategies import (
    BaseDetector,
    DbscanDetector,
    EnsembleDetector,
    RobustZScoreDetector,
    ThroughputDipDetector,
)
from repro.stream import StreamingDetector

__all__ = [
    "BaseDetector",
    "DbscanDetector",
    "RobustZScoreDetector",
    "ThroughputDipDetector",
    "EnsembleDetector",
    "StreamingDetector",
]
