"""Self-observation layer: tracing, metrics, and metric timelines.

- :mod:`repro.obs.trace` — hierarchical spans recorded as JSON-lines
  events, context-propagated across ``parallel_map`` workers, free when
  disabled.
- :mod:`repro.obs.metrics` — process-wide counter/gauge/histogram
  registry with Prometheus-text and JSON exporters; its
  ``TimelineRing`` resamples the registry into a per-second ``Dataset``
  so the pipeline can diagnose itself.
- :mod:`repro.obs.report` — renders traces and snapshots as ASCII
  (``repro-sherlock obs report``).
- :mod:`repro.obs.flight` — always-on tail-sampled flight recorder
  (keep interesting ticks, discard the rest).
- :mod:`repro.obs.incident` — atomically-written incident forensics
  bundles plus the ``obs incidents`` CLI backend.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.incident import (
    IncidentRecorder,
    explain_bundle,
    list_bundles,
    load_bundle,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, TimelineRing
from repro.obs.trace import (
    TraceRecorder,
    add_attrs,
    attached,
    current_context,
    enabled,
    get_recorder,
    install,
    load_trace,
    recording,
    span,
    stage,
    uninstall,
    validate_event,
)

__all__ = [
    "REGISTRY",
    "FlightRecorder",
    "IncidentRecorder",
    "MetricsRegistry",
    "TimelineRing",
    "TraceRecorder",
    "explain_bundle",
    "list_bundles",
    "load_bundle",
    "add_attrs",
    "attached",
    "current_context",
    "enabled",
    "get_recorder",
    "install",
    "load_trace",
    "recording",
    "span",
    "stage",
    "uninstall",
    "validate_event",
]
