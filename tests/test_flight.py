"""Tests for the fleet flight recorder and incident bundles.

Contracts pinned here:

* tail sampling — boring rounds are discarded wholesale, interesting
  rounds are retained per tenant with their trigger reasons;
* bounded memory — the in-flight ring honours its byte budget (dropped
  events are counted), retained rings honour ``keep_ticks`` and
  ``max_retained_bytes``;
* the rolling-p99 latency trigger stays dormant during warm-up and
  fires only on genuine outliers;
* incident bundles — rate/cap/budget limiters, atomic writes that
  survive injected disk faults without leaving partial bundles, and the
  ``load_bundle``/``explain_bundle`` round trip;
* trigger-anchored windows — the abnormal region starts exactly at the
  trigger round when it falls inside the captured span;
* scheduler integration — a durability transition produces a bundle,
  a clean run produces no ``incidents/`` directory at all.
"""

import json

import numpy as np
import pytest

from repro.faults import fs as fsmod
from repro.faults.fs import FullDisk, StorageShim
from repro.fleet import FleetDetector, FleetScheduler, FleetSimSource
from repro.obs import metrics, trace
from repro.obs.flight import FLEET_TENANT, FlightRecorder
from repro.obs.incident import (
    BUNDLE_VERSION,
    IncidentRecorder,
    explain_bundle,
    list_bundles,
    load_bundle,
)


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    previous = trace.uninstall()
    yield
    trace.uninstall()
    if previous is not None:
        trace.install(previous)


def _event(name="tick", span_id=None, start=0.0, attrs=None):
    return {
        "name": name,
        "span_id": span_id or f"s-{name}-{start}",
        "trace_id": "t-0",
        "parent_id": None,
        "start_s": start,
        "attrs": attrs or {},
    }


def _counter(name):
    metric = metrics.REGISTRY.get(name)
    if metric is None:
        return 0.0
    if hasattr(metric, "children"):
        return sum(child.value for _v, child in metric.children())
    return metric.value


# ---------------------------------------------------------------------------
# FlightRecorder: tail sampling
# ---------------------------------------------------------------------------
class TestTailSampling:
    def test_boring_rounds_are_discarded(self):
        fr = FlightRecorder()
        fr.begin_round(0)
        fr.record(_event())
        assert fr.end_round({}) == ()
        assert fr.stats() == {
            "tenants": 0, "kept_ticks": 0, "retained_bytes": 0,
        }

    def test_interesting_rounds_are_retained_per_tenant(self):
        fr = FlightRecorder()
        fr.begin_round(7)
        fr.record(_event("fleet.round"))
        fr.record(_event("fleet.tick", start=0.5))
        reasons = fr.end_round({"alpha": ["verdict"], "beta": []})
        assert reasons == ("verdict",)
        assert fr.tenants() == ["alpha"]  # empty reason list = not kept
        [tick] = fr.retained("alpha")
        assert tick["round"] == 7
        assert tick["reasons"] == ["verdict"]
        assert tick["events"] == 2
        assert tick["bytes"] > 0

    def test_span_helpers_feed_the_recorder(self):
        fr = FlightRecorder()
        trace.install(fr)
        try:
            fr.begin_round(0)
            with trace.span("fleet.round", round=0):
                trace.stage("fleet.tick", 0.001, streams=2)
            kept = fr.end_round({"alpha": ["lane_poisoned"]})
        finally:
            trace.uninstall()
        assert kept == ("lane_poisoned",)
        events = fr.bundle_events("alpha")
        assert [e["name"] for e in events] == ["fleet.tick", "fleet.round"]

    def test_ring_byte_budget_drops_oldest_and_counts(self):
        fr = FlightRecorder(max_tick_bytes=512)
        before = _counter("repro_flight_dropped_events_total")
        fr.begin_round(0)
        for i in range(64):
            fr.record(_event(f"span{i:03d}", start=float(i)))
        dropped = _counter("repro_flight_dropped_events_total") - before
        assert dropped > 0
        kept = fr.end_round({"alpha": ["verdict"]})
        assert kept == ("verdict",)
        events = fr.bundle_events("alpha")
        # the oldest events were dropped, the newest survived
        assert events[-1]["name"] == "span063"
        assert len(events) == 64 - int(dropped)

    def test_latency_p99_trigger_arms_after_warmup(self):
        fr = FlightRecorder(p99_window=64, min_latency_samples=8)
        for i in range(7):
            fr.begin_round(i)
            assert fr.end_round({}, latency_s=0.010) == ()
        # 8th sample arms the trigger; a 10x outlier fires it
        fr.begin_round(7)
        assert fr.end_round({}, latency_s=0.010) == ()
        fr.begin_round(8)
        assert fr.end_round({}, latency_s=0.100) == ("latency_p99",)
        assert fr.tenants() == [FLEET_TENANT]

    def test_keep_ticks_ring_evicts_oldest(self):
        fr = FlightRecorder(keep_ticks=2)
        for round_no in range(4):
            fr.begin_round(round_no)
            fr.record(_event(start=float(round_no)))
            fr.end_round({"alpha": ["verdict"]})
        rounds = [t["round"] for t in fr.retained("alpha")]
        assert rounds == [2, 3]

    def test_retained_byte_ceiling_evicts(self):
        fr = FlightRecorder(keep_ticks=64, max_retained_bytes=1024)
        for round_no in range(32):
            fr.begin_round(round_no)
            for j in range(4):
                fr.record(_event(f"e{round_no}-{j}", start=float(j)))
            fr.end_round({"alpha": ["verdict"]})
        stats = fr.stats()
        assert stats["kept_ticks"] < 32
        assert stats["retained_bytes"] <= 1024 + 1024  # one tick of slack

    def test_bundle_events_merges_fleet_and_dedups(self):
        fr = FlightRecorder()
        fr.begin_round(0)
        shared = _event("fleet.round", span_id="shared", start=1.0)
        fr.record(_event("early", span_id="a", start=0.0))
        fr.record(shared)
        # retained under both the tenant and the _fleet pseudo-tenant
        fr.end_round({"alpha": ["verdict"], FLEET_TENANT: ["latency_p99"]})
        events = fr.bundle_events("alpha")
        assert [e["span_id"] for e in events] == ["a", "shared"]

    def test_clear_drops_everything(self):
        fr = FlightRecorder()
        fr.begin_round(0)
        fr.record(_event())
        fr.end_round({"alpha": ["verdict"]})
        fr.clear()
        assert fr.stats() == {
            "tenants": 0, "kept_ticks": 0, "retained_bytes": 0,
        }
        assert fr.bundle_events("alpha") == []


# ---------------------------------------------------------------------------
# IncidentRecorder: limiters and durability
# ---------------------------------------------------------------------------
def _flight_with_keep(tenant="alpha"):
    fr = FlightRecorder()
    fr.begin_round(3)
    fr.record(_event("fleet.round", start=0.0))
    fr.end_round({tenant: ["verdict"]})
    return fr


def _ring_with_step(registry=None, n=16, step_at=8):
    """A timeline ring whose one counter jumps at ``step_at``."""
    registry = registry or metrics.MetricsRegistry()
    counter = registry.counter("repro_test_step_total", "step")
    ring = metrics.TimelineRing(registry, max_samples=64)
    for i in range(n):
        if i >= step_at:
            counter.inc(5)
        ring.sample(t=float(i))
    return ring


class TestIncidentRecorder:
    def test_bundle_layout_and_manifest(self, tmp_path):
        recorder = IncidentRecorder(
            tmp_path,
            flight=_flight_with_keep(),
            timeline=_ring_with_step(),
        )
        path = recorder.snapshot(
            "alpha", "durability degraded: full disk", 8,
            context={"round": 8},
        )
        assert path is not None and path.is_dir()
        assert sorted(p.name for p in path.iterdir()) == [
            "health.jsonl", "incident.json", "spans.jsonl", "timeline.json",
        ]
        bundle = load_bundle(path)
        manifest = bundle["manifest"]
        assert manifest["version"] == BUNDLE_VERSION
        assert manifest["tenant"] == "alpha"
        assert manifest["round"] == 8
        assert manifest["context"] == {"round": 8}
        assert manifest["spans"] == len(bundle["spans"]) == 1
        assert bundle["timeline"]["samples"]
        assert list_bundles(tmp_path) == [path]
        stats = recorder.stats()
        assert stats["bundles"] == 1 and stats["bytes"] > 0

    def test_rate_limiter_mutes_repeat_triggers(self, tmp_path):
        recorder = IncidentRecorder(tmp_path, min_rounds_between=8)
        before = _counter("repro_incident_skipped_total")
        assert recorder.snapshot("alpha", "boom", 10) is not None
        assert recorder.snapshot("alpha", "boom again", 12) is None
        assert recorder.snapshot("alpha", "boom later", 18) is not None
        assert _counter("repro_incident_skipped_total") == before + 1

    def test_per_tenant_cap(self, tmp_path):
        recorder = IncidentRecorder(
            tmp_path, max_bundles_per_tenant=1, min_rounds_between=1
        )
        assert recorder.snapshot("alpha", "first", 1) is not None
        assert recorder.snapshot("alpha", "second", 10) is None
        # other tenants are unaffected
        assert recorder.snapshot("beta", "first", 10) is not None

    def test_global_byte_budget(self, tmp_path):
        recorder = IncidentRecorder(
            tmp_path, max_total_bytes=1, min_rounds_between=1
        )
        # the first bundle may overshoot the budget by its own size...
        assert recorder.snapshot("alpha", "first", 1) is not None
        # ...but once spent, every further snapshot is suppressed
        assert recorder.snapshot("beta", "second", 2) is None
        assert len(list_bundles(tmp_path)) == 1

    def test_disk_fault_leaves_no_partial_bundle(self, tmp_path):
        recorder = IncidentRecorder(tmp_path, min_rounds_between=1)
        with fsmod.scoped_fs(StorageShim([FullDisk()])):
            assert recorder.snapshot("alpha", "boom", 1) is None
        assert list_bundles(tmp_path) == []
        # the reserved slot was released: a later attempt succeeds
        assert recorder.snapshot("alpha", "boom", 5) is not None

    def test_explain_bundle_round_trip(self, tmp_path):
        recorder = IncidentRecorder(
            tmp_path, timeline=_ring_with_step(n=16, step_at=8)
        )
        path = recorder.snapshot("alpha", "step change", 8)
        explanation, dataset, spec = explain_bundle(path)
        assert dataset.name == "incident:alpha"
        assert spec.abnormal[0].start >= 8.0
        # no causal models loaded: predicates only, and the stepped
        # counter's rate is the separating attribute
        assert any(
            "repro_test_step_total" in p.attr
            for p in explanation.predicates
        )

    def test_explain_rejects_timeline_free_bundle(self, tmp_path):
        recorder = IncidentRecorder(tmp_path)  # no timeline attached
        path = recorder.snapshot("alpha", "no evidence", 1)
        with pytest.raises(ValueError):
            explain_bundle(path)


class TestTriggerAnchoredWindow:
    def _window(self, times, round_no, **kwargs):
        recorder = IncidentRecorder("unused", **kwargs)
        samples = [(float(t), {}) for t in times]
        return recorder._window(samples, round_no)

    def test_anchors_at_trigger_round(self):
        window = self._window(range(10), 6)
        assert window["normal"] == [0.0, 5.0]
        assert window["abnormal"] == [6.0, 9.0]
        assert window["trigger_round"] == 6

    def test_trigger_outside_span_falls_back_to_trailing_quarter(self):
        window = self._window(range(10), 42)
        assert window["abnormal"] == [8.0, 9.0]
        assert window["normal"] == [0.0, 7.0]

    def test_trigger_at_edge_falls_back(self):
        # anchoring at the very last sample would leave no post-trigger
        # evidence — fall back to the trailing quarter instead
        window = self._window(range(10), 9)
        assert window["normal"] == [0.0, 7.0]
        assert window["abnormal"] == [8.0, 9.0]

    def test_too_few_samples_yields_no_window(self):
        window = self._window(range(3), 1)
        assert window["normal"] is None and window["abnormal"] is None


# ---------------------------------------------------------------------------
# TimelineRing
# ---------------------------------------------------------------------------
class TestTimelineRing:
    def test_monotonicizes_timestamps(self):
        ring = metrics.TimelineRing(
            metrics.MetricsRegistry(), max_samples=8, interval=1.0
        )
        assert ring.sample(t=5.0) == 5.0
        assert ring.sample(t=5.0) == 6.0  # same stamp advances
        assert ring.sample() == 7.0  # unstamped continues
        assert ring.sample(t=2.0) == 8.0  # regression clamps forward

    def test_bounded_and_windowed(self):
        ring = metrics.TimelineRing(metrics.MetricsRegistry(), max_samples=4)
        for i in range(10):
            ring.sample(t=float(i))
        assert len(ring) == 4
        window = ring.window(2)
        assert [t for t, _row in window] == [8.0, 9.0]

    def test_clear(self):
        ring = metrics.TimelineRing(metrics.MetricsRegistry(), max_samples=4)
        ring.sample()
        ring.clear()
        assert len(ring) == 0 and ring.kinds() == {}


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------
def _quiet_fleet(root, tenants, attrs, durable=(), **kwargs):
    detector = FleetDetector(
        len(tenants), attrs, capacity=40, window=8, pp_threshold=0.9
    )
    return FleetScheduler(
        detector,
        tenants=tenants,
        sherlock=None,
        root_dir=root,
        durable=durable,
        fsync_every=1,
        label_metrics=False,
        **kwargs,
    )


class TestSchedulerIntegration:
    ATTRS = ["m0", "m1"]
    TENANTS = ["t00", "t01", "t02"]

    def test_durability_transition_writes_one_bundle(self, tmp_path):
        metrics.REGISTRY.reset()
        sched = _quiet_fleet(
            tmp_path,
            self.TENANTS,
            self.ATTRS,
            durable=["t01"],
            storage_probe_every=2,
            flight=FlightRecorder(),
            incidents=IncidentRecorder(tmp_path, min_rounds_between=4),
            incident_capture_rounds=2,
            timeline_every=1,
        )
        src = FleetSimSource(
            len(self.TENANTS), self.ATTRS, seed=3, anomaly_fraction=0.0
        )
        fault = FullDisk(path_filter=str(tmp_path / "t01" / "ticks.wal"))
        fault.active = False
        with fsmod.scoped_fs(StorageShim([fault])):
            for i, (times, values, active) in enumerate(src.take(24)):
                fault.active = 8 <= i < 16
                sched.run_round(times, values, active)
            sched.drain()
            sched.close()
        bundles = list_bundles(tmp_path)
        assert len(bundles) == 1
        manifest = load_bundle(bundles[0])["manifest"]
        assert manifest["tenant"] == "t01"
        assert "durability degraded" in manifest["reason"]
        # the bundle froze the health journal tail alongside the spans
        assert any(
            rec.get("to") == "degraded"
            for rec in load_bundle(bundles[0])["health"]
        )

    def test_clean_run_writes_nothing(self, tmp_path):
        metrics.REGISTRY.reset()
        sched = _quiet_fleet(
            tmp_path,
            self.TENANTS,
            self.ATTRS,
            flight=FlightRecorder(),
            incidents=IncidentRecorder(tmp_path),
            timeline_every=1,
        )
        src = FleetSimSource(
            len(self.TENANTS), self.ATTRS, seed=3, anomaly_fraction=0.0
        )
        for times, values, active in src.take(16):
            sched.run_round(times, values, active)
        sched.close()
        assert not (tmp_path / "incidents").exists()

    def test_flight_recorder_installs_and_uninstalls(self, tmp_path):
        sched = _quiet_fleet(
            tmp_path, self.TENANTS, self.ATTRS, flight=FlightRecorder()
        )
        assert trace.get_recorder() is sched.forensics.flight
        sched.close()
        assert trace.get_recorder() is None
