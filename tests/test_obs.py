"""Tests for the self-observation layer (tracing, metrics, timelines).

Contracts pinned here:

* span nesting — parent/child links hold within a process and across
  ``parallel_map`` workers (via the shared JSON-lines sink);
* the disabled path records nothing: ``span()`` hands back one shared
  no-op object and no event or attribute dict is ever materialised;
* exporters — Prometheus text and JSON snapshots are byte-stable for a
  known registry state;
* dogfood — a :class:`~repro.obs.metrics.TimelineRing` dataset
  round-trips ``regularize_dataset`` with zero missing values and
  correct deltas;
* satellites — alias-store persistence and learning, supervisor report
  ``asdict``, cache eviction/resident-byte accounting and the
  stats-reset-after-``clear()`` fix.
"""

import json
import os

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.preprocess import regularize_dataset
from repro.obs import metrics, trace
from repro.obs.report import render_report, span_tree
from repro.perf.parallel import parallel_map
from repro.schema.aliases import AliasStore


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    """Tests must not leak a recorder into (or inherit one from) others."""
    previous = trace.uninstall()
    yield
    trace.uninstall()
    if previous is not None:
        trace.install(previous)


# ---------------------------------------------------------------------------
# Tracing: spans, nesting, schema
# ---------------------------------------------------------------------------
class TestSpanNesting:
    def test_parent_child_links(self):
        with trace.recording() as recorder:
            with trace.span("outer", depth=0):
                with trace.span("inner") as sp:
                    sp.set(depth=1)
        events = {e["name"]: e for e in recorder.events}
        assert set(events) == {"outer", "inner"}
        assert events["outer"]["parent_id"] is None
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]
        assert events["inner"]["trace_id"] == events["outer"]["trace_id"]
        assert events["inner"]["attrs"] == {"depth": 1}
        for event in recorder.events:
            trace.validate_event(event)

    def test_siblings_share_parent_not_ids(self):
        with trace.recording() as recorder:
            with trace.span("root"):
                with trace.span("a"):
                    pass
                with trace.span("b"):
                    pass
        a, b = (e for e in recorder.events if e["name"] in "ab")
        assert a["parent_id"] == b["parent_id"]
        assert a["span_id"] != b["span_id"]

    def test_stage_attaches_to_current_span(self):
        with trace.recording() as recorder:
            with trace.span("work"):
                trace.stage("substep", 0.25, rows=7)
        stage, work = sorted(recorder.events, key=lambda e: e["name"])
        assert stage["parent_id"] == work["span_id"]
        assert stage["duration_s"] == 0.25
        assert stage["attrs"] == {"rows": 7}
        trace.validate_event(stage)

    def test_exception_recorded_and_propagated(self):
        with trace.recording() as recorder:
            with pytest.raises(RuntimeError):
                with trace.span("boom"):
                    raise RuntimeError("no")
        (event,) = recorder.events
        assert event["attrs"]["error"] == "RuntimeError"

    def test_recording_restores_previous_recorder(self):
        outer = trace.install(trace.TraceRecorder())
        with trace.recording():
            assert trace.get_recorder() is not outer
        assert trace.get_recorder() is outer


def _traced_square(x):
    with trace.span("square", x=x):
        return x * x


class TestCrossProcessPropagation:
    def test_worker_spans_parent_onto_map_span(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        with trace.recording(path=sink):
            with trace.span("suite"):
                result = parallel_map(_traced_square, [1, 2, 3], jobs=2)
        assert result == [1, 4, 9]

        events = trace.load_trace(sink)
        for event in events:
            trace.validate_event(event)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        (suite,) = by_name["suite"]
        (pmap,) = by_name["parallel_map"]
        workers = by_name["parallel_map.worker"]
        squares = by_name["square"]
        assert pmap["parent_id"] == suite["span_id"]
        assert pmap["attrs"] == {"items": 3, "jobs": 2}
        assert len(workers) == 3 and len(squares) == 3
        for worker in workers:
            assert worker["trace_id"] == suite["trace_id"]
            assert worker["parent_id"] == pmap["span_id"]
        worker_ids = {w["span_id"] for w in workers}
        for square in squares:
            assert square["parent_id"] in worker_ids

    def test_untraced_map_unchanged(self):
        assert parallel_map(_traced_square, [4], jobs=1) == [16]

    def test_attached_none_is_identity(self):
        with trace.attached(None):
            assert trace.current_context() is None


class TestDisabledPath:
    def test_span_is_shared_noop(self):
        assert not trace.enabled()
        sp = trace.span("anything", huge=1)
        assert sp is trace.span("other")  # one shared object, no allocs
        with sp as inner:
            inner.set(ignored=True)
        assert trace.get_recorder() is None

    def test_stage_does_nothing(self):
        trace.stage("x", 1.0)
        assert trace.current_context() is None

    def test_no_events_recorded_anywhere(self):
        with trace.span("ghost"):
            pass
        with trace.recording() as recorder:
            pass  # recorder only live inside the block
        with trace.span("after"):
            pass
        assert recorder.events == []


class TestEventSchema:
    def _event(self, **overrides):
        event = {
            "name": "n",
            "trace_id": "t1",
            "span_id": "s1",
            "parent_id": None,
            "start_s": 1.0,
            "duration_s": 0.5,
            "pid": 1,
            "attrs": {},
        }
        event.update(overrides)
        return event

    def test_valid_event_passes(self):
        trace.validate_event(self._event())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": None},
            {"extra_field": 1},
            {"duration_s": -0.1},
            {"pid": 3.5},
            {"pid": True},
            {"attrs": {"k": [1, 2]}},
            {"attrs": {1: "v"}},
        ],
    )
    def test_bad_events_rejected(self, overrides):
        with pytest.raises(ValueError):
            trace.validate_event(self._event(**overrides))

    def test_missing_field_rejected(self):
        event = self._event()
        del event["span_id"]
        with pytest.raises(ValueError):
            trace.validate_event(event)

    def test_load_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(self._event()) + "\n" + '{"name": "tor'
        )
        events = trace.load_trace(path)
        assert len(events) == 1


# ---------------------------------------------------------------------------
# Metrics registry and exporters
# ---------------------------------------------------------------------------
def _golden_registry():
    registry = metrics.MetricsRegistry()
    requests = registry.counter("requests_total", "Requests served")
    depth = registry.gauge("queue_depth", "Items queued")
    latency = registry.histogram(
        "latency_seconds", "Request latency", buckets=(0.1, 1.0)
    )
    requests.inc(3)
    depth.set(2)
    latency.observe(0.05)
    latency.observe(0.5)
    latency.observe(5.0)
    return registry


class TestExporters:
    def test_prometheus_golden(self):
        expected = (
            "# HELP latency_seconds Request latency\n"
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.1"} 1\n'
            'latency_seconds_bucket{le="1"} 2\n'
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 5.55\n"
            "latency_seconds_count 3\n"
            "# HELP queue_depth Items queued\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 2\n"
            "# HELP requests_total Requests served\n"
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
        )
        assert _golden_registry().to_prometheus() == expected

    def test_json_golden(self):
        snap = json.loads(_golden_registry().to_json())
        assert snap == {
            "latency_seconds": {
                "kind": "histogram",
                "help": "Request latency",
                "count": 3,
                "sum": 5.55,
                "buckets": [[0.1, 1], [1.0, 2], ["+Inf", 3]],
            },
            "queue_depth": {
                "kind": "gauge",
                "help": "Items queued",
                "value": 2.0,
            },
            "requests_total": {
                "kind": "counter",
                "help": "Requests served",
                "value": 3.0,
            },
        }

    def test_get_or_create_shares_instruments(self):
        registry = metrics.MetricsRegistry()
        a = registry.counter("c_total")
        b = registry.counter("c_total")
        assert a is b
        with pytest.raises(TypeError):
            registry.gauge("c_total")

    def test_counter_rejects_decrease_and_bad_names(self):
        registry = metrics.MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total").inc(-1)

    def test_reset_zeroes_in_place(self):
        registry = _golden_registry()
        handle = registry.get("requests_total")
        registry.reset()
        assert handle.value == 0
        handle.inc()
        assert registry.get("requests_total").value == 1

    def test_reset_clears_exemplars_and_timeline_rings(self):
        registry = metrics.MetricsRegistry()
        latency = registry.histogram("lat_seconds", "latency")
        latency.observe(0.4, exemplar="trace-abc")
        ring = registry.timeline("fleet", max_samples=8)
        ring.sample()
        ring.sample()
        assert latency.exemplar == (0.4, "trace-abc")
        assert len(ring) == 2

        registry.reset()
        assert latency.exemplar is None
        assert len(ring) == 0 and ring.kinds() == {}
        # the same ring handle stays live after reset
        assert registry.timeline("fleet") is ring
        ring.sample()
        assert len(ring) == 1


class TestExemplars:
    def test_worst_observation_wins(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram("h_seconds", "h")
        hist.observe(0.2, exemplar="trace-small")
        hist.observe(0.9, exemplar="trace-big")
        hist.observe(0.5, exemplar="trace-mid")  # smaller: not kept
        assert hist.exemplar == (0.9, "trace-big")

    def test_untagged_observations_keep_existing_exemplar(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram("h_seconds", "h")
        hist.observe(0.1, exemplar="trace-first")
        hist.observe(99.0)  # no exemplar attached
        assert hist.exemplar == (0.1, "trace-first")
        assert hist.count == 2


class TestMetricFamilies:
    def test_labels_get_or_create_children(self):
        registry = metrics.MetricsRegistry()
        family = registry.counter(
            "jobs_total", "Jobs", labelnames=("tenant",)
        )
        a = family.labels(tenant="t1")
        b = family.labels("t1")  # positional form hits the same child
        assert a is b
        a.inc(2)
        family.labels(tenant="t2").inc()
        snap = registry.snapshot()
        assert snap['jobs_total{tenant="t1"}']["value"] == 2.0
        assert snap['jobs_total{tenant="t1"}']["labels"] == {"tenant": "t1"}
        assert snap['jobs_total{tenant="t2"}']["value"] == 1.0

    def test_label_kind_mismatch_rejected(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x_total", labelnames=("tenant",))
        with pytest.raises(TypeError):
            registry.counter("x_total")  # unlabeled redeclare
        with pytest.raises(TypeError):
            registry.gauge("x_total", labelnames=("tenant",))

    def test_prometheus_renders_labeled_histogram(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram(
            "tick_seconds",
            "Tick time",
            buckets=(0.1, 1.0),
            labelnames=("tenant",),
        )
        hist.labels(tenant="a").observe(0.05)
        hist.labels(tenant="a").observe(0.5)
        text = registry.to_prometheus()
        assert 'tick_seconds_bucket{tenant="a",le="0.1"} 1' in text
        assert 'tick_seconds_bucket{tenant="a",le="+Inf"} 2' in text
        assert 'tick_seconds_count{tenant="a"} 2' in text

    def test_fine_buckets_are_microsecond_scale(self):
        assert metrics.FINE_BUCKETS[0] <= 1e-6
        assert metrics.FINE_BUCKETS == tuple(sorted(metrics.FINE_BUCKETS))
        # sub-100us amortized ticks must land in a real bucket, not +Inf
        assert any(b < 1e-4 for b in metrics.FINE_BUCKETS)
        hist = metrics.MetricsRegistry().histogram(
            "f_seconds", buckets=metrics.FINE_BUCKETS
        )
        hist.observe(5e-5)
        below = [c for b, c in hist.bucket_counts() if b <= 1e-4]
        assert below[-1] == 1


# ---------------------------------------------------------------------------
# Dogfood: registry -> Dataset
# ---------------------------------------------------------------------------
class TestDogfood:
    def _timeline(self):
        registry = metrics.MetricsRegistry()
        ticks = registry.counter("ticks_total")
        depth = registry.gauge("depth")
        lat = registry.histogram("lat_seconds", buckets=(1.0,))
        timeline = metrics.TimelineRing(registry, interval=1.0)
        for i in range(6):
            ticks.inc(10)
            depth.set(i)
            lat.observe(0.5)
            timeline.sample()
        return timeline

    def test_rates_dataset_round_trips_regularize(self):
        timeline = self._timeline()
        dataset = timeline.to_dataset(rates=True)
        regular, report = regularize_dataset(dataset)
        assert report.n_missing == 0
        assert regular.n_rows == dataset.n_rows == 5
        # counters become per-interval deltas, gauges stay levels
        assert list(regular.column("ticks_total")) == [10.0] * 5
        assert list(regular.column("lat_seconds_count")) == [1.0] * 5
        assert list(regular.column("depth")) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_levels_dataset(self):
        dataset = self._timeline().to_dataset(rates=False)
        assert dataset.n_rows == 6
        assert list(dataset.column("ticks_total")) == [
            10.0, 20.0, 30.0, 40.0, 50.0, 60.0,
        ]

    def test_sample_time_must_advance(self):
        # live samples are monotonicized; stored ones must advance
        timeline = metrics.TimelineRing(metrics.MetricsRegistry())
        assert timeline.sample(t=5.0) == 5.0
        assert timeline.sample(t=5.0) == 6.0
        with pytest.raises(ValueError):
            metrics.TimelineRing.from_samples([(5.0, {}), (5.0, {})])
        stored = metrics.TimelineRing.from_samples(
            self._timeline().window(), kinds=self._timeline().kinds()
        )
        assert list(stored.to_dataset().column("ticks_total")) == [10.0] * 5

    def test_rates_need_two_samples(self):
        timeline = metrics.TimelineRing(metrics.MetricsRegistry())
        timeline.sample()
        with pytest.raises(ValueError):
            timeline.to_dataset(rates=True)

    def test_metric_registered_mid_timeline_backfills_zero(self):
        registry = metrics.MetricsRegistry()
        registry.counter("a_total").inc()
        timeline = metrics.TimelineRing(registry)
        timeline.sample()
        timeline.sample()
        registry.counter("late_total").inc(4)
        timeline.sample()
        dataset = timeline.to_dataset(rates=True)
        assert list(dataset.column("late_total")) == [0.0, 4.0]

    def test_flatten_snapshot(self):
        row, kinds = _golden_registry().flat_sample()
        assert kinds["latency_seconds"] == "histogram"
        assert row == {
            "requests_total": 3.0,
            "queue_depth": 2.0,
            "latency_seconds_count": 3.0,
            "latency_seconds_sum": 5.55,
        }


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------
class TestReport:
    def test_tree_and_sections(self):
        with trace.recording() as recorder:
            with trace.span("explain"):
                with trace.span("rank", models=3):
                    pass
        text = render_report(
            recorder.events, _golden_registry().snapshot()
        )
        assert "== Slowest trace ==" in text
        assert "== Metrics ==" in text
        assert text.index("explain") < text.index("  rank")
        assert "models=3" in text

    def test_orphan_worker_span_still_rendered(self):
        events = [
            {
                "name": "orphan", "trace_id": "t", "span_id": "s9",
                "parent_id": "not-recorded", "start_s": 0.0,
                "duration_s": 1.0, "pid": 1, "attrs": {},
            }
        ]
        assert "orphan" in span_tree(events)

    def test_empty_trace(self):
        assert "(no spans recorded)" in span_tree([])


# ---------------------------------------------------------------------------
# Satellite: alias store
# ---------------------------------------------------------------------------
class TestAliasStore:
    def test_record_and_lookup(self):
        store = AliasStore()
        assert store.record("cpu_u", "os.cpu_user", 0.9)
        assert store.get("cpu_u") == "os.cpu_user"
        assert "cpu_u" in store and len(store) == 1

    def test_identity_mappings_skipped(self):
        store = AliasStore()
        assert not store.record("same", "same")
        assert len(store) == 0

    def test_weaker_match_never_downgrades(self):
        store = AliasStore()
        store.record("a", "x", 0.9)
        assert not store.record("a", "y", 0.8)  # weaker rename loses
        assert store.get("a") == "x"
        assert store.record("a", "y", 0.95)  # stronger one wins
        assert store.get("a") == "y"

    def test_same_mapping_keeps_best_score(self):
        store = AliasStore()
        store.record("a", "x", 0.9)
        assert not store.record("a", "x", 0.7)
        assert store.scores["a"] == 0.9
        assert store.record("a", "x", 0.99)
        assert store.scores["a"] == 0.99

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "aliases.json"
        store = AliasStore(path)
        store.record("cpu_u", "os.cpu_user", 0.87)
        store.save()
        reloaded = AliasStore(path)
        assert reloaded.aliases == {"cpu_u": "os.cpu_user"}
        assert reloaded.scores == {"cpu_u": 0.87}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "aliases.json"
        path.write_text(json.dumps({"version": 99, "aliases": {}}))
        with pytest.raises(ValueError):
            AliasStore(path)

    def test_in_memory_save_is_noop(self):
        AliasStore().save()  # must not raise

    def test_reconciler_learns_and_reuses_alias(self, tmp_path):
        from repro.schema import SchemaReconciler, fingerprint_attributes

        rng = np.random.default_rng(7)
        n = 60
        ts = np.arange(n, dtype=float)
        values = 50.0 + 10.0 * rng.standard_normal(n)
        train = Dataset(
            ts, numeric={"os.cpu_user": values, "db.lock_waits": ts * 0.1}
        )
        fingerprints = dict(fingerprint_attributes(train, ["os.cpu_user"]))
        drifted = Dataset(
            ts, numeric={"cpu_user_pct": values, "db.lock_waits": ts * 0.1}
        )

        store = AliasStore(tmp_path / "a.json")
        # renamed attr keeps only part of the name, so confirm on the
        # value-sketch-dominated score rather than the strict default
        reconciler = SchemaReconciler(
            alias_store=store, confirm_threshold=0.6
        )
        report = reconciler.reconcile(fingerprints, drifted)
        assert report.matches["os.cpu_user"].method == "fingerprint"
        assert store.get("cpu_user_pct") == "os.cpu_user"
        assert (tmp_path / "a.json").exists()  # persisted on learn

        # a fresh reconciler with the persisted table resolves at the
        # (cheap, score-1.0) alias stage — no fingerprinting needed
        hits_before = metrics.REGISTRY.get(
            "repro_schema_alias_hits_total"
        ).value
        reconciler2 = SchemaReconciler(
            alias_store=AliasStore(tmp_path / "a.json")
        )
        report2 = reconciler2.reconcile(fingerprints, drifted)
        match = report2.matches["os.cpu_user"]
        assert match.method == "alias" and match.score == 1.0
        hits_after = metrics.REGISTRY.get(
            "repro_schema_alias_hits_total"
        ).value
        assert hits_after == hits_before + 1


# ---------------------------------------------------------------------------
# Satellite: supervisor report + cache accounting
# ---------------------------------------------------------------------------
class TestSupervisorReport:
    def test_asdict_round_trip(self):
        from repro.stream.supervisor import SupervisorReport

        report = SupervisorReport(
            ticks_processed=10, restarts=1, backoff_waits=[0.1]
        )
        payload = report.asdict()
        assert payload["ticks_processed"] == 10
        assert payload["restarts"] == 1
        assert payload["backoff_waits"] == [0.1]
        assert "backoff_resets" in payload
        assert json.dumps(payload)  # JSON-serialisable

    def test_run_report_sourced_from_registry(self):
        from repro.stream import StreamingDetector, StreamSupervisor

        rng = np.random.default_rng(3)

        def source_factory(attempt):
            return iter(
                (float(t), {"m": float(50 + rng.standard_normal())}, {})
                for t in range(25)
            )

        ticks_counter = metrics.REGISTRY.get("repro_supervisor_ticks_total")
        before = ticks_counter.value
        supervisor = StreamSupervisor(
            StreamingDetector(capacity=30),
            source_factory,
            checkpoint_every=10,
            sleep=lambda s: None,
        )
        report = supervisor.run()
        assert report.ticks_processed == 25
        assert ticks_counter.value == before + 25
        assert report.checkpoints >= 2


class TestCacheAccounting:
    def _run(self, cache, n=40):
        rng = np.random.default_rng(5)
        ts = np.arange(n, dtype=float)
        dataset = Dataset(
            ts,
            numeric={
                "a": 10.0 + rng.standard_normal(n),
                "b": 5.0 + rng.standard_normal(n),
            },
        )
        from repro.data.regions import Region, RegionSpec

        spec = RegionSpec(
            abnormal=[Region(20.0, 29.0)], normal=[Region(0.0, 19.0)]
        )
        cache.entries(dataset, spec, ["a", "b"], 50)
        return dataset, spec

    def test_clear_resets_stats_and_counts_evictions(self):
        from repro.perf.cache import LabeledSpaceCache

        cache = LabeledSpaceCache()
        dataset, spec = self._run(cache)
        cache.entries(dataset, spec, ["a", "b"], 50)  # warm hit
        stats = cache.stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["resident_bytes"] > 0
        cache.clear()
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["evictions"] == 0  # reset after being counted
        assert stats["entries"] == 0

    def test_eviction_counter_global(self):
        from repro.perf.cache import LabeledSpaceCache

        evictions = metrics.REGISTRY.get("repro_cache_evictions_total")
        before = evictions.value
        cache = LabeledSpaceCache()
        self._run(cache)
        cache.clear()
        assert evictions.value > before  # dropped entries counted globally
