"""Tests for the streaming detection engine (``repro.stream``).

The load-bearing suite here is :class:`TestExactEquivalence`: the
:class:`StreamingDetector` must produce *identical* output — mask,
regions, selected attributes, ε — to running the batch
:class:`AnomalyDetector` from scratch on every window cut from seeded
scenario runs, and the batch detector must match the frozen seed
implementation in ``tests/stream_oracle.py``.  :class:`TestCheckpointFixture`
replays a trace frozen from the per-stream detector this one replaced.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.anomaly import AnomalyDetector, potential_power
from repro.core.separation import normalize_values
from repro.eval.harness import replay_rows, simulate_run
from repro.stream import StreamingDetector, StreamingDiagnoser
from tests.stream_oracle import GoldenAnomalyDetector

FIXTURE = Path(__file__).parent / "fixtures" / "stream_checkpoint_v1.json"


# ---------------------------------------------------------------------------
# the detector's window
# ---------------------------------------------------------------------------
def _window_after(rows, capacity, categorical=False):
    detector = StreamingDetector(capacity=capacity)
    for t, numeric in rows:
        cat = {"c": f"v{int(t)}"} if categorical else None
        detector.observe(t, numeric, cat)
    return detector.window


class TestRingBufferWindow:
    """The detector's window keeps the read surface of the ring buffer
    the per-stream detector used to own."""

    def test_grows_until_capacity_then_evicts(self):
        detector = StreamingDetector(capacity=3)
        assert detector.window is None
        for i in range(3):
            detector.observe(float(i), {"a": 10.0 + i})
        assert detector.window.full
        detector.observe(3.0, {"a": 13.0})
        window = detector.window
        assert window.n_rows == 3
        assert list(window.timestamps) == [1.0, 2.0, 3.0]
        assert list(window.column("a")) == [11.0, 12.0, 13.0]

    def test_views_after_wraparound(self):
        window = _window_after(
            [(float(i), {"a": float(i) * 2.0}) for i in range(11)],
            4,
            categorical=True,
        )
        assert list(window.timestamps) == [7.0, 8.0, 9.0, 10.0]
        assert list(window.column("a")) == [14.0, 16.0, 18.0, 20.0]
        assert list(window.column("c")) == ["v7", "v8", "v9", "v10"]
        assert window.appended - window.n_rows == 7
        assert window.appended == 11

    def test_views_are_copies_of_the_one_store(self):
        detector = StreamingDetector(capacity=4)
        for i in range(6):
            detector.observe(float(i), {"a": float(i)})
        window = detector.window
        arena = detector._fleet.arena
        # row k at slot k % capacity: rows 2..5 sit at slots 2, 3, 0, 1
        assert arena._overall._values[:, 0].tolist() == [4.0, 5.0, 2.0, 3.0]
        assert arena._ts[0].tolist() == [4.0, 5.0, 2.0, 3.0]
        column, stamps = window.column("a"), window.timestamps
        column[:] = -1.0
        stamps[:] = -1.0
        assert window.column("a").tolist() == [2.0, 3.0, 4.0, 5.0]
        assert window.timestamps.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_bounds_track_retained_rows(self):
        rng = np.random.default_rng(11)
        detector = StreamingDetector(capacity=13)
        for i, value in enumerate(rng.normal(size=60)):
            detector.observe(float(i), {"a": float(value)})
            col = detector.window.column("a")
            assert detector.window.bounds("a") == (col.min(), col.max())

    def test_to_dataset_roundtrip(self):
        detector = StreamingDetector(capacity=5)
        for i in range(8):
            detector.observe(
                float(i), {"a": float(i), "b": -float(i)}, {"c": "x"}
            )
        ds = detector.window.to_dataset(name="snap")
        assert ds.name == "snap"
        assert ds.n_rows == 5
        assert list(ds.timestamps) == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert list(ds.column("b")) == [-3.0, -4.0, -5.0, -6.0, -7.0]
        assert list(ds.column("c")) == ["x"] * 5
        # the snapshot must be a copy, detached from the live buffer
        detector.observe(8.0, {"a": 0.0, "b": 0.0}, {"c": "x"})
        assert list(ds.timestamps) == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingDetector(capacity=1)
        with pytest.raises(ValueError):
            StreamingDetector(capacity=5).observe(0.0, {}, {})
        window = _window_after([(0.0, {"a": 1.0})], 2)
        with pytest.raises(KeyError):
            window.column("missing")


# ---------------------------------------------------------------------------
# incremental potential power
# ---------------------------------------------------------------------------
def _power(detector, attr):
    """Equation 4 power of *attr* as the detector's arena keeps it."""
    arena = detector._fleet.arena
    return float(arena.stats().powers[0, arena.attributes.index(attr)])


class TestIncrementalPotentialPower:
    def test_matches_batch_on_sliding_windows(self):
        rng = np.random.default_rng(21)
        stream = rng.normal(size=150)
        stream[90:115] += 4.0
        capacity, w = 40, 10
        detector = StreamingDetector(capacity=capacity, window=w)
        for i, value in enumerate(stream):
            detector.observe(float(i), {"a": float(value)})
            window = detector.window
            power = _power(detector, "a")
            expected = potential_power(
                normalize_values(window.column("a")), window=w
            )
            assert power == pytest.approx(expected, abs=1e-12)

    def test_zero_while_buffer_at_most_one_window(self):
        detector = StreamingDetector(capacity=30, window=10)
        for i in range(10):
            detector.observe(float(i), {"a": float(i % 3)})
            assert _power(detector, "a") == 0.0

    def test_zero_for_constant_attribute(self):
        detector = StreamingDetector(capacity=30, window=5)
        for i in range(30):
            detector.observe(float(i), {"a": 2.5})
        assert _power(detector, "a") == 0.0

    def test_nonfinite_cell_does_not_blind_the_lane(self):
        rng = np.random.default_rng(5)
        stream = rng.normal(size=60)
        stream[25] = np.inf
        stream[35] = -np.inf
        detector = StreamingDetector(capacity=30, window=5)
        for i, value in enumerate(stream):
            detector.observe(float(i), {"a": float(value)})
            if i < 25:
                continue
            window = detector.window
            assert np.isfinite(window.column("a")).all()
            power = _power(detector, "a")
            assert power > 0.0
            assert power == pytest.approx(
                potential_power(normalize_values(window.column("a")), window=5),
                abs=1e-12,
            )
        assert detector.sanitized_values == 2


# ---------------------------------------------------------------------------
# equivalence: streaming == batch == frozen seed
# ---------------------------------------------------------------------------
def assert_results_equal(streamed, batched):
    assert np.array_equal(streamed.mask, batched.mask)
    assert streamed.regions == batched.regions
    assert streamed.selected_attributes == batched.selected_attributes
    assert streamed.eps == batched.eps


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "anomaly_key,seed",
        [("cpu_saturation", 101), ("network_congestion", 202)],
    )
    def test_streaming_matches_batch_on_every_window(self, anomaly_key, seed):
        dataset, _, _ = simulate_run(
            anomaly_key, duration_s=40, seed=seed, normal_s=80
        )
        capacity = 60
        streaming = StreamingDetector(capacity=capacity)
        batch = AnomalyDetector()
        for i, (t, numeric_row, categorical_row) in enumerate(
            replay_rows(dataset)
        ):
            streaming.observe(t, numeric_row, categorical_row)
            if i + 1 < capacity:
                continue
            # the reference window comes from the source rows, not from
            # the detector's own storage
            rows = np.zeros(dataset.n_rows, dtype=bool)
            rows[i + 1 - capacity : i + 1] = True
            streamed = streaming.detect()
            batched = batch.detect(dataset.select(rows))
            assert_results_equal(streamed, batched)

    @pytest.mark.parametrize("anomaly_key,seed", [("lock_contention", 303)])
    def test_batch_matches_frozen_seed_detector(self, anomaly_key, seed):
        dataset, _, _ = simulate_run(
            anomaly_key, duration_s=40, seed=seed, normal_s=80
        )
        live = AnomalyDetector().detect(dataset)
        golden = GoldenAnomalyDetector().detect(dataset)
        assert_results_equal(live, golden)

    def test_tick_equals_observe_plus_detect(self):
        rng = np.random.default_rng(5)
        stream = rng.normal(size=80)
        stream[50:70] += 5.0
        a = StreamingDetector(capacity=40)
        b = StreamingDetector(capacity=40)
        for i, value in enumerate(stream):
            update = a.tick(float(i), {"a": float(value)})
            b.observe(float(i), {"a": float(value)})
            assert_results_equal(update.result, b.detect())


# ---------------------------------------------------------------------------
# delta emission
# ---------------------------------------------------------------------------
def step_stream(n=200, start=120, width=20, seed=9, attrs=4):
    # width stays under cluster_fraction × capacity (0.2 × 120 = 24 rows)
    # so the abnormal cluster remains flagged until the region closes
    rng = np.random.default_rng(seed)
    columns = {}
    for i in range(attrs):
        values = rng.normal(10.0, 0.3, n)
        values[start : start + width] += 20.0 + rng.normal(0, 0.3, width)
        columns[f"m{i}"] = values
    return columns


class TestClosedRegions:
    def test_region_emitted_exactly_once(self):
        columns = step_stream()
        detector = StreamingDetector(capacity=120)
        emitted = []
        for i in range(200):
            row = {a: float(v[i]) for a, v in columns.items()}
            update = detector.tick(float(i), row)
            emitted.extend(
                (region.start, region.end)
                for region in update.closed_regions
            )
        assert len(emitted) == 1
        start, end = emitted[0]
        assert abs(start - 120.0) <= 5.0
        assert abs(end - 139.0) <= 5.0

    def test_no_emission_without_anomaly(self):
        rng = np.random.default_rng(13)
        detector = StreamingDetector(capacity=60)
        for i in range(120):
            update = detector.tick(
                float(i), {"a": float(rng.normal()), "b": float(rng.normal())}
            )
            assert update.closed_regions == []


class TestIncrementalMode:
    """The approximate re-cluster mode is gone; only ``"exact"`` loads."""

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            StreamingDetector(mode="sometimes")
        with pytest.raises(ValueError, match="incremental"):
            StreamingDetector(mode="incremental")
        with pytest.raises(ValueError):
            StreamingDetector(capacity=1)


class TestStreamingDiagnoser:
    def test_closed_region_is_diagnosed(self):
        from repro import DBSherlock

        columns = step_stream(attrs=3)
        diagnoser = StreamingDiagnoser(
            DBSherlock(), StreamingDetector(capacity=120)
        )
        for i in range(200):
            row = {a: float(v[i]) for a, v in columns.items()}
            diagnoser.tick(float(i), row)
        assert len(diagnoser.diagnoses) == 1
        region, explanation = diagnoser.diagnoses[0]
        assert abs(region.start - 120.0) <= 5.0
        assert explanation.predicates is not None


class TestAttributeFilter:
    def test_only_filtered_attributes_selected(self):
        columns = step_stream(attrs=3)
        detector = StreamingDetector(capacity=120, attributes=["m0"])
        last = None
        for i in range(170):
            row = {a: float(v[i]) for a, v in columns.items()}
            last = detector.tick(float(i), row).result
        assert last.selected_attributes == ["m0"]


# ---------------------------------------------------------------------------
# checkpoints written by the per-stream detector this one replaced
# ---------------------------------------------------------------------------
def _outputs(update):
    result = update.result
    return {
        "mask": "".join("1" if flag else "0" for flag in result.mask),
        "regions": [[r.start, r.end] for r in result.regions],
        "selected": list(result.selected_attributes),
        "eps": result.eps,
        "closed": [[r.start, r.end] for r in update.closed_regions],
        "reclustered": update.reclustered,
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


CASES = ["main", "window_over_capacity", "categorical_only"]


class TestCheckpointFixture:
    """``tests/fixtures/stream_checkpoint_v1.json`` holds inputs, outputs
    and checkpoints recorded from the previous per-stream detector: exact
    mode with categorical columns, an active stuck-run quarantine and
    already-emitted regions (``main``), a window wider than the buffer,
    and rows with only categorical attributes."""

    @pytest.mark.parametrize("case", CASES)
    def test_same_input_same_checkpoint_bytes(self, frozen, case):
        trace = frozen[case]
        detector = StreamingDetector(**trace["params"])
        for t, numeric, categorical in trace["prefix"]:
            detector.tick(t, numeric, categorical)
        assert json.dumps(detector.checkpoint()) == json.dumps(
            trace["checkpoint"]
        )

    @pytest.mark.parametrize("case", CASES)
    def test_restored_checkpoint_continues_identically(self, frozen, case):
        trace = frozen[case]
        detector = StreamingDetector.from_checkpoint(trace["checkpoint"])
        outputs = [
            _outputs(detector.tick(t, numeric, categorical))
            for t, numeric, categorical in trace["ticks"]
        ]
        assert outputs == trace["outputs"]
        assert json.dumps(detector.checkpoint()) == json.dumps(
            trace["final_checkpoint"]
        )

    def test_main_trace_covers_the_hard_state(self, frozen):
        state = frozen["main"]["checkpoint"]
        assert state["params"]["mode"] == "exact"
        assert state["window"]["categorical_attrs"] == ["phase"]
        assert state["quarantined"] == ["flat"]
        assert state["emitted_ends"]
        assert any(out["closed"] for out in frozen["main"]["outputs"])

    def test_incremental_checkpoint_rejected(self, frozen):
        state = json.loads(json.dumps(frozen["main"]["checkpoint"]))
        state["params"]["mode"] = "incremental"
        with pytest.raises(ValueError, match="incremental"):
            StreamingDetector.from_checkpoint(state)
        state["params"]["mode"] = "exact"
        state["cluster_state"] = {"selected": ["m0"], "eps": 0.1}
        with pytest.raises(ValueError, match="exact"):
            StreamingDetector.from_checkpoint(state)

    def test_window_over_capacity_never_selects(self, frozen):
        outputs = frozen["window_over_capacity"]["outputs"]
        assert all(not out["selected"] for out in outputs)
        detector = StreamingDetector(capacity=10, window=30)
        assert detector.checkpoint()["params"]["window"] == 30

    def test_categorical_only_rows(self, frozen):
        state = frozen["categorical_only"]["final_checkpoint"]
        assert state["window"]["numeric_attrs"] == []
        assert state["dropped_ticks"] == 1
        assert state["sanitized_values"] == 1
        detector = StreamingDetector.from_checkpoint(state)
        window = detector.window
        assert window.numeric_attributes == []
        assert list(window.column("phase")) == (
            state["window"]["categorical"]["phase"]
        )
