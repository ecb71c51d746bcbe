"""Tests for the fault-injection subsystem (``repro.faults``).

The load-bearing properties: every plan is bitwise deterministic under a
fixed seed on both consumption paths (table and stream), every injector
is an exact no-op at rate/magnitude 0, injectors compose in delivery
order, and the NaN-hardened core pipeline degrades gracefully (batch ==
serial with NaN present, neutral spaces for unusable columns).
"""

import numpy as np
import pytest

from repro.core.anomaly import impute_missing, potential_power
from repro.core.partition import Label, NumericPartitionSpace
from repro.core.separation import normalize_values
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.faults import (
    ClockSkew,
    CollectorCrash,
    CollectorFault,
    DropTicks,
    DuplicateTicks,
    FaultPlan,
    NaNValues,
    SchemaDrift,
    SpikeCorruption,
    StuckAtCounter,
)
from repro.perf.batch import potential_power_batch
from repro.perf.cache import LabeledSpaceCache


def make_dataset(n=120, seed=3, name="clean"):
    rng = np.random.default_rng(seed)
    return Dataset(
        np.arange(n, dtype=float),
        numeric={
            "cpu": rng.normal(50.0, 5.0, size=n),
            "io": rng.normal(200.0, 20.0, size=n),
            "lat": rng.normal(10.0, 1.0, size=n),
        },
        categorical={"mode": np.asarray(["steady"] * n, dtype=object)},
        name=name,
    )


def make_ticks(n=120, seed=3):
    ds = make_dataset(n, seed)
    num = {a: ds.column(a) for a in ds.numeric_attributes}
    cat = {a: ds.column(a) for a in ds.categorical_attributes}
    for i, t in enumerate(ds.timestamps):
        yield (
            float(t),
            {a: float(num[a][i]) for a in num},
            {a: cat[a][i] for a in cat},
        )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if not np.array_equal(a.timestamps, b.timestamps):
        return False
    if a.numeric_attributes != b.numeric_attributes:
        return False
    if a.categorical_attributes != b.categorical_attributes:
        return False
    for attr in a.numeric_attributes:
        if not np.array_equal(
            a.column(attr), b.column(attr), equal_nan=True
        ):
            return False
    for attr in a.categorical_attributes:
        if not np.array_equal(a.column(attr), b.column(attr)):
            return False
    return True


def drain(ticks):
    out = []
    for t, numeric, categorical in ticks:
        out.append((t, dict(numeric), dict(categorical)))
    return out


def ticks_equal(a, b) -> bool:
    """Elementwise tick equality treating NaN == NaN (dict ``==`` doesn't)."""
    if len(a) != len(b):
        return False
    for (ta, na, ca), (tb, nb, cb) in zip(a, b):
        if ta != tb or ca != cb or na.keys() != nb.keys():
            return False
        for attr in na:
            va, vb = na[attr], nb[attr]
            if va != vb and not (np.isnan(va) and np.isnan(vb)):
                return False
    return True


MODERATE = [
    DropTicks(0.05),
    DuplicateTicks(0.03),
    NaNValues(0.02),
    SpikeCorruption(0.01),
    StuckAtCounter(),
    ClockSkew(offset_s=1.5, drift=0.001),
]


# ---------------------------------------------------------------------------
# determinism + no-op properties
# ---------------------------------------------------------------------------
class TestPlanProperties:
    def test_table_path_deterministic(self):
        plan = FaultPlan(MODERATE, seed=11)
        a = plan.apply(make_dataset())
        b = plan.apply(make_dataset())
        assert datasets_equal(a, b)

    def test_stream_path_deterministic(self):
        plan = FaultPlan(MODERATE, seed=11)
        a = drain(plan.wrap(make_ticks()))
        b = drain(plan.wrap(make_ticks()))
        assert ticks_equal(a, b)

    def test_different_seeds_differ(self):
        ds = make_dataset()
        a = FaultPlan([NaNValues(0.1)], seed=1).apply(ds)
        b = FaultPlan([NaNValues(0.1)], seed=2).apply(ds)
        assert not datasets_equal(a, b)

    def test_zero_rate_plan_is_identity_on_table(self):
        plan = FaultPlan(
            [
                DropTicks(0.0),
                DuplicateTicks(0.0),
                NaNValues(0.0),
                SpikeCorruption(0.0),
                ClockSkew(),
                SchemaDrift(),
            ],
            seed=5,
        )
        ds = make_dataset()
        assert datasets_equal(plan.apply(ds), ds)

    def test_zero_rate_plan_is_identity_on_stream(self):
        plan = FaultPlan(
            [DropTicks(0.0), DuplicateTicks(0.0), NaNValues(0.0)], seed=5
        )
        assert drain(plan.wrap(make_ticks())) == drain(make_ticks())

    def test_empty_plan_is_identity(self):
        plan = FaultPlan([], seed=0)
        assert datasets_equal(plan.apply(make_dataset()), make_dataset())
        assert drain(plan.wrap(make_ticks())) == drain(make_ticks())

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            DropTicks(1.5)
        with pytest.raises(ValueError):
            NaNValues(-0.1)
        with pytest.raises(ValueError):
            ClockSkew(drift=-1.0)

    def test_describe_lists_injectors(self):
        plan = FaultPlan([DropTicks(0.1), NaNValues(0.02)], seed=0)
        desc = plan.describe()
        assert len(desc) == 2
        assert "DropTicks" in desc[0] and "NaNValues" in desc[1]


# ---------------------------------------------------------------------------
# per-injector behavior
# ---------------------------------------------------------------------------
class TestInjectors:
    def test_drop_removes_rows(self):
        out = FaultPlan([DropTicks(0.3)], seed=1).apply(make_dataset())
        assert 0 < out.n_rows < 120

    def test_drop_stream_preserves_order(self):
        times = [t for t, _, _ in FaultPlan([DropTicks(0.3)], seed=1).wrap(make_ticks())]
        assert times == sorted(times)
        assert 0 < len(times) < 120

    def test_duplicate_repeats_payload_not_timestamp(self):
        out = FaultPlan([DuplicateTicks(0.5)], seed=2).apply(make_dataset())
        assert np.array_equal(out.timestamps, make_dataset().timestamps)
        col = out.column("cpu")
        assert (np.diff(col) == 0.0).any()  # some stale re-deliveries

    def test_nan_injects_nans(self):
        out = FaultPlan([NaNValues(0.1)], seed=3).apply(make_dataset())
        assert sum(
            int(np.isnan(out.column(a)).sum()) for a in out.numeric_attributes
        ) > 0

    def test_nan_respects_attr_filter(self):
        out = FaultPlan([NaNValues(0.2, attrs=["cpu"])], seed=3).apply(
            make_dataset()
        )
        assert np.isnan(out.column("cpu")).any()
        assert not np.isnan(out.column("io")).any()
        assert not np.isnan(out.column("lat")).any()

    def test_stuck_at_freezes_tail(self):
        out = FaultPlan(
            [StuckAtCounter(attr="io", onset=40)], seed=4
        ).apply(make_dataset())
        tail = out.column("io")[40:]
        assert np.all(tail == tail[0])
        head = out.column("io")[:40]
        assert not np.all(head == head[0])

    def test_stuck_at_stream_matches_table(self):
        plan = FaultPlan([StuckAtCounter(attr="io", onset=40)], seed=4)
        stream_io = [r["io"] for _, r, _ in plan.wrap(make_ticks())]
        table_io = plan.apply(make_dataset()).column("io")
        assert np.array_equal(np.asarray(stream_io), table_io)

    def test_spike_inflates_values(self):
        clean = make_dataset()
        out = FaultPlan([SpikeCorruption(0.05, magnitude=25.0)], seed=5).apply(
            clean
        )
        diff = out.column("cpu") - clean.column("cpu")
        assert (diff > 0).any() and (diff == 0).sum() > 100

    def test_clock_skew_remaps_time_and_spec(self):
        plan = FaultPlan([ClockSkew(offset_s=2.0, drift=0.01)], seed=6)
        out = plan.apply(make_dataset())
        assert out.timestamps[0] == pytest.approx(2.0)
        assert out.timestamps[100] == pytest.approx(2.0 + 1.01 * 100.0)
        spec = plan.transform_spec(RegionSpec.from_bounds([(10.0, 20.0)]))
        assert spec.abnormal[0].start == pytest.approx(2.0 + 1.01 * 10.0)
        assert spec.abnormal[0].end == pytest.approx(2.0 + 1.01 * 20.0)

    def test_schema_drift_renames_drops_adds(self):
        out = FaultPlan(
            [SchemaDrift(rename_rate=1.0, add_junk=2)], seed=7
        ).apply(make_dataset())
        assert all(
            a.startswith("v2.") or a.startswith("junk_")
            for a in out.numeric_attributes
        )
        assert "junk_0" in out.numeric_attributes
        dropped = FaultPlan([SchemaDrift(drop_rate=1.0)], seed=7).apply(
            make_dataset()
        )
        assert dropped.numeric_attributes == []

    def test_collector_crash_raises_after_at_tick(self):
        plan = FaultPlan([CollectorCrash(at_tick=30)], seed=8)
        delivered = []
        with pytest.raises(CollectorFault):
            for tick in plan.wrap(make_ticks()):
                delivered.append(tick)
        assert len(delivered) == 30

    def test_collector_crash_table_removes_downtime(self):
        out = FaultPlan([CollectorCrash(at_tick=30, down_s=5)], seed=8).apply(
            make_dataset()
        )
        assert out.n_rows == 115
        assert 30.0 not in out.timestamps and 34.0 not in out.timestamps

    def test_composition_applies_in_delivery_order(self):
        # skew first then drop: surviving timestamps are skewed ones
        plan = FaultPlan(
            [ClockSkew(offset_s=100.0), DropTicks(0.2)], seed=9
        )
        out = plan.apply(make_dataset())
        assert out.timestamps[0] >= 100.0
        assert out.n_rows < 120


# ---------------------------------------------------------------------------
# degraded-telemetry hardening in the core pipeline
# ---------------------------------------------------------------------------
class TestNaNHardening:
    def make_spec(self):
        return RegionSpec.from_bounds([(60.0, 90.0)])

    def test_labeling_survives_nan(self):
        ds = FaultPlan([NaNValues(0.05)], seed=10).apply(make_dataset())
        spec = self.make_spec()
        for attr in ds.numeric_attributes:
            space = NumericPartitionSpace.from_dataset(ds, attr, 250)
            labels = space.labeled_from_spec(ds, spec)
            assert set(np.unique(labels)) <= {
                int(Label.EMPTY),
                int(Label.NORMAL),
                int(Label.ABNORMAL),
            }

    def test_batch_labeling_matches_serial_with_nan(self):
        ds = FaultPlan([NaNValues(0.05)], seed=10).apply(make_dataset())
        spec = self.make_spec()
        attrs = ds.numeric_attributes
        abnormal = spec.abnormal_mask(ds)
        normal = spec.normal_mask(ds)
        batch = LabeledSpaceCache().entries(ds, spec, attrs, 250)
        for attr in attrs:
            space = NumericPartitionSpace.from_dataset(ds, attr, 250)
            serial = space.label(ds.column(attr), abnormal, normal)
            b_space, b_labels = batch[attr].space, batch[attr].labels_initial
            assert b_space.n_partitions == space.n_partitions
            assert np.array_equal(serial, b_labels), attr

    def test_batch_potential_power_matches_serial_with_nan(self):
        ds = FaultPlan([NaNValues(0.08)], seed=12).apply(make_dataset())
        attrs = ds.numeric_attributes
        matrix = np.stack(
            [normalize_values(ds.column(a)) for a in attrs], axis=0
        )
        batch = potential_power_batch(matrix, window=20)
        for j, attr in enumerate(attrs):
            serial = potential_power(matrix[j], window=20)
            assert batch[j] == serial, attr

    def test_all_nan_column_yields_neutral_space(self):
        values = np.full(50, np.nan)
        space = NumericPartitionSpace("x", values, 250)
        assert space.n_partitions == 1
        idx = space.partition_indices(values)
        assert np.all(idx == -1)

    def test_partition_indices_nan_to_minus_one(self):
        values = np.array([1.0, np.nan, 3.0, np.nan, 5.0])
        space = NumericPartitionSpace("x", values, 4)
        idx = space.partition_indices(values)
        assert idx[1] == -1 and idx[3] == -1
        assert idx[0] >= 0 and idx[2] >= 0 and idx[4] >= 0

    def test_normalize_values_with_nan_preserves_clean_cells(self):
        values = np.array([0.0, np.nan, 5.0, 10.0])
        normalized = normalize_values(values)
        assert np.isnan(normalized[1])
        assert normalized[0] == 0.0 and normalized[3] == 1.0

    def test_normalize_values_zero_span_guard(self):
        values = np.array([4.0, np.nan, 4.0, 4.0])
        normalized = normalize_values(values)
        assert np.isnan(normalized[1])
        assert np.all(normalized[[0, 2, 3]] == 0.0)

    def test_impute_missing_fills_with_column_median(self):
        matrix = np.array([[1.0, np.nan], [3.0, 8.0], [np.nan, 10.0]])
        filled = impute_missing(matrix)
        assert filled[2, 0] == 2.0  # median of [1, 3]
        assert filled[0, 1] == 9.0  # median of [8, 10]
        assert not np.isnan(filled).any()

    def test_impute_missing_clean_matrix_untouched(self):
        matrix = np.arange(12.0).reshape(4, 3)
        filled = impute_missing(matrix)
        assert filled is matrix  # no copy on the clean path

    def test_impute_missing_all_nan_column_falls_back(self):
        matrix = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        filled = impute_missing(matrix)
        assert np.all(filled[:, 0] == 0.5)
