"""Tests for attribute fingerprints and schema reconciliation.

The contract: a causal model trained under one collector schema still
diagnoses data from another — renames map back via fingerprints, drops
become *missing* (never mis-mapped), junk columns stay unmatched, and a
model with too little reconciled coverage abstains instead of scoring
garbage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.causal import CausalModel, CausalModelStore
from repro.core.explain import DBSherlock
from repro.core.persistence import (
    load_store,
    model_from_dict,
    model_to_dict,
    save_store,
)
from repro.core.predicates import NumericPredicate
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec
from repro.schema import (
    AttributeFingerprint,
    SchemaReconciler,
    collect_fingerprints,
    fingerprint_attributes,
    name_similarity,
    rank_with_reconciliation,
    value_similarity,
)


def without(dataset, attrs):
    """Copy of *dataset* minus the named attributes (a collector drop)."""
    drop = set(attrs)
    return Dataset(
        dataset.timestamps,
        numeric={
            a: dataset.column(a)
            for a in dataset.numeric_attributes
            if a not in drop
        },
        categorical={
            a: dataset.column(a)
            for a in dataset.categorical_attributes
            if a not in drop
        },
        name=dataset.name,
    )


def make_dataset(n=60, name="train"):
    """Small dataset with distinguishable attribute distributions."""
    rng = np.random.default_rng(7)
    ts = np.arange(n, dtype=float)
    numeric = {
        "os.cpu_user": 50.0 + 10.0 * rng.standard_normal(n),
        "os.disk_read": 4000.0 + 300.0 * rng.standard_normal(n),
        "db.lock_waits": np.abs(rng.standard_normal(n)),
        "net.bytes_in": 1e6 + 1e5 * rng.standard_normal(n),
    }
    categorical = {"db.state": np.array(["ok"] * (n // 2) + ["slow"] * (n - n // 2), dtype=object)}
    return Dataset(ts, numeric=numeric, categorical=categorical, name=name)


def make_anomalous_dataset(n=60, name="run"):
    """Dataset where cpu_user jumps mid-run (an actual anomaly)."""
    rng = np.random.default_rng(11)
    ts = np.arange(n, dtype=float)
    cpu = 30.0 + 2.0 * rng.standard_normal(n)
    cpu[n // 3 : 2 * n // 3] += 60.0
    numeric = {
        "os.cpu_user": cpu,
        "os.disk_read": 4000.0 + 300.0 * rng.standard_normal(n),
        "db.lock_waits": np.abs(rng.standard_normal(n)),
        "net.bytes_in": 1e6 + 1e5 * rng.standard_normal(n),
    }
    return Dataset(ts, numeric=numeric, name=name)


def anomaly_spec(n=60):
    return RegionSpec(
        abnormal=[Region(float(n // 3), float(2 * n // 3 - 1))],
        normal=[Region(0.0, float(n // 3 - 1))],
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
class TestFingerprint:
    def test_numeric_sketch(self):
        fp = AttributeFingerprint.from_values(
            "a", np.arange(100, dtype=float), is_numeric=True
        )
        assert fp.kind == "numeric"
        assert fp.n_samples == 100
        assert fp.lo == 0.0 and fp.hi == 99.0
        assert len(fp.quantiles) == 11
        assert fp.quantiles[5] == pytest.approx(49.5)

    def test_nan_samples_excluded(self):
        values = np.array([1.0, np.nan, 3.0, np.nan])
        fp = AttributeFingerprint.from_values("a", values, is_numeric=True)
        assert fp.n_samples == 2
        assert fp.lo == 1.0 and fp.hi == 3.0

    def test_all_nan_column(self):
        fp = AttributeFingerprint.from_values(
            "a", np.array([np.nan, np.nan]), is_numeric=True
        )
        assert fp.n_samples == 0
        assert fp.quantiles is None

    def test_categorical_domain(self):
        fp = AttributeFingerprint.from_values(
            "s", ["ok", "slow", "ok"], is_numeric=False
        )
        assert fp.kind == "categorical"
        assert fp.domain == frozenset({"ok", "slow"})

    def test_dict_round_trip(self):
        data = make_dataset()
        for attr in data.attributes:
            fp = AttributeFingerprint.from_values(
                attr, data.column(attr), data.is_numeric(attr)
            )
            assert AttributeFingerprint.from_dict(fp.to_dict()) == fp

    def test_merged_takes_hull_and_weighted_quantiles(self):
        a = AttributeFingerprint.from_values(
            "a", np.zeros(10), is_numeric=True
        )
        b = AttributeFingerprint.from_values(
            "a", np.full(30, 4.0), is_numeric=True
        )
        merged = a.merged(b)
        assert merged.lo == 0.0 and merged.hi == 4.0
        assert merged.n_samples == 40
        assert merged.quantiles[0] == pytest.approx(3.0)  # 0.25*0 + 0.75*4

    def test_identical_columns_score_one(self):
        values = np.random.default_rng(1).normal(size=50)
        a = AttributeFingerprint.from_values("x", values, True)
        b = AttributeFingerprint.from_values("y", values, True)
        assert value_similarity(a, b) == pytest.approx(1.0)

    def test_kind_mismatch_scores_zero(self):
        a = AttributeFingerprint.from_values("x", np.ones(5), True)
        b = AttributeFingerprint.from_values("x", ["1"] * 5, False)
        assert value_similarity(a, b) == 0.0

    def test_name_similarity_robust_to_prefix(self):
        assert name_similarity("os.cpu_user", "os.cpu_user") == 1.0
        prefixed = name_similarity("os.cpu_user", "v2.os.cpu_user")
        unrelated = name_similarity("os.cpu_user", "net.bytes_in")
        assert prefixed > 0.6 > unrelated


# ---------------------------------------------------------------------------
# Reconciler
# ---------------------------------------------------------------------------
class TestReconciler:
    def reconcile(self, dataset, model_data=None, **kwargs):
        fps = fingerprint_attributes(model_data or make_dataset())
        return SchemaReconciler(**kwargs).reconcile(fps, dataset)

    def test_identical_schema_all_exact(self):
        data = make_dataset()
        report = self.reconcile(data)
        assert all(m.method == "exact" for m in report.matches.values())
        assert report.missing == []
        assert report.apply(data) is data  # identity: cache-friendly

    def test_renamed_attributes_recovered_by_fingerprint(self):
        data = make_dataset().rename_attributes(
            {"os.cpu_user": "v2.os.cpu_user", "net.bytes_in": "v2.net.bytes_in"}
        )
        report = self.reconcile(data)
        assert report.matches["os.cpu_user"].dataset_attr == "v2.os.cpu_user"
        assert report.matches["os.cpu_user"].method == "fingerprint"
        assert report.matches["net.bytes_in"].dataset_attr == "v2.net.bytes_in"
        assert report.missing == []
        restored = report.apply(data)
        assert "os.cpu_user" in restored
        assert np.array_equal(
            restored.column("os.cpu_user"), data.column("v2.os.cpu_user")
        )

    def test_alias_table_wins_without_threshold(self):
        data = make_dataset().rename_attributes(
            {"db.lock_waits": "totally.different"}
        )
        report = self.reconcile(
            data, aliases={"totally.different": "db.lock_waits"}
        )
        match = report.matches["db.lock_waits"]
        assert match.method == "alias"
        assert match.dataset_attr == "totally.different"

    def test_dropped_attribute_reported_missing(self):
        data = without(make_dataset(), ["os.disk_read"])
        report = self.reconcile(data)
        assert report.missing == ["os.disk_read"]

    def test_below_threshold_is_missing_not_mismapped(self):
        # value-identical but unrelated name: combined score stays below
        # the threshold, so the model attribute must come back missing
        # rather than silently mapped onto a stranger
        train = make_dataset()
        data = train.rename_attributes({"os.cpu_user": "zz.qq"})
        report = self.reconcile(data)
        match = report.matches["os.cpu_user"]
        assert not match.matched
        assert match.method == "missing"
        assert "zz.qq" in report.unmatched_dataset

    def test_junk_columns_stay_unmatched(self):
        base = make_dataset()
        data = Dataset(
            base.timestamps,
            numeric={
                **{a: base.column(a) for a in base.numeric_attributes},
                "junk_0": np.random.default_rng(0).normal(size=base.n_rows),
            },
            categorical={
                a: base.column(a) for a in base.categorical_attributes
            },
        )
        report = self.reconcile(data)
        assert report.unmatched_dataset == ["junk_0"]

    def test_matching_is_one_to_one(self):
        data = make_dataset().rename_attributes(
            {"os.cpu_user": "v2.os.cpu_user"}
        )
        report = self.reconcile(data)
        targets = [
            m.dataset_attr for m in report.matches.values() if m.matched
        ]
        assert len(targets) == len(set(targets))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_drift_permutations(self, seed):
        """Any mix of rename/reorder/drop/add resolves every surviving
        attribute correctly and reports each dropped one missing."""
        rng = np.random.default_rng(seed)
        train = make_dataset()
        numeric = list(train.numeric_attributes)
        renamed = {
            a: f"v2.{a}" for a in numeric if rng.random() < 0.5
        }
        dropped = {
            a
            for a in numeric
            if a not in renamed and rng.random() < 0.3
        }
        drifted = without(train.rename_attributes(renamed), dropped)
        if rng.random() < 0.5:  # junk column
            drifted = Dataset(
                drifted.timestamps,
                numeric={
                    **{
                        a: drifted.column(a)
                        for a in drifted.numeric_attributes
                    },
                    "junk_x": rng.normal(size=drifted.n_rows),
                },
                categorical={
                    a: drifted.column(a)
                    for a in drifted.categorical_attributes
                },
            )
        # reorder: Dataset preserves insertion order, shuffle it
        order = list(drifted.numeric_attributes)
        rng.shuffle(order)
        drifted = Dataset(
            drifted.timestamps,
            numeric={a: drifted.column(a) for a in order},
            categorical={
                a: drifted.column(a) for a in drifted.categorical_attributes
            },
        )

        report = self.reconcile(drifted)
        for attr in numeric:
            match = report.matches[attr]
            if attr in dropped:
                assert not match.matched
            else:
                assert match.dataset_attr == renamed.get(attr, attr)
        assert all(m != "junk_x" or not report.matches[a].matched
                   for a, m in ((a, report.matches[a].dataset_attr)
                                for a in report.matches))


# ---------------------------------------------------------------------------
# Reconciled ranking: coverage penalty and abstention
# ---------------------------------------------------------------------------
class TestReconciledRanking:
    def build_model(self):
        data = make_anomalous_dataset()
        predicates = [NumericPredicate("os.cpu_user", lower=60.0)]
        return CausalModel(
            cause="CPU Saturation",
            predicates=predicates,
            fingerprints=fingerprint_attributes(data, ["os.cpu_user"]),
        )

    def test_rename_only_drift_scores_identically(self):
        model = self.build_model()
        test = make_anomalous_dataset(name="test")
        spec = anomaly_spec()
        clean = model.confidence(test, spec)

        drifted = test.rename_attributes({"os.cpu_user": "v2.os.cpu_user"})
        result = rank_with_reconciliation(
            [model], drifted, spec, SchemaReconciler()
        )
        assert result.abstained == []
        assert result.scores == [("CPU Saturation", clean)]

    def test_low_coverage_abstains_at_zero(self):
        model = self.build_model()
        test = without(make_anomalous_dataset(), ["os.cpu_user"])
        # the single predicate attribute is gone: coverage 0 < floor
        result = rank_with_reconciliation(
            [model], test, anomaly_spec(), SchemaReconciler()
        )
        assert result.abstained == ["CPU Saturation"]
        assert result.scores == [("CPU Saturation", 0.0)]

    def test_store_rank_with_reconciler(self):
        store = CausalModelStore()
        store.add(self.build_model())
        test = make_anomalous_dataset().rename_attributes(
            {"os.cpu_user": "v2.os.cpu_user"}
        )
        spec = anomaly_spec()
        scores = store.rank(test, spec, reconciler=SchemaReconciler())
        assert scores[0][0] == "CPU Saturation"
        assert scores[0][1] > 0.5

    def test_collect_fingerprints_unions_models(self):
        a = self.build_model()
        b = CausalModel(
            cause="Other",
            predicates=[NumericPredicate("os.disk_read", lower=0.0)],
        )
        fps = collect_fingerprints([a, b])
        assert fps["os.cpu_user"] is not None
        assert fps["os.disk_read"] is None  # legacy model, name-only


# ---------------------------------------------------------------------------
# Persistence: fingerprints round-trip, v1 files still load
# ---------------------------------------------------------------------------
class TestFingerprintPersistence:
    def test_model_round_trip_keeps_fingerprints(self):
        data = make_dataset()
        model = CausalModel(
            cause="X",
            predicates=[NumericPredicate("os.cpu_user", lower=1.0)],
            fingerprints=fingerprint_attributes(data, ["os.cpu_user"]),
        )
        restored = model_from_dict(model_to_dict(model))
        assert restored.fingerprints == model.fingerprints

    def test_store_round_trip(self, tmp_path):
        data = make_dataset()
        store = CausalModelStore()
        store.add(
            CausalModel(
                cause="X",
                predicates=[NumericPredicate("os.cpu_user", lower=1.0)],
                fingerprints=fingerprint_attributes(data, ["os.cpu_user"]),
            )
        )
        path = tmp_path / "models.json"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.get("X").fingerprints == store.get("X").fingerprints

    def test_v1_payload_still_loads(self, tmp_path):
        import json

        path = tmp_path / "legacy.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "models": [
                        {
                            "cause": "Legacy",
                            "n_merged": 2,
                            "predicates": [
                                {
                                    "kind": "numeric",
                                    "attr": "a",
                                    "lower": 0.5,
                                    "upper": None,
                                }
                            ],
                        }
                    ],
                }
            )
        )
        store = load_store(path)
        model = store.get("Legacy")
        assert model.n_merged == 2
        assert model.fingerprints == {}

    def test_merge_merges_fingerprints(self):
        data = make_dataset()
        fp = fingerprint_attributes(data, ["os.cpu_user"])
        a = CausalModel(
            "X", [NumericPredicate("os.cpu_user", lower=1.0)], fingerprints=fp
        )
        b = CausalModel(
            "X", [NumericPredicate("os.cpu_user", lower=2.0)], fingerprints=fp
        )
        merged = a.merge(b)
        assert merged.fingerprints["os.cpu_user"].n_samples == 2 * data.n_rows


# ---------------------------------------------------------------------------
# Batched fingerprints: one quantile pass, bitwise-equal per column
# ---------------------------------------------------------------------------
def _fingerprint_one_at_a_time(dataset, attrs):
    """The per-column path: one ``from_values`` per distinct present name."""
    out = {}
    for attr in attrs:
        if attr in dataset and attr not in out:
            out[attr] = AttributeFingerprint.from_values(
                attr, dataset.column(attr), dataset.is_numeric(attr)
            )
    return out


def _hex(value):
    return None if value is None else float(value).hex()


def _assert_fingerprints_bitwise_equal(got, want):
    assert list(got) == list(want)  # same names, same order
    for attr, fp in want.items():
        other = got[attr]
        assert other.name == fp.name and other.kind == fp.kind, attr
        assert other.n_samples == fp.n_samples, attr
        assert _hex(other.lo) == _hex(fp.lo), attr
        assert _hex(other.hi) == _hex(fp.hi), attr
        if fp.quantiles is None:
            assert other.quantiles is None, attr
        else:
            assert [q.hex() for q in other.quantiles] == [
                q.hex() for q in fp.quantiles
            ], attr
        assert other.domain == fp.domain, attr


_COLUMN_KINDS = ("noise", "nan", "all_nan", "constant", "signed_zero",
                 "categorical")


def _fingerprint_dataset(seed, n_rows, kinds):
    rng = np.random.default_rng(seed)
    numeric, categorical = {}, {}
    for i, kind in enumerate(kinds):
        name = f"{kind}_{i}"
        if kind == "categorical":
            categorical[name] = np.array(
                rng.choice(["ok", "slow", "stuck"], n_rows), dtype=object
            )
            continue
        values = rng.normal(0.0, 10.0 ** rng.integers(-3, 6), n_rows)
        if kind == "nan":
            values[rng.random(n_rows) < 0.3] = np.nan
        elif kind == "all_nan":
            values[:] = np.nan
        elif kind == "constant":
            values[:] = values[0]
        elif kind == "signed_zero":
            values = np.where(rng.random(n_rows) < 0.5, 0.0, -0.0)
        numeric[name] = values
    return Dataset(
        np.arange(n_rows, dtype=float), numeric=numeric,
        categorical=categorical,
    )


class TestBatchedFingerprints:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(1, 80),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1,
                       max_size=8),
        data=st.data(),
    )
    def test_equals_per_column_fingerprints(self, seed, n_rows, kinds, data):
        dataset = _fingerprint_dataset(seed, n_rows, kinds)
        names = dataset.attributes + ["absent.metric"]
        # repeats, absent names and a shuffled order
        attrs = data.draw(
            st.lists(st.sampled_from(names), max_size=2 * len(names))
        )
        _assert_fingerprints_bitwise_equal(
            fingerprint_attributes(dataset, attrs),
            _fingerprint_one_at_a_time(dataset, attrs),
        )
        _assert_fingerprints_bitwise_equal(
            fingerprint_attributes(dataset),
            _fingerprint_one_at_a_time(dataset, dataset.attributes),
        )

    def test_saved_store_bytes_unchanged(self, tmp_path):
        data = make_dataset()
        noisy = data.column("os.disk_read").copy()
        noisy[::7] = np.nan
        data = Dataset(
            data.timestamps,
            numeric={
                **{a: data.column(a) for a in data.numeric_attributes},
                "os.disk_write": noisy,
            },
            categorical={"db.state": data.column("db.state")},
        )
        attrs = ["db.state", "os.disk_write", "os.cpu_user", "ghost",
                 "os.cpu_user", "db.lock_waits"]
        predicates = [NumericPredicate("os.cpu_user", lower=1.0)]
        payloads = []
        for fingerprints in (
            _fingerprint_one_at_a_time(data, attrs),
            fingerprint_attributes(data, attrs),
        ):
            store = CausalModelStore()
            store.add(CausalModel("X", predicates, fingerprints=fingerprints))
            path = tmp_path / f"models{len(payloads)}.json"
            save_store(store, path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# DBSherlock facade: graceful degradation end-to-end
# ---------------------------------------------------------------------------
class TestFacadeDegradation:
    def trained_sherlock(self):
        sherlock = DBSherlock()
        data = make_anomalous_dataset()
        spec = anomaly_spec()
        explanation = sherlock.explain(data, spec)
        sherlock.feedback("CPU Saturation", explanation, dataset=data)
        return sherlock

    def test_feedback_with_dataset_stores_fingerprints(self):
        sherlock = self.trained_sherlock()
        model = sherlock.store.get("CPU Saturation")
        assert model.fingerprints
        assert set(model.fingerprints) <= set(model.attributes)

    def test_clean_explain_has_no_reconciliation(self):
        sherlock = self.trained_sherlock()
        explanation = sherlock.explain(make_anomalous_dataset(), anomaly_spec())
        assert explanation.reconciliation is None
        assert explanation.abstained == []

    def test_drifted_explain_reconciles_and_finds_cause(self):
        sherlock = self.trained_sherlock()
        drifted = make_anomalous_dataset().rename_attributes(
            {a: f"v2.{a}" for a in make_anomalous_dataset().numeric_attributes}
        )
        explanation = sherlock.explain(drifted, anomaly_spec())
        assert explanation.reconciliation is not None
        assert explanation.top_cause == "CPU Saturation"

    def test_total_schema_loss_abstains(self):
        sherlock = self.trained_sherlock()
        model_attrs = sherlock.store.get("CPU Saturation").attributes
        stripped = without(make_anomalous_dataset(), model_attrs)
        explanation = sherlock.explain(stripped, anomaly_spec())
        assert "CPU Saturation" in explanation.abstained
        assert explanation.top_cause is None


# ---------------------------------------------------------------------------
# Dataset.rename_attributes
# ---------------------------------------------------------------------------
class TestRenameAttributes:
    def test_preserves_order_and_values(self):
        data = make_dataset()
        renamed = data.rename_attributes({"os.cpu_user": "cpu"})
        assert renamed.numeric_attributes[0] == "cpu"
        assert np.array_equal(
            renamed.column("cpu"), data.column("os.cpu_user")
        )

    def test_collision_with_kept_attr_preserves_data(self):
        data = make_dataset()
        renamed = data.rename_attributes({"os.cpu_user": "os.disk_read"})
        assert np.array_equal(
            renamed.column("os.disk_read"), data.column("os.cpu_user")
        )
        assert np.array_equal(
            renamed.column("os.disk_read~orig"), data.column("os.disk_read")
        )

    def test_collapsing_rename_rejected(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            data.rename_attributes(
                {"os.cpu_user": "x", "os.disk_read": "x"}
            )
