"""Equivalence and behavior tests for the repro.perf subsystem.

The perf layer (shared LabeledSpaceCache, batched numeric labeling,
parallel_map) must be **bitwise-identical** to the serial seed
implementations it replaces — these tests compare every fast path against
the frozen golden copies in ``tests/generator_oracle.py`` with exact
``==`` comparisons, no tolerances.
"""

import os

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.causal import (
    CausalModel,
    CausalModelStore,
    model_confidence,
    score_models,
)
from repro.core.generator import GeneratorConfig, PredicateGenerator
from repro.core.partition import (
    CategoricalPartitionSpace,
    NumericPartitionSpace,
)
from repro.core.predicates import CategoricalPredicate, NumericPredicate
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.eval.harness import build_suite, evaluate_single_models, rank_models
from repro.perf.cache import LabeledSpaceCache
from repro.core.filtering import abnormal_blocks, fill_gaps, filter_partitions
from repro.perf.parallel import parallel_map, resolve_jobs
from tests.generator_oracle import (
    _golden_predicate_on_partitions,
    golden_abnormal_blocks,
    golden_fill_gaps,
    golden_filter_partitions,
    golden_generate_with_artifacts,
    golden_model_confidence,
    golden_rank,
)


def _synthetic_dataset(seed: int = 11, n_rows: int = 120) -> Dataset:
    """A small mixed dataset with a step anomaly and awkward attributes."""
    rng = np.random.default_rng(seed)
    timestamps = np.arange(n_rows, dtype=float)
    abnormal = (timestamps >= 40) & (timestamps <= 69)
    step = rng.normal(10.0, 1.0, n_rows)
    step[abnormal] += 35.0
    drop = rng.normal(50.0, 2.0, n_rows)
    drop[abnormal] -= 30.0
    noise = rng.normal(0.0, 1.0, n_rows)
    constant = np.full(n_rows, 3.25)  # the width == 0 edge case
    near_constant = np.where(abnormal, 1.0, 0.0)
    modes = np.where(abnormal, "spike", "steady").astype(object)
    return Dataset(
        timestamps,
        numeric={
            "step": step,
            "drop": drop,
            "noise": noise,
            "constant": constant,
            "near_constant": near_constant,
        },
        categorical={"mode": modes},
    )


SPEC = RegionSpec.from_bounds([(40, 69)])


def _assert_artifacts_equal(ours, golden):
    assert set(ours) == set(golden)
    for attr in ours:
        a, b = ours[attr], golden[attr]
        assert a.is_numeric == b.is_numeric, attr
        assert np.array_equal(a.labels_initial, b.labels_initial), attr
        for name in ("labels_filtered", "labels_filled"):
            left, right = getattr(a, name), getattr(b, name)
            assert (left is None) == (right is None), (attr, name)
            if left is not None:
                assert np.array_equal(left, right), (attr, name)
        # exact float equality, not approx: the batch path must be bitwise
        # (a NaN difference — degraded telemetry — must be NaN on both)
        left, right = a.normalized_difference, b.normalized_difference
        assert left == right or (left != left and right != right), attr
        assert a.predicate == b.predicate, attr
        assert a.rejection == b.rejection, attr
        if a.is_numeric:
            assert a.space.minimum == b.space.minimum, attr
            assert a.space.maximum == b.space.maximum, attr
            assert a.space.width == b.space.width, attr
            assert a.space.n_partitions == b.space.n_partitions, attr
        else:
            assert a.space.categories == b.space.categories, attr


class TestBatchedLabeling:
    def test_batch_matches_serial_per_attribute(self):
        # two anomalies with one row count label in one pass, each row
        # with its own anomaly's region masks
        jobs = [
            (_synthetic_dataset(), SPEC),
            (_synthetic_dataset(seed=12), RegionSpec.from_bounds([(10, 29)])),
        ]
        got = LabeledSpaceCache().entries_batch(
            [(ds, spec, ds.numeric_attributes) for ds, spec in jobs], 250
        )
        for (ds, spec), batched in zip(jobs, got):
            abnormal, normal = spec.abnormal_mask(ds), spec.normal_mask(ds)
            for attr in ds.numeric_attributes:
                values = ds.column(attr)
                serial_space = NumericPartitionSpace(attr, values, 250)
                serial_labels = serial_space.label(values, abnormal, normal)
                entry = batched[attr]
                space, labels = entry.space, entry.labels_initial
                assert entry.is_numeric
                assert space.minimum == serial_space.minimum
                assert space.maximum == serial_space.maximum
                assert space.width == serial_space.width
                assert space.n_partitions == serial_space.n_partitions
                assert labels.dtype == serial_labels.dtype
                assert np.array_equal(labels, serial_labels)

    def test_constant_attribute_collapses_to_one_partition(self):
        ds = _synthetic_dataset()
        abnormal, normal = SPEC.abnormal_mask(ds), SPEC.normal_mask(ds)
        entry = LabeledSpaceCache().entries(ds, SPEC, ["constant"], 250)[
            "constant"
        ]
        space, labels = entry.space, entry.labels_initial
        assert space.n_partitions == 1
        assert space.width == 0
        assert labels.shape == (1,)
        values = ds.column("constant")
        serial = NumericPartitionSpace("constant", values, 250)
        assert np.array_equal(labels, serial.label(values, abnormal, normal))

    def test_empty_attribute_list(self):
        ds = _synthetic_dataset()
        cache = LabeledSpaceCache()
        assert cache.entries_batch([(ds, SPEC, [])], 250) == [{}]
        assert cache.entries_batch([], 250) == []
        assert cache.stats()["entries"] == 0

    def test_midpoints_matches_scalar_loop_bitwise(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            values = rng.normal(size=80) * float(rng.uniform(0.01, 5000))
            space = NumericPartitionSpace("x", values, 250)
            scalar = np.asarray(
                [space.midpoint(i) for i in range(space.n_partitions)]
            )
            assert np.array_equal(space.midpoints(), scalar)

    def test_midpoints_width_zero(self):
        space = NumericPartitionSpace("c", np.full(7, 2.5), 250)
        assert space.width == 0
        assert np.array_equal(space.midpoints(), np.asarray([2.5]))

    def test_from_stats_matches_constructor(self):
        values = np.linspace(-3.0, 17.0, 50)
        built = NumericPartitionSpace("x", values, 250)
        stats = NumericPartitionSpace.from_stats("x", -3.0, 17.0, 250)
        assert (built.minimum, built.maximum, built.width, built.n_partitions) == (
            stats.minimum, stats.maximum, stats.width, stats.n_partitions
        )


class TestCategoricalVectorization:
    def test_indices_match_dict_lookup_reference(self):
        rng = np.random.default_rng(5)
        cats = np.asarray(
            [f"c{int(i)}" for i in rng.integers(0, 12, 300)], dtype=object
        )
        space = CategoricalPartitionSpace("m", cats)
        queries = np.asarray(
            list(cats[:50]) + ["unseen", "c999", ""], dtype=object
        )
        reference = {c: i for i, c in enumerate(space.categories)}
        expected = np.asarray(
            [reference.get(str(v), -1) for v in queries], dtype=np.int64
        )
        got = space.partition_indices(queries)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_empty_query(self):
        space = CategoricalPartitionSpace("m", np.asarray(["a"], dtype=object))
        assert space.partition_indices(np.asarray([], dtype=object)).shape == (0,)

    def test_non_string_values_coerced(self):
        space = CategoricalPartitionSpace("m", np.asarray([1, 2, 2], dtype=object))
        got = space.partition_indices(np.asarray([2, 1, 3], dtype=object))
        assert got.tolist() == [space.categories.index("2"),
                                space.categories.index("1"), -1]


class TestGeneratorEquivalence:
    def test_batched_generator_matches_golden(self):
        ds = _synthetic_dataset()
        config = GeneratorConfig(theta=0.05)
        ours = PredicateGenerator(config).generate_with_artifacts(ds, SPEC)
        golden = golden_generate_with_artifacts(ds, SPEC, config)
        _assert_artifacts_equal(ours, golden)

    def test_cached_generator_matches_golden(self):
        ds = _synthetic_dataset()
        config = GeneratorConfig(theta=0.05)
        cache = LabeledSpaceCache()
        generator = PredicateGenerator(config, cache=cache)
        first = generator.generate_with_artifacts(ds, SPEC)
        golden = golden_generate_with_artifacts(ds, SPEC, config)
        _assert_artifacts_equal(first, golden)
        # a second run is served from cache and still identical
        second = generator.generate_with_artifacts(ds, SPEC)
        _assert_artifacts_equal(second, golden)
        assert cache.hits > 0

    def test_ablation_switches_match_golden(self):
        ds = _synthetic_dataset()
        for kwargs in (
            {"enable_filtering": False},
            {"enable_fill": False},
            {"enable_filtering": False, "enable_fill": False},
        ):
            config = GeneratorConfig(theta=0.05, **kwargs)
            ours = PredicateGenerator(config).generate_with_artifacts(ds, SPEC)
            golden = golden_generate_with_artifacts(ds, SPEC, config)
            _assert_artifacts_equal(ours, golden)


def _property_dataset(seed, n_rows, kinds, nan_modes, abnormal):
    """Columns of the given kinds, with NaN cells placed per *nan_modes*."""
    rng = np.random.default_rng(seed)
    normal = ~abnormal
    numeric = {}
    for j, (kind, nan_mode) in enumerate(zip(kinds, nan_modes)):
        if kind == "constant":
            col = np.full(n_rows, 2.5)
        elif kind == "grid":
            # few distinct values: interleaved labels, mixed partitions
            col = rng.integers(0, 6, n_rows).astype(float)
        elif kind == "step":
            col = rng.normal(0.0, 1.0, n_rows)
            col[abnormal] += rng.uniform(-8.0, 8.0)
        else:  # "interleaved": abnormal on even cells, normal on odd
            col = np.where(abnormal, 2.0 * rng.integers(0, 3, n_rows),
                           2.0 * rng.integers(0, 2, n_rows) + 1.0)
        if nan_mode == "sparse":
            col[rng.random(n_rows) < 0.2] = np.nan
        elif nan_mode == "dense":
            col[rng.random(n_rows) < 0.9] = np.nan
        elif nan_mode == "normal_gone":
            col[normal] = np.nan
        elif nan_mode == "all":
            col[:] = np.nan
        numeric[f"a{j}"] = col
    return Dataset(np.arange(n_rows, dtype=float), numeric=numeric)


def _outcome(rejection):
    """Coarse class of a rejection reason, for hypothesis statistics."""
    if rejection is None:
        return "kept"
    for prefix in (
        "degraded telemetry: only",
        "degraded telemetry: region mean",
        "no abnormal",
        "normalized difference",
        "abnormal block spans",
    ):
        if rejection.startswith(prefix):
            return prefix
    return "block count"


class TestBatchedGeneratorProperty:
    """The batched Algorithm 1 pass equals the per-attribute golden path."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(12, 60),
        kinds=st.lists(
            st.sampled_from(["constant", "grid", "step", "interleaved"]),
            min_size=1, max_size=6,
        ),
        nan_modes=st.lists(
            st.sampled_from(
                ["none", "none", "sparse", "dense", "normal_gone", "all"]
            ),
            min_size=6, max_size=6,
        ),
        two_intervals=st.booleans(),
        n_partitions=st.sampled_from([1, 2, 3, 5, 8, 250]),
        delta=st.sampled_from([0.5, 1.0, 10.0]),
        theta=st.sampled_from([0.0, 0.05, 0.2]),
        min_valid_fraction=st.sampled_from([0.25, 0.5]),
        enable_filtering=st.booleans(),
        enable_fill=st.booleans(),
    )
    def test_artifacts_match_golden(
        self, seed, n_rows, kinds, nan_modes, two_intervals, n_partitions,
        delta, theta, min_valid_fraction, enable_filtering, enable_fill,
    ):
        third = n_rows // 3
        bounds = (
            [(2, third), (2 * third, n_rows - 3)]
            if two_intervals
            else [(third, 2 * third)]
        )
        spec = RegionSpec.from_bounds(bounds)
        ts = np.arange(n_rows, dtype=float)
        abnormal = np.zeros(n_rows, dtype=bool)
        for lo, hi in bounds:
            abnormal |= (ts >= lo) & (ts <= hi)
        ds = _property_dataset(seed, n_rows, kinds, nan_modes, abnormal)
        config = GeneratorConfig(
            n_partitions=n_partitions, delta=delta, theta=theta,
            min_valid_fraction=min_valid_fraction,
            enable_filtering=enable_filtering, enable_fill=enable_fill,
        )
        golden = golden_generate_with_artifacts(ds, spec, config)
        for art in golden.values():
            event("outcome: " + _outcome(art.rejection))
            if art.space.n_partitions == 1:
                event("one-partition space")
            if (
                enable_fill
                and art.labels_filtered is not None
                and 2 in art.labels_filtered
                and 1 not in art.labels_filtered
            ):
                event("forced normal-mean partition")
        _assert_artifacts_equal(
            PredicateGenerator(config).generate_with_artifacts(ds, spec),
            golden,
        )
        cached = PredicateGenerator(config, cache=LabeledSpaceCache())
        for _visit in range(2):  # cold, then served from the memos
            _assert_artifacts_equal(
                cached.generate_with_artifacts(ds, spec), golden
            )

    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(0, 2**16),
                st.sampled_from([24, 24, 37]),
                st.lists(
                    st.sampled_from(
                        ["constant", "grid", "step", "interleaved"]
                    ),
                    min_size=1, max_size=4,
                ),
                st.sampled_from(["none", "none", "sparse", "normal_gone"]),
                st.integers(0, 2),
            ),
            min_size=2, max_size=5,
        ),
        enable_filtering=st.booleans(),
        enable_fill=st.booleans(),
        cached=st.booleans(),
    )
    def test_batch_of_jobs_matches_golden_per_job(
        self, jobs, enable_filtering, enable_fill, cached,
    ):
        # one pass over several anomalies (different row counts, region
        # shapes and NaN patterns) equals each job's golden artifacts
        pairs = []
        for seed, n_rows, kinds, nan_mode, shape in jobs:
            third = n_rows // 3
            if shape == 0:
                spec = RegionSpec.from_bounds([(third, 2 * third)])
            elif shape == 1:
                spec = RegionSpec.from_bounds(
                    [(2, third), (2 * third, n_rows - 3)]
                )
            else:
                spec = RegionSpec.from_bounds(
                    [(third, third + 5)], normal=[(0, third - 1)]
                )
            abnormal = spec.abnormal_mask(
                Dataset(np.arange(n_rows, dtype=float))
            )
            pairs.append((
                _property_dataset(
                    seed, n_rows, kinds, [nan_mode] * len(kinds), abnormal
                ),
                spec,
            ))
        config = GeneratorConfig(
            n_partitions=8, enable_filtering=enable_filtering,
            enable_fill=enable_fill,
        )
        generator = PredicateGenerator(
            config, cache=LabeledSpaceCache() if cached else None
        )
        got = generator.generate_with_artifacts_batch(pairs)
        assert len(got) == len(pairs)
        for arts, (ds, spec) in zip(got, pairs):
            _assert_artifacts_equal(
                arts, golden_generate_with_artifacts(ds, spec, config)
            )

    def test_filtering_can_leave_only_abnormal_partitions(self):
        # labels A N A N A: filtering erases both Normal partitions and
        # the middle Abnormal one, so the fill must force the partition
        # holding the normal mean (value 2 -> partition 2) to Normal
        abnormal = np.array([True, False, True, False, True] * 4)
        values = np.tile([0.0, 1.0, 2.0, 3.0, 4.0], 4)
        ts = np.arange(values.size, dtype=float)
        ds = Dataset(ts, numeric={"x": values})
        spec = RegionSpec.from_bounds(
            [(t, t) for t in ts[abnormal]]
        )
        config = GeneratorConfig(n_partitions=5, theta=0.0)
        ours = PredicateGenerator(config).generate_with_artifacts(ds, spec)
        art = ours["x"]
        assert art.labels_initial.tolist() == [2, 1, 2, 1, 2]
        assert art.labels_filtered.tolist() == [2, 0, 0, 0, 2]
        assert art.labels_filled.tolist() == [2, 1, 1, 1, 2]
        _assert_artifacts_equal(
            ours, golden_generate_with_artifacts(ds, spec, config)
        )

    def test_normal_region_without_valid_samples_is_rejected(self):
        # the forced normal-mean partition is undefined when every normal
        # cell is NaN; the attribute is rejected instead of raising
        ts = np.arange(40, dtype=float)
        abnormal = (ts >= 10) & (ts <= 29)
        x = np.where(abnormal, ts, np.nan)
        ds = Dataset(ts, numeric={"x": x})
        spec = RegionSpec.from_bounds([(10, 29)])
        art = PredicateGenerator().generate_with_artifacts(ds, spec)["x"]
        assert art.labels_filled is None and art.predicate is None
        assert art.rejection == "degraded telemetry: region mean undefined"


class TestConfidenceEquivalence:
    def _model(self):
        ds = _synthetic_dataset()
        conjunction = PredicateGenerator(GeneratorConfig(theta=0.05)).generate(
            ds, SPEC
        )
        predicates = conjunction.predicates + [
            NumericPredicate("missing_attr", lower=1.0)
        ]
        return ds, CausalModel("Synthetic Cause", predicates)

    def test_confidence_matches_golden_bitwise(self):
        ds, model = self._model()
        other = _synthetic_dataset(seed=99)
        cache = LabeledSpaceCache()
        for dataset in (ds, other):
            for apply_filtering in (True, False):
                golden = golden_model_confidence(
                    model.predicates, dataset, SPEC,
                    apply_filtering=apply_filtering,
                )
                serial = model_confidence(
                    model.predicates, dataset, SPEC,
                    apply_filtering=apply_filtering,
                )
                cached = model_confidence(
                    model.predicates, dataset, SPEC,
                    apply_filtering=apply_filtering, cache=cache,
                )
                assert golden == serial == cached

    def test_confidence_on_constant_attribute(self):
        ds = _synthetic_dataset()
        predicate = NumericPredicate("constant", lower=1.0)
        golden = golden_model_confidence([predicate], ds, SPEC)
        assert model_confidence([predicate], ds, SPEC) == golden
        assert (
            model_confidence([predicate], ds, SPEC, cache=LabeledSpaceCache())
            == golden
        )

    def test_confidence_with_categorical_predicate(self):
        ds = _synthetic_dataset()
        predicate = CategoricalPredicate.of("mode", ["spike"])
        golden = golden_model_confidence([predicate], ds, SPEC)
        assert golden == 1.0
        assert model_confidence([predicate], ds, SPEC) == golden
        assert (
            model_confidence([predicate], ds, SPEC, cache=LabeledSpaceCache())
            == golden
        )

    def test_store_rank_matches_golden(self):
        ds, model = self._model()
        decoy = CausalModel("Decoy", [NumericPredicate("noise", lower=100.0)])
        store = CausalModelStore()
        store.add(model)
        store.add(decoy)
        assert store.rank(ds, SPEC) == golden_rank([model, decoy], ds, SPEC)
        shared = LabeledSpaceCache()
        assert store.rank(ds, SPEC, cache=shared) == golden_rank(
            [model, decoy], ds, SPEC
        )
        assert rank_models([model, decoy], ds, SPEC) == golden_rank(
            [model, decoy], ds, SPEC
        )


# ----------------------------------------------------------------------
# Eq. 3 kernel: one pass over every model equals per-predicate terms
# ----------------------------------------------------------------------
_KERNEL_NUMERIC = (
    "step", "drop", "grid", "constant", "normal_gone", "abnormal_gone"
)


def _kernel_dataset(seed, n_rows, start, length):
    """Numeric and categorical columns, some with an empty region."""
    rng = np.random.default_rng(seed)
    timestamps = np.arange(n_rows, dtype=float)
    abnormal = (timestamps >= start) & (timestamps <= start + length - 1)
    step = rng.normal(0.0, 1.0, n_rows)
    step[abnormal] += rng.uniform(-6.0, 6.0)
    drop = rng.normal(0.0, 3.0, n_rows)  # other region sizes than step
    drop[abnormal] -= rng.uniform(0.0, 20.0)
    normal_gone = rng.normal(5.0, 1.0, n_rows)
    normal_gone[~abnormal] = np.nan  # no Normal partitions
    abnormal_gone = rng.normal(5.0, 1.0, n_rows)
    abnormal_gone[abnormal] = np.nan  # no Abnormal partitions
    modes = np.where(abnormal, "spike", "steady").astype(object)
    modes[rng.random(n_rows) < 0.1] = "other"
    return Dataset(
        timestamps,
        numeric={
            "step": step,
            "drop": drop,
            "grid": rng.integers(0, 6, n_rows).astype(float),
            "constant": np.full(n_rows, 2.5),
            "normal_gone": normal_gone,
            "abnormal_gone": abnormal_gone,
        },
        categorical={"mode": modes},
    ), RegionSpec.from_bounds([(start, start + length - 1)])


@st.composite
def _kernel_predicate(draw, dataset, n_partitions):
    """gt / lt / range / categorical predicates, bounds often equal to a
    partition representative (the strict-inequality edge), NaN or
    infinite."""
    attr = draw(st.sampled_from(_KERNEL_NUMERIC + ("mode", "absent")))
    if attr == "mode" or draw(st.integers(0, 9)) == 0:
        return CategoricalPredicate.of(
            attr,
            draw(st.sets(st.sampled_from(["spike", "steady", "other"]),
                         min_size=1)),
        )
    if attr in dataset:
        space = NumericPartitionSpace(
            attr, dataset.column(attr), n_partitions
        )
        representative = st.integers(0, space.n_partitions - 1).map(
            space.midpoint
        )
    else:
        representative = st.floats(-10.0, 10.0)
    bound = st.one_of(
        representative,
        st.floats(-10.0, 10.0),
        st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    )
    kind = draw(st.sampled_from(["gt", "lt", "range"]))
    if kind == "gt":
        return NumericPredicate(attr, lower=draw(bound))
    if kind == "lt":
        return NumericPredicate(attr, upper=draw(bound))
    lower, upper = draw(bound), draw(bound)
    if lower > upper:
        lower, upper = upper, lower
    if lower == upper:
        return NumericPredicate(attr, lower=lower)
    return NumericPredicate(attr, lower=lower, upper=upper)


def _golden_terms(predicates, dataset, spec, n_partitions, apply_filtering):
    terms = []
    for predicate in predicates:
        term = _golden_predicate_on_partitions(
            predicate, dataset, spec, n_partitions, apply_filtering
        )
        terms.append(0.0 if term is None else term)
    return terms


class TestEquationThreeKernel:
    """``score_models`` equals the seed's per-predicate Eq. 3, bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(24, 90),
        span=st.tuples(st.floats(0.1, 0.6), st.floats(0.1, 0.4)),
        n_partitions=st.sampled_from([7, 40, 250]),
        apply_filtering=st.booleans(),
        data=st.data(),
    )
    def test_scores_equal_in_order_golden_terms(
        self, seed, n_rows, span, n_partitions, apply_filtering, data
    ):
        start = int(span[0] * n_rows)
        length = max(2, int(span[1] * n_rows))
        dataset, spec = _kernel_dataset(seed, n_rows, start, length)
        predicate = _kernel_predicate(dataset, n_partitions)
        models = data.draw(
            # past 8 terms np.sum would reassociate: in order is required
            st.lists(st.lists(predicate, max_size=12), max_size=5)
        )
        shared = LabeledSpaceCache()
        for cache in (None, shared, shared):  # private, cold, warm
            got = score_models(
                models, dataset, spec, n_partitions, apply_filtering, cache
            )
            assert len(got.confidences) == len(models)
            for m, predicates in enumerate(models):
                terms = _golden_terms(
                    predicates, dataset, spec, n_partitions, apply_filtering
                )
                total = 0.0
                for term in terms:
                    total += term
                want = total / len(terms) if terms else 0.0
                assert [t.hex() for t in got.terms[m]] == [
                    t.hex() for t in terms
                ], predicates
                assert got.confidences[m].hex() == want.hex(), predicates
                event("empty model" if not predicates else "model")

    def test_long_models_add_their_terms_in_predicate_order(self):
        # 16 diverse terms: a reassociating sum (np.sum's pairwise blocks)
        # moves the last bit on most seeds, the in-order loop must not
        spec = RegionSpec.from_bounds([(50, 79)])
        abnormal = (np.arange(120) >= 50) & (np.arange(120) < 80)
        reassociation_differs = False
        for seed in range(8):
            rng = np.random.default_rng(seed)
            columns, predicates = {}, []
            for i in range(16):
                values = rng.normal(0.0, 1.0 + i, 120)
                values[abnormal] += rng.uniform(-3.0, 3.0) * (1.0 + i)
                columns[f"m{i}"] = values
                space = NumericPartitionSpace(f"m{i}", values, 250)
                predicates.append(NumericPredicate(
                    f"m{i}", lower=space.midpoint(int(rng.integers(0, 250)))
                ))
            dataset = Dataset(np.arange(120, dtype=float), numeric=columns)
            terms = _golden_terms(predicates, dataset, spec, 250, True)
            total = 0.0
            for term in terms:
                total += term
            reassociation_differs |= total != float(np.sum(terms))
            got = score_models([predicates], dataset, spec)
            assert got.confidences[0].hex() == (total / len(terms)).hex()
        assert reassociation_differs

    def test_term_matrix_sums_to_all_cause_scores(self):
        from repro.core.explain import DBSherlock

        sherlock = DBSherlock()
        for seed in (3, 4, 5):
            teach = _synthetic_dataset(seed=seed)
            sherlock.feedback(
                f"cause {seed}", sherlock.explain(teach, SPEC), teach
            )
        sherlock.store.add(
            CausalModel("decoy", [NumericPredicate("noise", lower=0.5),
                                  NumericPredicate("ghost", upper=1.0)])
        )
        dataset = _synthetic_dataset(seed=21)
        explanation = sherlock.explain(dataset, SPEC)
        models = list(sherlock.store)
        scores = score_models(
            [model.predicates for model in models], dataset, SPEC,
            sherlock.config.n_partitions, cache=sherlock.cache,
        )
        reported = dict(explanation.all_cause_scores)
        assert len(reported) == len(models)
        for model, terms in zip(models, scores.terms):
            total = 0.0
            for term in terms:  # predicate order
                total += term
            assert (total / len(terms)).hex() == reported[model.cause].hex()


class TestLabeledSpaceCache:
    def test_hit_and_miss_counters(self):
        ds = _synthetic_dataset()
        cache = LabeledSpaceCache()
        cache.entries(ds, SPEC, ["step"], 250)
        # masks miss + entry miss
        assert cache.misses == 2 and cache.hits == 0
        cache.entries(ds, SPEC, ["step"], 250)
        assert cache.hits == 1
        cache.masks(ds, SPEC)
        assert cache.hits == 2

    def test_ranking_k_models_labels_each_attribute_once(self):
        ds = _synthetic_dataset()
        cache = LabeledSpaceCache()
        predicate = NumericPredicate("step", lower=20.0)
        models = [CausalModel(f"cause {i}", [predicate]) for i in range(8)]
        rank_models(models, ds, SPEC, cache=cache)
        labeled_misses = cache.stats()["entries"]
        assert labeled_misses == 1  # one attribute labeled once, not 8x
        assert cache.hits >= 7

    def test_explain_then_rank_labels_a_categorical_attribute_once(
        self, monkeypatch
    ):
        from repro.core.explain import DBSherlock

        labeled = []
        label = CategoricalPartitionSpace.label

        def counting_label(space, *args, **kwargs):
            labeled.append(space.attr)
            return label(space, *args, **kwargs)

        monkeypatch.setattr(CategoricalPartitionSpace, "label", counting_label)
        ds = _synthetic_dataset()
        sherlock = DBSherlock()
        sherlock.explain(ds, SPEC)
        assert labeled == ["mode"]
        spike = CategoricalPredicate.of("mode", ["spike"])
        sherlock.store.add(CausalModel("mode switch", [spike]))
        hits, misses = sherlock.cache.hits, sherlock.cache.misses
        assert sherlock.diagnose(ds, SPEC) == [("mode switch", 1.0)]
        assert labeled == ["mode"]  # ranking reused explain's labeling
        assert sherlock.cache.misses == misses
        assert sherlock.cache.hits > hits

    def test_distinct_n_partitions_are_distinct_entries(self):
        ds = _synthetic_dataset()
        cache = LabeledSpaceCache()
        a = cache.entries(ds, SPEC, ["step"], 250)["step"]
        b = cache.entries(ds, SPEC, ["step"], 50)["step"]
        assert a.space.n_partitions == 250
        assert b.space.n_partitions == 50

    def test_structurally_equal_specs_share_entries(self):
        ds = _synthetic_dataset()
        cache = LabeledSpaceCache()
        cache.entries(ds, RegionSpec.from_bounds([(40, 69)]), ["step"], 250)
        before = cache.misses
        cache.entries(ds, RegionSpec.from_bounds([(40, 69)]), ["step"], 250)
        assert cache.misses == before and cache.hits >= 1

    def test_invalidate_dataset(self):
        ds = _synthetic_dataset()
        other = _synthetic_dataset(seed=42)
        cache = LabeledSpaceCache()
        cache.entries(ds, SPEC, ["step"], 250)
        cache.entries(other, SPEC, ["step"], 250)
        assert cache.stats()["datasets"] == 2
        cache.invalidate(ds)
        assert cache.stats()["datasets"] == 1
        misses = cache.misses
        # re-computed after invalidation
        cache.entries(ds, SPEC, ["step"], 250)
        assert cache.misses > misses
        cache.invalidate()
        assert cache.stats()["entries"] == 0
        assert cache.stats()["mask_entries"] == 0

    def test_region_partitions_batch_equals_one_at_a_time(self):
        from repro.perf.cache import _UNSET, build_region_partitions

        ds = _synthetic_dataset()
        attrs = ["step", "drop", "noise", "constant", "near_constant", "mode"]
        for apply_filtering in (True, False):
            batch = LabeledSpaceCache().entries(ds, SPEC, attrs, 250)
            alone = LabeledSpaceCache().entries(ds, SPEC, attrs, 250)
            build_region_partitions(list(batch.values()), apply_filtering)
            for attr in attrs:
                slot = (
                    "_regions_filtered" if apply_filtering
                    else "_regions_initial"
                )
                assert getattr(batch[attr], slot) is not _UNSET
                got = batch[attr].region_partitions(apply_filtering)
                want = alone[attr].region_partitions(apply_filtering)
                assert (got is None) == (want is None), attr
                if got is not None:
                    for left, right in zip(got, want):
                        assert np.array_equal(left, right), attr
                    reps = alone[attr].representatives()
                    labels = (
                        alone[attr].filtered_labels() if apply_filtering
                        else alone[attr].labels_initial
                    )
                    assert np.array_equal(got[0], reps[labels == 2]), attr
                    assert np.array_equal(got[1], reps[labels == 1]), attr

    def test_peek_norm_means_ignores_a_dead_datasets_reused_id(self):
        # a new dataset that lands on a dead one's id must not read the
        # dead one's θ-gate means (the lookup goes through the token)
        cache = LabeledSpaceCache()
        timestamps = np.arange(12, dtype=float)
        column = np.arange(12, dtype=float)
        spec = RegionSpec.from_bounds([(4, 7)])
        for _ in range(50):
            dead = Dataset(timestamps, numeric={"a": column})
            cache.publish_normalized_means([(dead, spec, {"a": (0.1, 0.2)})])
            dead_id = id(dead)
            del dead
            reborn = Dataset(timestamps, numeric={"a": column})
            if id(reborn) == dead_id:
                break
        else:
            pytest.skip("the allocator never reused a dataset's id")
        assert cache.peek_norm_means(reborn, spec, ["a"]) == {}

    def test_garbage_collected_dataset_is_evicted(self):
        import gc

        cache = LabeledSpaceCache()
        ds = _synthetic_dataset()
        cache.entries(ds, SPEC, ["step"], 250)
        assert cache.stats()["datasets"] == 1
        del ds
        gc.collect()
        assert cache.stats()["datasets"] == 0
        assert cache.stats()["entries"] == 0


def _square(x):  # top-level: must be picklable for the process pool
    return x * x


class TestParallelMap:
    def test_serial_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_order_preserved(self):
        items = [5, 1, 4, 1, 3]
        assert parallel_map(_square, items, jobs=2) == [25, 1, 16, 1, 9]

    def test_unpicklable_work_falls_back_serially(self):
        assert parallel_map(lambda x: x + 1, [1, 2], jobs=2) == [2, 3]

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2  # explicit argument wins
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert resolve_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == 1

    def test_jobs_env_one_is_operator_veto(self, monkeypatch):
        # REPRO_JOBS=1 means "run inline, never spawn a pool" and beats
        # even an explicit jobs= argument from library callers
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert resolve_jobs() == 1
        assert resolve_jobs(4) == 1
        assert parallel_map(lambda x: x * 2, [1, 2, 3], jobs=4) == [2, 4, 6]


class TestGeneratorConfigReplace:
    def test_replace_overrides_and_preserves(self):
        config = GeneratorConfig(n_partitions=100, delta=5.0)
        replaced = config.replace(theta=0.5)
        assert replaced.theta == 0.5
        assert replaced.n_partitions == 100
        assert replaced.delta == 5.0
        assert replaced.enable_filtering is config.enable_filtering

    def test_replace_rejects_unknown_field(self):
        # the hand-rolled dict silently ignored typos; dataclasses.replace
        # raises, and will carry any future config field automatically
        with pytest.raises(TypeError):
            GeneratorConfig().replace(no_such_field=1)


class TestHarnessParallelEquivalence:
    """Parallel suite simulation is bit-identical to the serial path."""

    KWARGS = dict(
        durations=[20, 30],
        anomaly_keys=["cpu_saturation", "network_congestion"],
        seed=321,
        normal_s=40,
    )

    def test_build_suite_parallel_identical(self):
        serial = build_suite(jobs=1, **self.KWARGS)
        parallel = build_suite(jobs=2, **self.KWARGS)
        assert list(serial) == list(parallel)
        for cause in serial:
            for a, b in zip(serial[cause], parallel[cause]):
                assert a.cause == b.cause and a.seed == b.seed
                assert np.array_equal(a.dataset.timestamps, b.dataset.timestamps)
                assert a.dataset.attributes == b.dataset.attributes
                for attr in a.dataset.numeric_attributes:
                    assert np.array_equal(
                        a.dataset.column(attr), b.dataset.column(attr)
                    ), attr
                assert [(r.start, r.end) for r in a.spec.abnormal] == [
                    (r.start, r.end) for r in b.spec.abnormal
                ]

    def test_evaluate_single_models_parallel_identical(self):
        suite = build_suite(jobs=1, **self.KWARGS)
        serial = evaluate_single_models(suite, jobs=1)
        parallel = evaluate_single_models(suite, jobs=2)
        assert [
            (r.cause, r.mean_margin, r.mean_f1, r.top1_accuracy)
            for r in serial
        ] == [
            (r.cause, r.mean_margin, r.mean_f1, r.top1_accuracy)
            for r in parallel
        ]


class TestVectorizedFiltering:
    """Scan-based filtering/gap-filling match the seed Python loops exactly."""

    @staticmethod
    def _random_labels(rng, n):
        # Weight Empty heavily so left/right scans hit long gaps.
        return rng.choice([0, 1, 2], size=n, p=[0.5, 0.25, 0.25]).astype(np.int64)

    def test_filter_partitions_matches_golden(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 7, 50, 250):
            for _ in range(20):
                labels = self._random_labels(rng, n)
                assert np.array_equal(
                    filter_partitions(labels), golden_filter_partitions(labels)
                ), labels

    def test_fill_gaps_matches_golden(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 7, 50, 250):
            for delta in (1.0, 5.0, 10.0):
                for _ in range(10):
                    labels = self._random_labels(rng, n)
                    normal_mean = int(rng.integers(0, n))
                    assert np.array_equal(
                        fill_gaps(labels, delta, normal_mean),
                        golden_fill_gaps(labels, delta, normal_mean),
                    ), (labels, delta)

    def test_abnormal_blocks_matches_golden(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 5, 250):
            for _ in range(20):
                labels = self._random_labels(rng, n)
                assert abnormal_blocks(labels) == golden_abnormal_blocks(labels)

    def test_lone_label_kept(self):
        labels = np.asarray([1, 2, 1, 1], dtype=np.int64)
        assert np.array_equal(
            filter_partitions(labels), golden_filter_partitions(labels)
        )


# ----------------------------------------------------------------------
# Row-batched kernels: stacked passes vs the serial seed functions
# ----------------------------------------------------------------------
class TestBatchKernelsBitwise:
    """The generator and fleet kernels are row-independent.

    Every kernel here feeds the predicate generator's batched Algorithm 1
    pass or the fleet storm path (``cluster_windows_batch``); each
    row/lane of a batched result must be bitwise-identical to the same
    computation on that row alone.
    """

    @staticmethod
    def _random_labels(rng, m, n):
        return rng.choice([0, 1, 2], size=(m, n), p=[0.5, 0.25, 0.25]).astype(
            np.int64
        )

    def test_filter_partitions_batch_rows_match_serial(self):
        from repro.core.filtering import filter_partitions_batch

        rng = np.random.default_rng(91)
        for n in (1, 2, 3, 7, 50, 250):
            rows = self._random_labels(rng, 24, n)
            batched = filter_partitions_batch(rows)
            for i in range(rows.shape[0]):
                assert np.array_equal(
                    batched[i], filter_partitions(rows[i])
                ), (n, i)

    def test_fill_gaps_batch_rows_match_serial(self):
        from repro.core.partition import Label
        from repro.core.filtering import fill_gaps_batch

        rng = np.random.default_rng(92)
        for n in (2, 3, 7, 50, 250):
            rows = self._random_labels(rng, 40, n)
            # abnormal-only rows need a normal_mean_partition (see the
            # golden property test); keep the rows that fill without one
            has_abnormal = (rows == int(Label.ABNORMAL)).any(axis=1)
            has_normal = (rows == int(Label.NORMAL)).any(axis=1)
            rows = rows[has_normal | ~has_abnormal]
            for delta in (0.5, 1.0, 10.0):
                batched = fill_gaps_batch(rows, delta)
                for i in range(rows.shape[0]):
                    assert np.array_equal(
                        batched[i], fill_gaps(rows[i], delta)
                    ), (n, i, delta)

    def test_fill_gaps_batch_rejects_abnormal_only_rows(self):
        from repro.core.partition import Label
        from repro.core.filtering import fill_gaps_batch

        row = np.full(6, int(Label.EMPTY), dtype=np.int64)
        row[2] = int(Label.ABNORMAL)
        with pytest.raises(ValueError):
            fill_gaps_batch(row[None, :], 1.0)

    def test_abnormal_blocks_batch_rows_match_serial(self):
        from repro.core.filtering import abnormal_blocks_batch

        rng = np.random.default_rng(93)
        for n in (1, 2, 5, 50, 250):
            rows = self._random_labels(rng, 24, n)
            batched = abnormal_blocks_batch(rows)
            for i in range(rows.shape[0]):
                assert batched[i] == abnormal_blocks(rows[i]), (n, i)

    def test_normalize_columns_batch_rows_match_serial(self):
        from repro.core.separation import normalize_values
        from repro.perf.batch import normalize_columns_batch

        rng = np.random.default_rng(94)
        matrix = rng.normal(size=(6, 80)) * rng.uniform(0.1, 100.0, (6, 1))
        matrix[3] = 7.5  # constant row: span == 0 edge case
        batched = normalize_columns_batch(matrix)
        for i in range(matrix.shape[0]):
            assert np.array_equal(batched[i], normalize_values(matrix[i])), i

    def test_dbscan_labels_batch_matches_serial(self):
        from repro.cluster.dbscan import dbscan_labels_batch
        from tests.dbscan_oracle import dbscan as oracle_dbscan

        rng = np.random.default_rng(95)
        for n, d in ((6, 1), (20, 2), (40, 3)):
            pts = rng.normal(size=(12, n, d))
            pts[::2, : n // 2] += 8.0  # force real clusters in half the sets
            pts[1] = pts[1, :1]  # degenerate: all points identical
            labels, eps = dbscan_labels_batch(pts, min_pts=3)
            for i in range(pts.shape[0]):
                want_labels, want_eps = oracle_dbscan(pts[i], min_pts=3)
                assert np.array_equal(labels[i], want_labels), (n, d, i)
                assert eps[i] == want_eps, (n, d, i)

    def test_dbscan_labels_stacks_mixed_widths_match_serial(self, monkeypatch):
        import repro.cluster.dbscan as dbscan_mod
        from repro.cluster.dbscan import dbscan_labels_stacks
        from tests.dbscan_oracle import dbscan as oracle_dbscan

        rng = np.random.default_rng(96)
        n = 30
        stacks = []
        for g, d in ((3, 1), (5, 4), (1, 2), (4, 9)):
            pts = rng.normal(size=(g, n, d))
            pts[::2, : n // 3] += 6.0
            stacks.append(pts)
        stacks[1][2] = stacks[1][2, :1]  # degenerate lane mid-stack
        # blocks of three lanes: stacks split across blocks and blocks
        # mix widths
        monkeypatch.setattr(dbscan_mod, "_BATCH_ELEMENT_BUDGET", 3 * n * n)
        labels, eps = dbscan_labels_stacks(stacks, min_pts=3)
        lanes = [lane for stack in stacks for lane in stack]
        assert labels.shape == (len(lanes), n)
        for i, lane in enumerate(lanes):
            want_labels, want_eps = oracle_dbscan(lane, min_pts=3)
            assert np.array_equal(labels[i], want_labels), i
            assert eps[i] == want_eps, i
        with pytest.raises(ValueError):
            dbscan_labels_stacks([stacks[0], stacks[0][:, :-1]])


# ----------------------------------------------------------------------
# Sharded cache: concurrency, GC-pressure eviction, publication races
# ----------------------------------------------------------------------
class TestShardedCacheConcurrency:
    def test_reports_its_shard_count(self):
        # the stripe count is a module constant, not a constructor knob
        from repro.perf.cache import _N_SHARDS

        assert LabeledSpaceCache().stats()["shards"] == _N_SHARDS == 16
        with pytest.raises(TypeError):
            LabeledSpaceCache(n_shards=1)

    def test_concurrent_readers_share_one_published_entry(self):
        import threading

        cache = LabeledSpaceCache()
        datasets = [_synthetic_dataset(seed=s) for s in range(4)]
        n_threads = 8
        results = [[] for _ in range(n_threads)]
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(k):
            try:
                barrier.wait()
                for ds in datasets:
                    for attr in ("step", "drop", "noise"):
                        results[k].append(
                            cache.entries(ds, SPEC, [attr], 250)[attr]
                        )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # first writer wins: every thread got the *same* entry object
        for k in range(1, n_threads):
            assert all(
                a is b for a, b in zip(results[0], results[k])
            ), k
        stats = cache.stats()
        assert stats["entries"] == len(datasets) * 3
        assert stats["datasets"] == len(datasets)

    def test_overlapping_requests_merge_into_one_table(self):
        # threads publish different attribute subsets of the same
        # (dataset, spec, n) table while others read it lock-free: no
        # attribute may be lost or published twice
        import sys
        import threading

        cache = LabeledSpaceCache()
        datasets = [_synthetic_dataset(seed=s) for s in range(3)]
        attrs = ["step", "drop", "noise", "mode"]
        n_threads = 8
        results = [{} for _ in range(n_threads)]
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(k):
            try:
                barrier.wait()
                for ds in datasets:
                    wanted = attrs[k % 4:] + attrs[: k % 4 - 1]
                    for attr, entry in cache.entries(
                        ds, SPEC, wanted, 250
                    ).items():
                        results[k][(id(ds), attr)] = entry
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,))
                for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        winners = {}
        for found in results:
            for key, entry in found.items():
                assert winners.setdefault(key, entry) is entry, key
        assert len(winners) == len(datasets) * len(attrs)
        assert cache.stats()["entries"] == len(datasets) * len(attrs)

    def test_gc_pressure_does_not_race_eviction(self):
        """The historical failure: a dataset's weakref callback mutating the
        tables mid-iteration (``RuntimeError: dictionary changed size during
        iteration``).  Eviction is now deferred to cache entry points, so
        hammering ``stats()``/``resident_bytes()``/lookups while datasets are
        created and collected must never raise."""
        import gc
        import threading

        cache = LabeledSpaceCache()
        errors = []
        stop = threading.Event()

        def hammer():
            keep = _synthetic_dataset(seed=999)
            try:
                while not stop.is_set():
                    cache.stats()
                    cache.resident_bytes()
                    cache.entries(keep, SPEC, ["step"], 50)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(120):
                ds = _synthetic_dataset(seed=i % 9, n_rows=96)
                cache.entries(ds, SPEC, ["step"], 50)
                cache.masks(ds, SPEC)
                del ds
                if i % 7 == 0:
                    gc.collect()
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        gc.collect()
        stats = cache.stats()  # entry point: drains pending evictions
        assert stats["datasets"] <= 4 + 1  # the threads' keep-alives at most
        assert stats["evictions"] > 0

    def test_seeded_normalized_means_match_computed(self):
        from repro.core.separation import normalize_values, region_means

        ds = _synthetic_dataset()
        fresh = LabeledSpaceCache()
        PredicateGenerator(cache=fresh).generate(ds, SPEC)
        want = fresh.peek_norm_means(ds, SPEC, ["step"])["step"]
        seeded = LabeledSpaceCache()
        abnormal, normal = SPEC.abnormal_mask(ds), SPEC.normal_mask(ds)
        means = region_means(
            normalize_values(ds.column("step")), abnormal, normal
        )
        seeded.publish_normalized_means([(ds, SPEC, {"step": means})])
        assert seeded.peek_norm_means(ds, SPEC, ["step"]) == {"step": want}
        # the θ gate reads a published pair instead of recomputing it
        planted = LabeledSpaceCache()
        planted.publish_normalized_means([(ds, SPEC, {"step": (0.75, 0.25)})])
        art = PredicateGenerator(cache=planted).generate_with_artifacts(
            ds, SPEC, ["step"]
        )["step"]
        assert art.normalized_difference == 0.5


# ----------------------------------------------------------------------
# explain_batch: identical Explanations to serial explain
# ----------------------------------------------------------------------
class TestExplainBatchEquivalence:
    def _jobs(self, k=6):
        return [(_synthetic_dataset(seed=100 + i), SPEC) for i in range(k)]

    def _seeded_sherlock(self):
        from repro.core.explain import DBSherlock

        sherlock = DBSherlock()
        teach = _synthetic_dataset(seed=3)
        explanation = sherlock.explain(teach, SPEC)
        sherlock.feedback("step storm", explanation, teach)
        return sherlock

    @staticmethod
    def _assert_explanations_equal(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.predicates.predicates == b.predicates.predicates
            assert a.pruned == b.pruned
            assert a.causes == b.causes
            assert a.all_cause_scores == b.all_cause_scores
            assert a.abstained == b.abstained

    def test_explain_batch_identical_to_serial(self):
        jobs = self._jobs()
        want = [
            self._seeded_sherlock().explain(ds, spec) for ds, spec in jobs
        ]
        got = self._seeded_sherlock().explain_batch(jobs)
        self._assert_explanations_equal(got, want)

    def test_degraded_jobs_fall_back_to_serial_inside_batch(self):
        # a NaN-ridden dataset takes the NaN-aware per-row steps inside
        # the batched pass and must still match serial explain exactly
        rng = np.random.default_rng(5)
        ts = np.arange(120, dtype=float)
        abnormal = (ts >= 40) & (ts <= 69)
        step = rng.normal(10.0, 1.0, 120)
        step[abnormal] += 30.0
        noisy = rng.normal(size=120)
        noisy[::9] = np.nan
        nan_ds = Dataset(ts, numeric={"step": step, "noisy": noisy})
        jobs = self._jobs(3) + [(nan_ds, SPEC)]
        want = [
            self._seeded_sherlock().explain(ds, spec) for ds, spec in jobs
        ]
        got = self._seeded_sherlock().explain_batch(jobs)
        self._assert_explanations_equal(got, want)

    def test_cached_normalized_means_bitwise_equal_to_fresh_cache(self):
        # the θ-gate means the batched generator publishes must equal the
        # serial single-attribute computation to the last bit
        from repro.core.separation import normalize_values, region_means

        jobs = self._jobs()
        sherlock = self._seeded_sherlock()
        sherlock.explain_batch(jobs)
        checked = 0
        for ds, spec in jobs:
            cached = sherlock.cache.peek_norm_means(
                ds, spec, ds.numeric_attributes
            )
            for attr, pair in cached.items():
                want = region_means(
                    normalize_values(ds.column(attr)), *spec.masks(ds)
                )
                assert pair == want, (attr, pair, want)
                checked += 1
        assert checked >= len(jobs) * 3

    def test_mixed_batch_identical_to_serial(self):
        # row counts, region shapes and a detector job (no spec) mixed in
        # one batch: each result still equals its serial explain
        short = _synthetic_dataset(seed=21, n_rows=90)
        explicit = RegionSpec.from_bounds([(40, 69)], normal=[(0, 30)])
        jobs = [
            (_synthetic_dataset(seed=20), SPEC),
            (short, RegionSpec.from_bounds([(40, 55), (60, 69)])),
            (_synthetic_dataset(seed=22), explicit),
            (_synthetic_dataset(seed=23), None),
            (_synthetic_dataset(seed=24, n_rows=90), SPEC),
        ]
        want = [
            self._seeded_sherlock().explain(ds, spec) for ds, spec in jobs
        ]
        got = self._seeded_sherlock().explain_batch(jobs)
        self._assert_explanations_equal(got, want)

    def test_single_job_batch_is_plain_explain(self):
        jobs = self._jobs(1)
        want = self._seeded_sherlock().explain(*jobs[0])
        got = self._seeded_sherlock().explain_batch(jobs)
        self._assert_explanations_equal(got, [want])
