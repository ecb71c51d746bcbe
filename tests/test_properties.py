"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.filtering import abnormal_blocks, fill_gaps, filter_partitions
from repro.core.partition import Label, NumericPartitionSpace
from repro.core.predicates import NumericPredicate
from repro.core.separation import normalize_values, separation_power
from repro.cluster.dbscan import DBSCAN, NOISE
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec
from tests.dbscan_oracle import k_distances

E, N, A = int(Label.EMPTY), int(Label.NORMAL), int(Label.ABNORMAL)

labels_arrays = st.lists(
    st.sampled_from([E, N, A]), min_size=1, max_size=40
).map(lambda xs: np.asarray(xs, dtype=np.int64))

float_arrays = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.float64))


class TestNormalizationProperties:
    @given(float_arrays)
    def test_output_in_unit_interval(self, values):
        out = normalize_values(values)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @given(float_arrays)
    def test_order_preserved(self, values):
        # monotone non-decreasing along the sorted input (ties may merge
        # nearby values after the division, so strict order is too strong)
        out = normalize_values(values)
        ordered = out[np.argsort(values, kind="stable")]
        assert np.all(np.diff(ordered) >= -1e-12)

    @given(float_arrays, st.floats(0.1, 100), st.floats(-100, 100))
    def test_affine_invariance(self, values, scale, shift):
        if float(values.max() - values.min()) < 1e-9:
            return  # (near-)constant vectors may collapse under scaling
        a = normalize_values(values)
        b = normalize_values(values * scale + shift)
        assert np.allclose(a, b, atol=1e-6)


class TestPartitionProperties:
    @given(float_arrays, st.integers(1, 50))
    def test_every_value_assigned_once(self, values, n_partitions):
        space = NumericPartitionSpace("a", values, n_partitions)
        idx = space.partition_indices(values)
        assert np.all(idx >= 0) and np.all(idx < space.n_partitions)

    @given(float_arrays, st.integers(1, 50))
    def test_bounds_contain_assigned_values(self, values, n_partitions):
        space = NumericPartitionSpace("a", values, n_partitions)
        idx = space.partition_indices(values)
        # width-scaled tolerance: values an ulp below a boundary may be
        # absorbed into the upper partition by floating-point rounding
        eps = 1e-9 * max(space.width, 1.0)
        for value, i in zip(values, idx):
            assert space.lower_bound(int(i)) - eps <= value
            assert value <= space.upper_bound(int(i)) + eps


class TestFilteringProperties:
    @given(labels_arrays)
    def test_filtering_never_adds_labels(self, labels):
        out = filter_partitions(labels)
        changed = out != labels
        assert np.all(out[changed] == E)

    @given(labels_arrays)
    def test_filtering_idempotent_on_uniform(self, labels):
        uniform = np.full_like(labels, A)
        assert np.array_equal(filter_partitions(uniform), uniform)

    @given(labels_arrays, st.floats(0.1, 20.0))
    def test_fill_gaps_total_when_both_present(self, labels, delta):
        has_a = (labels == A).any()
        has_n = (labels == N).any()
        if not (has_a and has_n):
            return
        out = fill_gaps(labels, delta)
        assert not (out == E).any()

    @given(labels_arrays, st.floats(0.1, 20.0))
    def test_fill_gaps_preserves_non_empty(self, labels, delta):
        if not ((labels == A).any() and (labels == N).any()):
            return
        out = fill_gaps(labels, delta)
        non_empty = labels != E
        assert np.array_equal(out[non_empty], labels[non_empty])

    @given(labels_arrays)
    def test_abnormal_blocks_cover_all_abnormal(self, labels):
        blocks = abnormal_blocks(labels)
        covered = np.zeros(labels.shape, dtype=bool)
        for start, end in blocks:
            covered[start : end + 1] = True
        assert np.array_equal(covered, labels == A)


class TestSeparationProperties:
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=20, max_size=60),
        st.floats(-10, 110),
    )
    def test_separation_power_bounded(self, values, bound):
        n = len(values)
        ds = Dataset(
            np.arange(n, dtype=float), numeric={"a": np.asarray(values)}
        )
        spec = RegionSpec(abnormal=[Region(0.0, float(n // 2))])
        power = separation_power(NumericPredicate("a", lower=bound), ds, spec)
        assert -1.0 <= power <= 1.0


class TestPredicateMergeProperties:
    bounds = st.floats(-1e6, 1e6, allow_nan=False)

    @given(bounds, bounds)
    def test_gt_merge_covers_both(self, b1, b2):
        p = NumericPredicate("a", lower=b1)
        q = NumericPredicate("a", lower=b2)
        merged = p.merge(q)
        probe = np.asarray([b1 + 1.0, b2 + 1.0])
        assert merged.evaluate_values(probe).all()

    @given(bounds, bounds, st.floats(-1e6, 1e6, allow_nan=False))
    def test_merge_is_superset(self, b1, b2, probe):
        p = NumericPredicate("a", lower=b1)
        q = NumericPredicate("a", lower=b2)
        merged = p.merge(q)
        values = np.asarray([probe])
        either = p.evaluate_values(values) | q.evaluate_values(values)
        assert not either.any() or merged.evaluate_values(values).all()


class TestDbscanProperties:
    points = st.lists(
        st.tuples(st.floats(-100, 100, allow_nan=False),
                  st.floats(-100, 100, allow_nan=False)),
        min_size=1,
        max_size=60,
    ).map(np.asarray)

    @settings(deadline=None)
    @given(points, st.floats(0.1, 50.0), st.integers(1, 6))
    def test_labels_complete(self, pts, eps, min_pts):
        labels = DBSCAN(eps=eps, min_pts=min_pts).fit_predict(pts)
        assert labels.shape[0] == pts.shape[0]
        assert all(l == NOISE or l >= 0 for l in labels)

    @settings(deadline=None)
    @given(points, st.integers(1, 5))
    def test_k_distances_non_negative(self, pts, k):
        kd = k_distances(pts, k)
        assert np.all(kd >= 0.0)

    @settings(deadline=None)
    @given(points, st.floats(0.1, 50.0))
    def test_cluster_members_at_least_min_pts_or_border(self, pts, eps):
        min_pts = 3
        labels = DBSCAN(eps=eps, min_pts=min_pts).fit_predict(pts)
        _, sizes = np.unique(labels[labels != NOISE], return_counts=True)
        # every cluster contains at least one core point's neighbourhood
        for size in sizes:
            assert size >= 1
