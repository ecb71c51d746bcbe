"""Unit tests for the from-scratch DBSCAN implementation.

The batched kernel is checked against the reference DBSCAN in
:mod:`tests.dbscan_oracle`, whose k-dist list is pinned by hand-worked
geometry here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.dbscan import DBSCAN, NOISE, dbscan_labels_stacks
from tests.dbscan_oracle import dbscan as oracle_dbscan, k_distances


def two_blobs(n=30, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n, 2))
    b = rng.normal(separation, 0.3, size=(n, 2))
    return np.vstack([a, b])


class TestKDistances:
    """The reference's k-dist list, which the kernel's ε is held to."""

    def test_shape(self):
        pts = two_blobs()
        assert k_distances(pts, 3).shape == (60,)

    def test_line_geometry(self):
        pts = np.asarray([[0.0], [1.0], [2.0], [3.0]])
        kd = k_distances(pts, 1)
        assert list(kd) == [1.0, 1.0, 1.0, 1.0]

    def test_k_larger_than_points_clamped(self):
        pts = np.asarray([[0.0], [1.0]])
        kd = k_distances(pts, 10)
        assert kd.shape == (2,)

    def test_single_point(self):
        assert k_distances(np.asarray([[0.0]]), 3)[0] == 0.0

    def test_empty(self):
        assert k_distances(np.zeros((0, 2)), 3).size == 0

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            k_distances(two_blobs(), 0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            k_distances(np.zeros(5), 1)


class TestDBSCAN:
    def test_two_blobs_two_clusters(self):
        labels = DBSCAN(eps=1.0, min_pts=3).fit_predict(two_blobs())
        assert set(labels[:30]) == {labels[0]}
        assert set(labels[30:]) == {labels[30]}
        assert labels[0] != labels[30]

    def test_isolated_point_is_noise(self):
        pts = np.vstack([two_blobs(), [[100.0, 100.0]]])
        labels = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        assert labels[-1] == NOISE

    def test_auto_eps_heuristic(self):
        from tests.stream_oracle import golden_k_distances

        clusterer = DBSCAN(eps=None, min_pts=3).fit(two_blobs())
        kd = golden_k_distances(two_blobs(), 3)
        expected = max(float(kd.max()) / 4.0, float(np.quantile(kd, 0.95)))
        assert clusterer.eps_ == pytest.approx(expected)

    def test_min_pts_controls_core_points(self):
        # a pair of close points cannot form a cluster with min_pts=3
        pts = np.asarray([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0], [50.1, 50.0]])
        labels = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        assert all(l == NOISE for l in labels)

    def test_min_pts_one_every_point_core(self):
        pts = np.asarray([[0.0, 0.0], [100.0, 100.0]])
        labels = DBSCAN(eps=1.0, min_pts=1).fit_predict(pts)
        assert NOISE not in labels
        assert labels[0] != labels[1]

    def test_border_point_joins_cluster(self):
        # chain: dense core plus one point within eps of the edge
        core = np.asarray([[0.0], [0.1], [0.2]])
        border = np.asarray([[1.0]])
        labels = DBSCAN(eps=0.9, min_pts=3).fit_predict(np.vstack([core, border]))
        assert labels[3] == labels[0]

    def test_identical_points_single_cluster(self):
        pts = np.zeros((10, 3))
        labels = DBSCAN(eps=None, min_pts=3).fit_predict(pts)
        assert set(labels) == {0}

    def test_1d_input_promoted(self):
        labels = DBSCAN(eps=1.0, min_pts=2).fit_predict(
            np.asarray([0.0, 0.1, 50.0, 50.1])
        )
        assert labels[0] == labels[1] != labels[2]

    def test_empty_input(self):
        clusterer = DBSCAN(eps=1.0).fit(np.zeros((0, 2)))
        assert clusterer.labels_.size == 0

    def test_cluster_sizes(self):
        clusterer = DBSCAN(eps=1.0, min_pts=3).fit(two_blobs())
        sizes = clusterer.cluster_sizes()
        assert sorted(sizes.values()) == [30, 30]

    def test_cluster_sizes_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DBSCAN().cluster_sizes()

    def test_bad_min_pts_rejected(self):
        with pytest.raises(ValueError):
            DBSCAN(min_pts=0)

    def test_deterministic(self):
        pts = two_blobs(seed=5)
        l1 = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        l2 = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        assert np.array_equal(l1, l2)

    def test_single_point_min_pts_one_is_cluster(self):
        # regression: a lone point with min_pts=1 is its own (trivially
        # dense) cluster, not noise
        labels = DBSCAN(eps=1.0, min_pts=1).fit_predict(np.asarray([[0.0]]))
        assert list(labels) == [0]
        labels = DBSCAN(eps=None, min_pts=1).fit_predict(np.asarray([[3.0]]))
        assert list(labels) == [0]

    def test_border_point_keeps_first_cluster(self):
        # a border point within eps of two clusters' cores belongs to the
        # cluster that expands first (no later relabeling)
        cluster_a = np.asarray([[0.0], [0.1], [0.2], [0.3]])
        cluster_b = np.asarray([[2.0], [2.1], [2.2], [2.3]])
        border = np.asarray([[1.15]])
        pts = np.vstack([cluster_a, cluster_b, border])
        labels = DBSCAN(eps=0.9, min_pts=4).fit_predict(pts)
        assert labels[8] == labels[0]
        assert labels[0] != labels[4]

    def test_no_redundant_core_relabeling(self):
        # every point's final label comes from the first cluster that
        # claims it — run twice with point order reversed and check the
        # partition (not the ids) is identical
        pts = two_blobs(n=40, separation=4.0, seed=8)
        forward = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        backward = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts[::-1])[::-1]
        for labels in (forward, backward):
            assert set(labels[:40]) == {labels[0]}
            assert set(labels[40:]) == {labels[40]}


def _point_sets(rng, n, widths, levels, duplicates, constant):
    """One ``(1, n, d)`` stack per width: a few blobs of points, on a
    coarse grid when *levels* is set, with repeated rows and an optional
    constant column."""
    stacks = []
    for d in widths:
        if levels:
            pts = rng.integers(0, levels, (n, d)).astype(float)
        else:
            centres = rng.normal(0.0, 4.0, (3, d))
            pts = rng.normal(0.0, 1.0, (n, d)) + centres[rng.integers(0, 3, n)]
        if constant:
            pts[:, 0] = 0.5
        if n and duplicates:
            copies = rng.integers(0, n, (2, duplicates))
            pts[copies[0]] = pts[copies[1]]
        stacks.append(pts[None])
    return stacks


class TestKernelMatchesOracle:
    """Every lane of the batched kernel, and the fixed-ε estimator, equal
    the reference DBSCAN in labels and in the bytes of ε."""

    SETS = dict(
        n=st.integers(0, 200),
        widths=st.lists(st.integers(1, 60), min_size=1, max_size=3),
        min_pts=st.integers(1, 5),
        levels=st.sampled_from([0, 2, 5]),
        duplicates=st.integers(0, 30),
        constant=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )

    @settings(max_examples=60, deadline=None)
    @given(**SETS)
    def test_kernel_matches_oracle(
        self, n, widths, min_pts, levels, duplicates, constant, seed
    ):
        rng = np.random.default_rng(seed)
        stacks = _point_sets(rng, n, widths, levels, duplicates, constant)
        labels, eps = dbscan_labels_stacks(stacks, min_pts)
        assert labels.shape == (len(widths), n)
        for i, stack in enumerate(stacks):
            want_labels, want_eps = oracle_dbscan(stack[0], min_pts)
            assert np.array_equal(labels[i], want_labels), i
            assert eps[i].tobytes() == np.float64(want_eps).tobytes(), i

    @settings(max_examples=30, deadline=None)
    @given(eps=st.floats(0.05, 6.0), **SETS)
    def test_fixed_eps_matches_oracle(
        self, eps, n, widths, min_pts, levels, duplicates, constant, seed
    ):
        rng = np.random.default_rng(seed)
        stacks = _point_sets(rng, n, widths, levels, duplicates, constant)
        for stack in stacks:
            model = DBSCAN(eps=eps, min_pts=min_pts).fit(stack[0])
            want_labels, _ = oracle_dbscan(stack[0], min_pts, eps=eps)
            assert np.array_equal(model.labels_, want_labels)
            assert model.eps_ == eps
