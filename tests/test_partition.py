"""Unit tests for partition spaces and labeling (Sections 4.1-4.2)."""

import numpy as np
import pytest

from repro.core.partition import (
    CategoricalPartitionSpace,
    Label,
    NumericPartitionSpace,
)


class TestNumericPartitionSpace:
    def test_equi_width_bounds(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 100.0]), 5)
        assert space.lower_bound(0) == 0.0
        assert space.upper_bound(0) == 20.0
        assert space.lower_bound(4) == 80.0
        assert space.upper_bound(4) == 100.0

    def test_width(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 100.0]), 4)
        assert space.width == 25.0

    def test_max_value_in_last_partition(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 100.0]), 5)
        assert space.partition_indices(np.asarray([100.0]))[0] == 4

    def test_min_value_in_first_partition(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 100.0]), 5)
        assert space.partition_indices(np.asarray([0.0]))[0] == 0

    def test_interior_assignment(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 100.0]), 5)
        idx = space.partition_indices(np.asarray([19.99, 20.0, 39.0]))
        assert list(idx) == [0, 1, 1]

    def test_constant_attribute_single_partition(self):
        space = NumericPartitionSpace("a", np.asarray([7.0, 7.0, 7.0]), 100)
        assert space.n_partitions == 1
        assert space.midpoint(0) == 7.0

    def test_midpoint(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 100.0]), 5)
        assert space.midpoint(0) == 10.0

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            NumericPartitionSpace("a", np.asarray([]), 5)

    def test_bad_partition_count_rejected(self):
        with pytest.raises(ValueError):
            NumericPartitionSpace("a", np.asarray([1.0]), 0)

    def test_index_out_of_range(self):
        space = NumericPartitionSpace("a", np.asarray([0.0, 1.0]), 5)
        with pytest.raises(IndexError):
            space.lower_bound(5)


class TestNumericLabeling:
    def labeled(self):
        # values 0..9 in ten partitions; rows 0-4 normal, 5-9 abnormal
        values = np.arange(10, dtype=float)
        space = NumericPartitionSpace("a", values, 10)
        abnormal = np.zeros(10, dtype=bool)
        abnormal[5:] = True
        return space.label(values, abnormal, ~abnormal)

    def test_pure_partitions_labeled(self):
        labels = self.labeled()
        assert all(l == int(Label.NORMAL) for l in labels[:5])
        assert all(l == int(Label.ABNORMAL) for l in labels[5:])

    def test_mixed_partition_is_empty(self):
        values = np.asarray([0.0, 0.1, 10.0])  # rows 0,1 share partition 0
        space = NumericPartitionSpace("a", values, 5)
        abnormal = np.asarray([True, False, False])
        labels = space.label(values, abnormal, ~abnormal)
        assert labels[0] == int(Label.EMPTY)

    def test_unpopulated_partition_is_empty(self):
        values = np.asarray([0.0, 10.0])
        space = NumericPartitionSpace("a", values, 10)
        labels = space.label(values, np.asarray([True, False]),
                             np.asarray([False, True]))
        assert all(l == int(Label.EMPTY) for l in labels[1:9])

    def test_ignored_rows_not_counted(self):
        # a row in neither region must not poison a partition's label
        values = np.asarray([0.0, 0.05, 10.0])
        space = NumericPartitionSpace("a", values, 5)
        abnormal = np.asarray([True, False, False])
        normal = np.asarray([False, False, True])  # row 1 ignored
        labels = space.label(values, abnormal, normal)
        assert labels[0] == int(Label.ABNORMAL)


class TestCategoricalPartitionSpace:
    def test_one_partition_per_category(self):
        values = np.asarray(["a", "b", "a", "c"], dtype=object)
        space = CategoricalPartitionSpace("m", values)
        assert space.n_partitions == 3
        assert space.categories == ["a", "b", "c"]

    def test_unseen_category_maps_to_minus_one(self):
        space = CategoricalPartitionSpace(
            "m", np.asarray(["a"], dtype=object)
        )
        assert space.partition_indices(np.asarray(["zz"], dtype=object))[0] == -1

    def test_majority_labeling(self):
        values = np.asarray(["a", "a", "a", "b", "b"], dtype=object)
        space = CategoricalPartitionSpace("m", values)
        abnormal = np.asarray([True, True, False, False, False])
        labels = space.label(values, abnormal, ~abnormal)
        # 'a': 2 abnormal vs 1 normal -> ABNORMAL; 'b': 0 vs 2 -> NORMAL
        assert labels[0] == int(Label.ABNORMAL)
        assert labels[1] == int(Label.NORMAL)

    def test_tie_is_empty(self):
        values = np.asarray(["a", "a"], dtype=object)
        space = CategoricalPartitionSpace("m", values)
        labels = space.label(
            values, np.asarray([True, False]), np.asarray([False, True])
        )
        assert labels[0] == int(Label.EMPTY)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            CategoricalPartitionSpace("m", np.asarray([], dtype=object))
