"""Unit tests for the Dataset container."""

import warnings

import numpy as np
import pytest

from repro.data.dataset import Dataset


def make_dataset(n=10):
    return Dataset(
        np.arange(n, dtype=float),
        numeric={"a": np.arange(n, dtype=float), "b": np.ones(n)},
        categorical={"c": np.asarray(["x"] * (n // 2) + ["y"] * (n - n // 2),
                                     dtype=object)},
        name="t",
    )


class TestConstruction:
    def test_basic_shape(self):
        ds = make_dataset(10)
        assert ds.n_rows == 10
        assert len(ds) == 10

    def test_attribute_lists(self):
        ds = make_dataset()
        assert ds.numeric_attributes == ["a", "b"]
        assert ds.categorical_attributes == ["c"]
        assert ds.attributes == ["a", "b", "c"]

    def test_empty_dataset_allowed(self):
        ds = Dataset([], numeric={}, categorical={})
        assert ds.n_rows == 0

    def test_timestamps_must_be_1d(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)))

    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            Dataset([0.0, 2.0, 1.0])

    def test_timestamps_strictly_increase(self):
        with pytest.raises(ValueError):
            Dataset([0.0, 1.0, 1.0])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset([0.0, 1.0], numeric={"a": [1.0]})

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                [0.0, 1.0],
                numeric={"a": [1.0, 2.0]},
                categorical={"a": ["x", "y"]},
            )

    def test_repr_mentions_counts(self):
        assert "numeric=2" in repr(make_dataset())


class TestNonFiniteCells:
    """±inf is a missing cell at intake, exactly as NaN is."""

    def test_infinite_cells_become_nan_without_touching_the_input(self):
        values = np.array([1.0, np.inf, 2.0, -np.inf, np.nan])
        before = values.copy()
        ds = Dataset(np.arange(5.0), numeric={"a": values})
        np.testing.assert_array_equal(
            ds.column("a"), [1.0, np.nan, 2.0, np.nan, np.nan]
        )
        np.testing.assert_array_equal(values, before)

    def test_finite_columns_are_kept_as_given(self):
        values = np.array([1e200, -1e200, 3.0])  # overflows the cheap test
        nan_values = np.array([1.0, np.nan, 2.0])
        with np.errstate(over="raise"):
            ds = Dataset(
                np.arange(3.0), numeric={"a": values, "n": nan_values}
            )
        assert ds.column("a") is values
        assert ds.column("n") is nan_values

    def test_an_infinite_sample_does_not_drop_its_attribute(self):
        from repro import DBSherlock
        from repro.data.regions import RegionSpec

        rng = np.random.default_rng(1)
        a = rng.normal(size=60)
        a[30:40] += 8
        b, c = a.copy(), a.copy()
        b[5], c[5] = np.inf, np.nan
        ds = Dataset(np.arange(60.0), numeric={"a": a, "b": b, "c": c})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            explanation = DBSherlock().explain(
                ds, RegionSpec.from_bounds([(30, 39)])
            )
        assert [str(p) for p in explanation.predicates] == [
            "a > 6.37177",
            "b > 6.37177",
            "c > 6.37177",
        ]
        assert b[5] == np.inf


class TestAccess:
    def test_column_numeric(self):
        ds = make_dataset()
        assert ds.column("a")[3] == 3.0

    def test_column_categorical(self):
        ds = make_dataset()
        assert ds.column("c")[0] == "x"

    def test_column_missing(self):
        with pytest.raises(KeyError):
            make_dataset().column("nope")

    def test_is_numeric_missing(self):
        with pytest.raises(KeyError):
            make_dataset().is_numeric("nope")

    def test_contains(self):
        ds = make_dataset()
        assert "a" in ds and "c" in ds and "zzz" not in ds


class TestRowOperations:
    def test_select_subset(self):
        ds = make_dataset(10)
        sub = ds.select(ds.timestamps < 5)
        assert sub.n_rows == 5
        assert list(sub.column("a")) == [0, 1, 2, 3, 4]

    def test_select_preserves_categorical(self):
        ds = make_dataset(10)
        sub = ds.select(ds.timestamps >= 5)
        assert set(sub.column("c")) == {"y"}

    def test_select_bad_mask_shape(self):
        with pytest.raises(ValueError):
            make_dataset(10).select(np.ones(3, dtype=bool))


class TestNormalization:
    def test_normalized_range(self):
        ds = make_dataset(10)
        norm = ds.normalized("a")
        assert norm.min() == 0.0 and norm.max() == 1.0

    def test_normalized_constant_is_zero(self):
        ds = make_dataset()
        assert np.all(ds.normalized("b") == 0.0)

    def test_normalized_categorical_rejected(self):
        with pytest.raises(TypeError):
            make_dataset().normalized("c")
