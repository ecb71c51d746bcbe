"""Partition spaces: equi-width discretization and labeling (Sections 4.1-4.2).

For a numeric attribute, DBSherlock discretizes the value range into ``R``
equi-width partitions; for a categorical attribute, one partition per
distinct value.  Each partition is then labeled:

* numeric — ``Abnormal`` when every tuple falling in it is abnormal,
  ``Normal`` when every tuple is normal, ``Empty`` otherwise (no tuples, or
  a mix of both regions);
* categorical — by majority: ``Abnormal`` when more abnormal than normal
  tuples fall in it, ``Normal`` for the converse, ``Empty`` on ties.

Tuples outside both regions are ignored (Section 4).

Degraded telemetry: NaN cells (dropped samples, dead probes) are treated
as *absent* — the value range is taken over the valid samples only, NaN
values map to partition index ``-1``, and labeling counts only valid
tuples.  An attribute with no valid samples (or a constant one) collapses
to a single neutral partition rather than producing NaN/inf bounds.  The
clean path is bitwise-unchanged: every NaN branch is gated on a NaN
actually being present.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = ["Label", "NumericPartitionSpace", "CategoricalPartitionSpace"]


class Label(enum.IntEnum):
    """Partition labels used throughout Algorithm 1."""

    EMPTY = 0
    NORMAL = 1
    ABNORMAL = 2


class NumericPartitionSpace:
    """``R`` equi-width partitions over a numeric attribute's observed range.

    Partition ``Pj`` covers ``[lb(Pj), ub(Pj))``; values equal to the global
    maximum are assigned to the last partition so every tuple belongs to
    exactly one partition.
    """

    def __init__(self, attr: str, values: np.ndarray, n_partitions: int) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot partition an empty attribute")
        self.attr = attr
        if np.isnan(values).any():
            valid = values[~np.isnan(values)]
            if valid.size:
                self.minimum = float(valid.min())
                self.maximum = float(valid.max())
            else:
                # no valid samples at all: a neutral single partition
                self.minimum = self.maximum = 0.0
        else:
            self.minimum = float(values.min())
            self.maximum = float(values.max())
        if self.maximum > self.minimum:
            self.n_partitions = int(n_partitions)
        else:
            # A constant attribute collapses to a single partition.
            self.n_partitions = 1
        self.width = (self.maximum - self.minimum) / self.n_partitions

    def lower_bound(self, index: int) -> float:
        """``lb(P_index)``."""
        self._check_index(index)
        return self.minimum + index * self.width

    def upper_bound(self, index: int) -> float:
        """``ub(P_index)``."""
        self._check_index(index)
        if index == self.n_partitions - 1:
            return self.maximum
        return self.minimum + (index + 1) * self.width

    def midpoint(self, index: int) -> float:
        """Representative value of a partition (its centre)."""
        self._check_index(index)
        if self.width == 0:
            return self.minimum
        return self.lower_bound(index) + self.width / 2.0

    def midpoints(self) -> np.ndarray:
        """Representative values of every partition, vectorized.

        Bitwise-identical to ``[midpoint(i) for i in range(n_partitions)]``
        (same association order: ``(minimum + i*width) + width/2``).
        """
        if self.width == 0:
            return np.full(self.n_partitions, self.minimum, dtype=np.float64)
        lowers = (
            self.minimum
            + np.arange(self.n_partitions, dtype=np.float64) * self.width
        )
        return lowers + self.width / 2.0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_partitions:
            raise IndexError(f"partition index {index} out of range")

    def partition_indices(self, values: np.ndarray) -> np.ndarray:
        """Partition index of each value (max value maps to the last one).

        NaN values map to ``-1`` (no partition); callers that count
        tuples must ignore negative indices.
        """
        values = np.asarray(values, dtype=np.float64)
        nan_mask = np.isnan(values)
        has_nan = bool(nan_mask.any())
        if self.width == 0:
            idx = np.zeros(values.shape, dtype=np.int64)
        else:
            with np.errstate(invalid="ignore"):
                raw = np.floor((values - self.minimum) / self.width)
            if has_nan:
                raw = np.where(nan_mask, 0.0, raw)
            idx = np.clip(raw.astype(np.int64), 0, self.n_partitions - 1)
        if has_nan:
            idx[nan_mask] = -1
        return idx

    def label(
        self,
        values: np.ndarray,
        abnormal_mask: np.ndarray,
        normal_mask: np.ndarray,
    ) -> np.ndarray:
        """Label every partition from the region masks (Section 4.2).

        Returns an ``int`` array of :class:`Label` values, one per partition.
        NaN tuples (partition index ``-1``) are ignored on both sides.
        """
        idx = self.partition_indices(values)
        if (idx < 0).any():
            valid = idx >= 0
            abnormal_mask = abnormal_mask & valid
            normal_mask = normal_mask & valid
        counts_abnormal = np.bincount(
            idx[abnormal_mask], minlength=self.n_partitions
        )
        counts_normal = np.bincount(idx[normal_mask], minlength=self.n_partitions)
        labels = np.full(self.n_partitions, int(Label.EMPTY), dtype=np.int64)
        labels[(counts_abnormal > 0) & (counts_normal == 0)] = int(Label.ABNORMAL)
        labels[(counts_normal > 0) & (counts_abnormal == 0)] = int(Label.NORMAL)
        return labels

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, attr: str, n_partitions: int
    ) -> "NumericPartitionSpace":
        """Build the partition space over all rows of *dataset*."""
        return cls(attr, dataset.column(attr), n_partitions)

    @classmethod
    def from_stats(
        cls, attr: str, minimum: float, maximum: float, n_partitions: int
    ) -> "NumericPartitionSpace":
        """Build a space from precomputed min/max (the batched labeler).

        Applies exactly the constructor's rules (constant range collapses
        to one partition; ``width = (max - min) / n_partitions``) without
        re-scanning the value vector.
        """
        if n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        space = cls.__new__(cls)
        space.attr = attr
        space.minimum = float(minimum)
        space.maximum = float(maximum)
        if not (math.isfinite(space.minimum) and math.isfinite(space.maximum)):
            # degenerate stats (e.g. an all-NaN column): neutral space
            space.minimum = space.maximum = 0.0
        if space.maximum > space.minimum:
            space.n_partitions = int(n_partitions)
        else:
            space.n_partitions = 1
        space.width = (space.maximum - space.minimum) / space.n_partitions
        return space

    def labeled_from_spec(
        self, dataset: Dataset, spec: RegionSpec
    ) -> np.ndarray:
        """Convenience: label using the spec's region masks on *dataset*."""
        return self.label(
            dataset.column(self.attr),
            spec.abnormal_mask(dataset),
            spec.normal_mask(dataset),
        )


class CategoricalPartitionSpace:
    """One partition per distinct category value (order is irrelevant)."""

    def __init__(self, attr: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=object)
        if values.size == 0:
            raise ValueError("cannot partition an empty attribute")
        self.attr = attr
        self.categories: List[str] = sorted({str(v) for v in values})
        # Sorted unicode array for vectorized searchsorted lookups; numpy's
        # codepoint ordering matches Python's str ordering.
        self._categories_arr = np.asarray(self.categories)

    @property
    def n_partitions(self) -> int:
        """Number of distinct categories."""
        return len(self.categories)

    def partition_indices(self, values: np.ndarray) -> np.ndarray:
        """Partition index of each value; unseen categories map to -1.

        Vectorized: the distinct input values (usually few) are located in
        the sorted category array via ``searchsorted``, then scattered
        back through ``np.unique``'s inverse mapping.
        """
        values = np.asarray(values, dtype=object)
        if values.size == 0:
            return np.zeros(0, dtype=np.int64)
        strings = values.astype(str)
        distinct, inverse = np.unique(strings, return_inverse=True)
        pos = np.searchsorted(self._categories_arr, distinct)
        pos = np.clip(pos, 0, self.n_partitions - 1)
        found = self._categories_arr[pos] == distinct
        mapped = np.where(found, pos, -1).astype(np.int64)
        return mapped[inverse.reshape(strings.shape)]

    def label(
        self,
        values: np.ndarray,
        abnormal_mask: np.ndarray,
        normal_mask: np.ndarray,
    ) -> np.ndarray:
        """Majority labeling for categorical partitions (Section 4.2)."""
        idx = self.partition_indices(values)
        labels = np.full(self.n_partitions, int(Label.EMPTY), dtype=np.int64)
        valid = idx >= 0
        counts_abnormal = np.bincount(
            idx[valid & abnormal_mask], minlength=self.n_partitions
        )
        counts_normal = np.bincount(
            idx[valid & normal_mask], minlength=self.n_partitions
        )
        labels[counts_abnormal > counts_normal] = int(Label.ABNORMAL)
        labels[counts_normal > counts_abnormal] = int(Label.NORMAL)
        return labels

    @classmethod
    def from_dataset(cls, dataset: Dataset, attr: str) -> "CategoricalPartitionSpace":
        """Build the partition space over all rows of *dataset*."""
        return cls(attr, dataset.column(attr))

    def labeled_from_spec(self, dataset: Dataset, spec: RegionSpec) -> np.ndarray:
        """Convenience: label using the spec's region masks on *dataset*."""
        return self.label(
            dataset.column(self.attr),
            spec.abnormal_mask(dataset),
            spec.normal_mask(dataset),
        )
