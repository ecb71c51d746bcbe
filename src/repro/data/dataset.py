"""The ``Dataset`` container: a timestamp-aligned attribute matrix.

DBSherlock consumes rows of the form ``(Timestamp, Attr1, ..., Attrk)``
(Section 2.1 of the paper) where most attributes are numeric statistics and
a few are categorical.  ``Dataset`` stores numeric attributes as float64
columns and categorical attributes as object (string) columns, all aligned
on a shared 1-D timestamp vector.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["Dataset"]


class Dataset:
    """A timestamp-aligned table of telemetry attributes.

    Parameters
    ----------
    timestamps:
        1-D array of sample times (seconds).  Must be strictly increasing.
    numeric:
        Mapping of attribute name to a 1-D float array, one value per
        timestamp.  NaN and ±inf are both missing cells (stored as NaN).
    categorical:
        Mapping of attribute name to a 1-D array of category labels
        (strings), one value per timestamp.
    name:
        Optional human-readable label (e.g. ``"tpcc/cpu_saturation/45s"``).
    """

    def __init__(
        self,
        timestamps: Sequence[float],
        numeric: Optional[Mapping[str, Sequence[float]]] = None,
        categorical: Optional[Mapping[str, Sequence[str]]] = None,
        name: str = "",
    ) -> None:
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if self.timestamps.size > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self.name = name

        self._numeric: Dict[str, np.ndarray] = {}
        self._categorical: Dict[str, np.ndarray] = {}
        # a huge finite value may overflow _add_numeric's sum of squares;
        # that is expected there, not worth a warning
        with np.errstate(over="ignore"):
            for attr, values in (numeric or {}).items():
                self._add_numeric(attr, values)
        for attr, values in (categorical or {}).items():
            self._add_categorical(attr, values)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _check_length(self, attr: str, values: np.ndarray) -> None:
        if values.shape != self.timestamps.shape:
            raise ValueError(
                f"attribute {attr!r} has {values.shape[0] if values.ndim else 0} "
                f"values but the dataset has {self.timestamps.shape[0]} rows"
            )

    def _add_numeric(self, attr: str, values: Sequence[float]) -> None:
        if attr in self._numeric or attr in self._categorical:
            raise ValueError(f"duplicate attribute name: {attr!r}")
        arr = np.asarray(values, dtype=np.float64)
        self._check_length(attr, arr)
        # ±inf is a missing cell, as NaN is.  A finite sum of squares
        # proves every value finite, far cheaper than an elementwise mask;
        # a NaN or an overflow only sends the column to the exact test.
        # The caller's array is never written.
        if not math.isfinite(arr.dot(arr)):
            inf = np.isinf(arr)
            if inf.any():
                arr = np.where(inf, np.nan, arr)
        self._numeric[attr] = arr

    def _add_categorical(self, attr: str, values: Sequence[str]) -> None:
        if attr in self._numeric or attr in self._categorical:
            raise ValueError(f"duplicate attribute name: {attr!r}")
        arr = np.asarray(values, dtype=object)
        self._check_length(attr, arr)
        self._categorical[attr] = arr

    @classmethod
    def from_rows(
        cls,
        timestamps: Sequence[float],
        rows: Sequence[Mapping[str, object]],
        name: str = "",
    ) -> "Dataset":
        """Build a dataset from per-row dictionaries.

        Attribute types are inferred from the first row: ``str`` values
        become categorical attributes, everything else numeric.
        """
        if len(rows) != len(timestamps):
            raise ValueError("rows and timestamps must have equal length")
        if not rows:
            return cls(timestamps, name=name)
        numeric: Dict[str, List[float]] = {}
        categorical: Dict[str, List[str]] = {}
        first = rows[0]
        for attr, value in first.items():
            if isinstance(value, str):
                categorical[attr] = []
            else:
                numeric[attr] = []
        for row in rows:
            if set(row) != set(first):
                raise ValueError("all rows must share the same attribute set")
            for attr in numeric:
                numeric[attr].append(float(row[attr]))  # type: ignore[arg-type]
            for attr in categorical:
                categorical[attr].append(str(row[attr]))
        return cls(timestamps, numeric=numeric, categorical=categorical, name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of aligned samples."""
        return int(self.timestamps.shape[0])

    @property
    def numeric_attributes(self) -> List[str]:
        """Names of numeric attributes, in insertion order."""
        return list(self._numeric)

    @property
    def categorical_attributes(self) -> List[str]:
        """Names of categorical attributes, in insertion order."""
        return list(self._categorical)

    @property
    def attributes(self) -> List[str]:
        """All attribute names (numeric first, then categorical)."""
        return self.numeric_attributes + self.categorical_attributes

    def is_numeric(self, attr: str) -> bool:
        """True when *attr* is a numeric attribute of this dataset."""
        if attr in self._numeric:
            return True
        if attr in self._categorical:
            return False
        raise KeyError(attr)

    def column(self, attr: str) -> np.ndarray:
        """Return the value vector for *attr* (float64 or object array)."""
        if attr in self._numeric:
            return self._numeric[attr]
        if attr in self._categorical:
            return self._categorical[attr]
        raise KeyError(attr)

    def __contains__(self, attr: object) -> bool:
        return attr in self._numeric or attr in self._categorical

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, rows={self.n_rows}, "
            f"numeric={len(self._numeric)}, categorical={len(self._categorical)})"
        )

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def select(self, mask: np.ndarray, name: str = "") -> "Dataset":
        """Return a new dataset containing rows where *mask* is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.timestamps.shape:
            raise ValueError("mask must have one entry per row")
        return Dataset(
            self.timestamps[mask],
            numeric={a: v[mask] for a, v in self._numeric.items()},
            categorical={a: v[mask] for a, v in self._categorical.items()},
            name=name or self.name,
        )

    def rename_attributes(self, mapping: Mapping[str, str]) -> "Dataset":
        """Return a copy with attributes renamed per ``{old: new}``.

        Column order and dtypes are preserved; unknown keys are ignored.
        A rename that collides with a *kept* attribute keeps the displaced
        column under ``"<name>~orig"`` rather than dropping data.
        """
        targets = set(mapping.values())

        def new_name(attr: str) -> str:
            if attr in mapping:
                return mapping[attr]
            return f"{attr}~orig" if attr in targets else attr

        numeric = {new_name(a): v for a, v in self._numeric.items()}
        categorical = {new_name(a): v for a, v in self._categorical.items()}
        if len(numeric) + len(categorical) != len(self._numeric) + len(
            self._categorical
        ):
            raise ValueError("rename collapses two attributes onto one name")
        return Dataset(
            self.timestamps,
            numeric=numeric,
            categorical=categorical,
            name=self.name,
        )

    def drop_attributes(self, attrs: Iterable[str]) -> "Dataset":
        """Return a copy without the named attributes."""
        drop = set(attrs)
        return Dataset(
            self.timestamps,
            numeric={a: v for a, v in self._numeric.items() if a not in drop},
            categorical={a: v for a, v in self._categorical.items() if a not in drop},
            name=self.name,
        )

    def time_mask(self, start: float, end: float) -> np.ndarray:
        """Boolean mask of rows whose timestamp lies in ``[start, end]``."""
        return (self.timestamps >= start) & (self.timestamps <= end)

    def valid_mask(self, attr: str) -> np.ndarray:
        """Boolean mask of rows where *attr* has a valid (non-NaN) value.

        Categorical attributes are always fully valid (missing samples are
        represented by carried-forward labels, never NaN).
        """
        values = self.column(attr)
        if not self.is_numeric(attr):
            return np.ones(self.n_rows, dtype=bool)
        return ~np.isnan(values)

    def n_valid(self, attr: str) -> int:
        """Number of rows where *attr* has a valid (non-NaN) value."""
        return int(self.valid_mask(attr).sum())

    def normalized(self, attr: str) -> np.ndarray:
        """Normalize a numeric attribute to [0, 1] (Equation 2 of the paper).

        An attribute with zero range normalizes to all-zeros, matching the
        convention that constant attributes carry no separation power.
        NaN cells (degraded telemetry) are excluded from the range and
        stay NaN in the output.
        """
        values = self.column(attr)
        if not self.is_numeric(attr):
            raise TypeError(f"attribute {attr!r} is categorical")
        if np.isnan(values).any():
            from repro.core.separation import normalize_values

            return normalize_values(values)
        lo = float(np.min(values)) if values.size else 0.0
        hi = float(np.max(values)) if values.size else 0.0
        span = hi - lo
        if span <= 0:
            return np.zeros_like(values)
        return (values - lo) / span
