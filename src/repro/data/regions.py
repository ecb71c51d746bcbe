"""Abnormal / normal region specifications.

The user of DBSherlock marks one or more *abnormal* time ranges on a
performance plot and, optionally, explicit *normal* ranges (Section 2.2).
When no normal ranges are given, everything outside the abnormal ranges is
implicitly normal; when normal ranges are given, rows in neither region are
ignored by the algorithm (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["Region", "RegionSpec"]


@dataclass(frozen=True)
class Region:
    """A closed time interval ``[start, end]`` in dataset time units."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"region end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start

    def contains(self, timestamps: np.ndarray) -> np.ndarray:
        """Boolean mask of timestamps inside the interval."""
        return (timestamps >= self.start) & (timestamps <= self.end)

    def intersects(self, other: "Region") -> bool:
        """True when the two closed intervals share at least one point."""
        return self.start <= other.end and other.start <= self.end

    def widened(self, fraction: float) -> "Region":
        """Return the interval widened (or shrunk, if negative) on both ends.

        ``widened(0.1)`` extends each boundary outward by 10 % of the
        duration; ``widened(-0.1)`` pulls each boundary inward.  Used by the
        Appendix C robustness study.
        """
        pad = self.duration * fraction
        start, end = self.start - pad, self.end + pad
        if end < start:
            mid = (self.start + self.end) / 2.0
            start = end = mid
        return Region(start, end)


@dataclass
class RegionSpec:
    """The abnormal/normal marking the user hands to DBSherlock.

    Parameters
    ----------
    abnormal:
        Time intervals the user deems anomalous.
    normal:
        Optional explicit normal intervals.  ``None`` means "everything
        else is normal"; a list means rows outside both region kinds are
        ignored.
    """

    abnormal: List[Region] = field(default_factory=list)
    normal: Optional[List[Region]] = None

    @classmethod
    def from_bounds(
        cls,
        abnormal: Sequence[Tuple[float, float]],
        normal: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> "RegionSpec":
        """Build a spec from ``(start, end)`` tuples."""
        return cls(
            abnormal=[Region(s, e) for s, e in abnormal],
            normal=None if normal is None else [Region(s, e) for s, e in normal],
        )

    def abnormal_mask(self, dataset: Dataset) -> np.ndarray:
        """Rows of *dataset* inside any abnormal interval."""
        mask = np.zeros(dataset.n_rows, dtype=bool)
        for region in self.abnormal:
            mask |= region.contains(dataset.timestamps)
        return mask

    def normal_mask(self, dataset: Dataset) -> np.ndarray:
        """Rows of *dataset* treated as normal.

        With explicit normal intervals, this is their union minus any
        overlap with abnormal intervals; otherwise it is the complement of
        the abnormal mask.
        """
        return self.masks(dataset)[1]

    def masks(self, dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
        """``(abnormal_mask, normal_mask)``, scanning the abnormal
        intervals once."""
        abnormal = self.abnormal_mask(dataset)
        if self.normal is None:
            return abnormal, ~abnormal
        mask = np.zeros(dataset.n_rows, dtype=bool)
        for region in self.normal:
            mask |= region.contains(dataset.timestamps)
        return abnormal, mask & ~abnormal

    def validate(
        self,
        dataset: Dataset,
        masks: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Raise ``ValueError`` on empty, out-of-bounds, or overlapping regions.

        Checks, in order: every abnormal interval must intersect the
        dataset's time span; explicit normal intervals must not overlap
        any abnormal interval; and both effective region masks (*masks*,
        when the caller already holds :meth:`masks`) must be non-empty.
        """
        if dataset.n_rows:
            lo = float(dataset.timestamps[0])
            hi = float(dataset.timestamps[-1])
            span = Region(lo, hi)
            for region in self.abnormal:
                if not region.intersects(span):
                    raise ValueError(
                        f"abnormal region [{region.start}, {region.end}] lies "
                        f"outside the dataset time span [{lo}, {hi}]"
                    )
        if self.normal is not None:
            for normal in self.normal:
                for abnormal in self.abnormal:
                    if normal.intersects(abnormal):
                        raise ValueError(
                            f"normal region [{normal.start}, {normal.end}] "
                            f"overlaps abnormal region "
                            f"[{abnormal.start}, {abnormal.end}]"
                        )
        abnormal, normal = masks if masks is not None else self.masks(dataset)
        if not abnormal.any():
            raise ValueError("abnormal region matches no rows")
        if not normal.any():
            raise ValueError("normal region matches no rows")

    def perturbed(self, fraction: float) -> "RegionSpec":
        """Widen/shrink every abnormal interval by *fraction* (Appendix C)."""
        return RegionSpec(
            abnormal=[r.widened(fraction) for r in self.abnormal],
            normal=self.normal,
        )

    def sliced(self, length: float, rng: np.random.Generator) -> "RegionSpec":
        """Replace each abnormal interval with a random sub-slice.

        Models the Appendix C "two seconds of the original abnormal region"
        experiment: diagnosing rare anomalies from a sliver of the window.
        """
        slices = []
        for region in self.abnormal:
            usable = max(region.duration - length, 0.0)
            offset = float(rng.uniform(0.0, usable)) if usable > 0 else 0.0
            start = region.start + offset
            slices.append(Region(start, min(start + length, region.end)))
        return RegionSpec(abnormal=slices, normal=self.normal)
