"""Vectorized order statistics for thousands of lanes at once.

The fleet engine needs, per *lane* (one ``(stream, attribute)`` pair),
the order statistics behind Equation 4: the median of the retained
buffer, the median of the trailing ``w`` samples, and the min/max of the
buffer contents.  Running 80 000 heap updates per tick in Python would
dwarf the arithmetic; this
module instead keeps every lane's buffer contents **sorted in one dense
matrix** and performs the one-in/one-out update for all lanes with a
fixed number of whole-matrix numpy operations:

1. one comparison count per row finds each lane's insert position
   ``i`` (how many stored values are below the incoming one) and
   delete position ``d`` (the same count for the leaving value, whose
   first occurrence it is — or the lane's count while it is still
   growing, where its first +inf pad sits); the pads never count;
2. two masked slice copies shift exactly the elements between the two
   positions by one slot — right over ``[i, d)`` when ``i <= d``, left
   over ``[d, i - 1)`` otherwise — and leave everything else untouched;
3. one scatter writes the incoming value at its final position.

The resulting matrix is bitwise the sorted buffer contents, so lane
medians — ``(S[(n-1)//2] + S[n//2]) / 2``, the exact ``np.median``
reduction — and lane min/max — ``S[0]`` / ``S[n-1]`` — come out of a
couple of gathers, amortized O(1) per lane per tick.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SortedWindowBank"]


class SortedWindowBank:
    """``lanes`` independent bounded sorted multisets under one-in/one-out.

    Each lane holds at most *capacity* finite float64 values, stored
    ascending and padded with ``+inf`` beyond the lane's current count.
    :meth:`replace` inserts one value per active lane and removes the
    lane's leaving value (or consumes a pad slot while the lane is still
    filling) with two comparison counts, two masked slice shifts and
    one scatter — no per-lane Python work.
    """

    __slots__ = ("capacity", "counts", "_sorted", "_cols", "_rows")

    def __init__(self, lanes: int, capacity: int) -> None:
        if lanes < 0:
            raise ValueError("lanes must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.counts = np.zeros(lanes, dtype=np.int64)
        self._sorted = np.full((lanes, self.capacity), np.inf)
        # column indices of the (capacity - 1)-wide shifted views
        self._cols = np.arange(self.capacity - 1, dtype=np.int32)
        self._rows = np.arange(lanes)

    @property
    def lanes(self) -> int:
        return self._sorted.shape[0]

    def replace(
        self,
        values: np.ndarray,
        active: np.ndarray,
        evicted: np.ndarray,
    ) -> None:
        """One-in/one-out update for every active lane.

        Parameters
        ----------
        values:
            ``(lanes,)`` finite float64 — the value entering each active
            lane.
        active:
            ``(lanes,)`` bool — lanes receiving a sample this tick;
            inactive lanes are untouched.
        evicted:
            ``(lanes,)`` float64 — the value leaving each lane that is
            already at capacity (it must be present in the lane).
            Ignored for growing or inactive lanes.
        """
        S = self._sorted
        full = self.counts >= self.capacity
        i = np.count_nonzero(S < values[:, None], axis=1).astype(np.int32)
        d = np.where(
            full, np.count_nonzero(S < evicted[:, None], axis=1), self.counts
        ).astype(np.int32)
        # Inactive lanes become no-ops: delete slot 0, re-insert S[:, 0].
        i[~active] = 0
        d[~active] = 0
        right = i <= d  # insert lands at or before the hole
        p = np.where(right, i, i - 1)
        # Shift right over [i, d) or left over [d, p); the other range
        # is empty (lo == hi).
        cols = self._cols
        out = S.copy()
        hi = np.where(right, d, i)[:, None]
        np.copyto(
            out[:, 1:], S[:, :-1], where=(cols >= i[:, None]) & (cols < hi)
        )
        hi = np.where(right, d, p)[:, None]
        np.copyto(
            out[:, :-1], S[:, 1:], where=(cols >= d[:, None]) & (cols < hi)
        )
        out[self._rows, p] = np.where(active, values, S[:, 0])
        self._sorted = out
        self.counts = self.counts + (active & ~full)

    # ------------------------------------------------------------------
    def medians(self) -> np.ndarray:
        """Per-lane ``np.median`` of the live values (NaN for empty lanes)."""
        n = self.counts
        k1 = np.maximum((n - 1) // 2, 0)
        k2 = n // 2
        a = self._sorted[self._rows, k1]
        b = self._sorted[self._rows, np.minimum(k2, self.capacity - 1)]
        med = np.where(k1 == k2, a, (a + b) / 2.0)
        return np.where(n > 0, med, np.nan)

    def mins(self) -> np.ndarray:
        """Per-lane minimum (``+inf`` for empty lanes)."""
        return self._sorted[:, 0].copy()

    def maxs(self) -> np.ndarray:
        """Per-lane maximum (``+inf`` for empty lanes)."""
        last = np.maximum(self.counts - 1, 0)
        return self._sorted[self._rows, last]
