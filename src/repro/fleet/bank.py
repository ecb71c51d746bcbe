"""Vectorized order statistics for thousands of lanes at once.

The fleet engine needs, per *lane* (one ``(stream, attribute)`` pair),
the order statistics behind Equation 4: the median of the retained
buffer, the median of the trailing ``w`` samples, and the min/max of the
buffer contents.  Running 80 000 heap updates per tick in Python would
dwarf the arithmetic; this
module instead keeps every lane's buffer contents **sorted in one dense
matrix** and performs the one-in/one-out update for all lanes with a
fixed number of whole-matrix numpy operations:

1. a batched binary search (``ceil(log2(C + 1))`` rounds of one
   gather each) finds each lane's delete position ``d`` (the
   leaving value's first occurrence — or the first +inf pad while the
   lane is still growing) and insert position ``i``;
2. a single gather shifts exactly the elements between the two
   positions by one slot (right when ``i <= d``, left when ``i > d``)
   and leaves everything else untouched;
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
    filling) — the whole update is a handful of dense numpy calls with
    no per-lane Python work.
    """

    __slots__ = ("capacity", "counts", "_sorted", "_rounds", "_idx", "_rows")

    def __init__(self, lanes: int, capacity: int) -> None:
        if lanes < 0:
            raise ValueError("lanes must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.counts = np.zeros(lanes, dtype=np.int64)
        self._sorted = np.full((lanes, self.capacity), np.inf)
        # enough halvings to pin down a position in [0, capacity]
        self._rounds = max(1, int(np.ceil(np.log2(self.capacity + 1))))
        self._idx = np.arange(self.capacity, dtype=np.int64)[None, :]
        self._rows = np.arange(lanes)

    @property
    def lanes(self) -> int:
        return self._sorted.shape[0]

    def _search(self, values: np.ndarray) -> np.ndarray:
        """Per-lane left insertion point of ``values`` (batched bisect)."""
        lanes = self._sorted.shape[0]
        lo = np.zeros(lanes, dtype=np.int64)
        hi = np.full(lanes, self.capacity, dtype=np.int64)
        for _ in range(self._rounds):
            mid = (lo + hi) >> 1  # < capacity wherever lo < hi
            probe = self._sorted[
                self._rows, np.minimum(mid, self.capacity - 1)
            ]
            go_right = (lo < hi) & (probe < values)
            stay = (lo < hi) & ~go_right
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(stay, mid, hi)
        return lo

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
        # Growing lanes "delete" their first +inf pad — searching is
        # unnecessary, the pad sits exactly at the lane's count.
        need_search = active & full
        d = np.where(
            need_search,
            self._search(np.where(need_search, evicted, -np.inf)),
            self.counts,
        )
        i = self._search(np.where(active, values, -np.inf))
        # Inactive lanes become no-ops: delete slot 0, re-insert S[:, 0].
        d = np.where(active, d, 0)
        i = np.where(active, i, 0)
        case_le = i <= d  # insert lands at or before the hole
        p = np.where(case_le, i, i - 1)
        idx = self._idx
        shift_right = case_le[:, None] & (idx > p[:, None]) & (idx <= d[:, None])
        shift_left = (~case_le)[:, None] & (idx >= d[:, None]) & (idx < p[:, None])
        gather = idx - shift_right.astype(np.int64) + shift_left.astype(np.int64)
        out = np.take_along_axis(S, gather, axis=1)
        final = np.where(active, values, S[:, 0])
        out[self._rows, p] = final
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
