"""Vectorized order statistics for thousands of lanes at once.

The fleet engine needs, per *lane* (one ``(stream, attribute)`` pair),
the order statistics behind Equation 4: the median of the retained
buffer, the median of the trailing ``w`` samples, and the min/max of the
buffer contents.  Running 80 000 heap updates per tick in Python would
dwarf the arithmetic; this module instead keeps every lane's buffer as a
FIFO ring **in slot order** plus the **rank** of each slot within its
lane, and performs the one-in/one-out update for all lanes with a fixed
number of whole-bank numpy passes:

1. the incoming value overwrites the slot the caller names — the
   lane's oldest once it is full, a ``+inf`` pad before that (pads'
   ranks sit above every live value) — whose rank ``r_out`` is read
   first;
2. one float comparison count along the lane finds the insert rank
   ``i`` — how many stored values are strictly below the incoming one;
3. two small-integer passes close the gap and open the new one —
   ``rank -= rank > r_out``, then ``rank += rank >= i`` — and
   ``rank[slot] = i``.  An inactive lane takes ``i = r_out``, which
   makes the three steps an exact no-op.

The exact element that leaves the window is removed, and a new value
ranks before the equal values already present, so the order among
equal values (``0.0`` and ``-0.0``) is a function of the window
contents alone.  The value at rank ``k`` is one equality pass and one
multiply-and-sum over the slots, then one gather; lane medians are
``(v[(n-1)//2] + v[n//2]) / 2`` — the exact ``np.median`` reduction —
and lane min/max are ranks ``0`` and ``n-1``.

Layout: values ``(capacity, lanes)`` float64 and ranks
``(capacity, lanes)`` int8 (int16 once the capacity exceeds 127), both
capacity-major, so every pass runs along rows ``lanes`` long.  The bool
and integer scratch matrices are allocated once and reused through
``out=``: inside a fleet tick a fresh megabyte-sized temporary is
page-faulted in on every call, which costs more than the arithmetic it
holds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SortedWindowBank"]


class SortedWindowBank:
    """``lanes`` independent bounded FIFO windows with rank-indexed order
    statistics under one-in/one-out.

    Each lane holds at most *capacity* finite float64 values in arrival
    slot order, ``+inf`` in its unfilled slots, and every slot's rank
    among the lane's values.  :meth:`replace` appends one value per
    active lane — evicting the lane's oldest value once it is full —
    with one float comparison count and a few small-integer passes, no
    per-lane Python work.
    """

    __slots__ = (
        "capacity",
        "counts",
        "_values",
        "_ranks",
        "_lane_ids",
        "_slot_ids",
        "_mask",
        "_scratch",
    )

    def __init__(self, lanes: int, capacity: int) -> None:
        if lanes < 0:
            raise ValueError("lanes must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = cap = int(capacity)
        rank_dtype = next(
            t for t in (np.int8, np.int16, np.int32) if cap <= np.iinfo(t).max
        )
        self.counts = np.zeros(lanes, dtype=np.int64)
        self._values = np.full((cap, lanes), np.inf)
        # Pads rank above every live value: slot j starts at rank j.
        self._slot_ids = np.arange(cap, dtype=rank_dtype)[:, None]
        self._ranks = np.repeat(self._slot_ids, lanes, axis=1)
        self._lane_ids = np.arange(lanes)
        self._mask = np.empty((cap, lanes), dtype=bool)
        self._scratch = np.empty((cap, lanes), dtype=rank_dtype)

    @property
    def lanes(self) -> int:
        return self._values.shape[1]

    def replace(
        self, values: np.ndarray, active: np.ndarray, slot: np.ndarray
    ) -> None:
        """One-in/one-out update for every active lane.

        Parameters
        ----------
        values:
            ``(lanes,)`` finite float64 — the value entering each active
            lane; a full lane evicts its oldest value.
        active:
            ``(lanes,)`` bool — lanes receiving a sample this tick;
            inactive lanes are untouched.
        slot:
            ``(lanes,)`` write slots, ``seq % capacity`` for a sample
            with sequence number ``seq`` (any start, one step per
            sample), so a full lane overwrites its oldest slot.
        """
        vals, ranks, mask = self._values, self._ranks, self._mask
        lanes = self._lane_ids
        values = np.asarray(values, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        r_out = ranks[slot, lanes]
        incoming = np.where(active, values, vals[slot, lanes])
        vals[slot, lanes] = incoming
        np.less(vals, incoming, out=mask)
        i = np.add.reduce(mask.view(np.int8), axis=0, dtype=ranks.dtype)
        np.copyto(i, r_out, where=~active)
        np.greater(ranks, r_out, out=mask)
        np.subtract(ranks, mask.view(np.int8), out=ranks)
        np.greater_equal(ranks, i, out=mask)
        np.add(ranks, mask.view(np.int8), out=ranks)
        ranks[slot, lanes] = i
        self.counts += active & (self.counts < self.capacity)

    # ------------------------------------------------------------------
    def values_at(self, rank: np.ndarray | int) -> np.ndarray:
        """Per-lane value at *rank* (a scalar or ``(lanes,)``; pads read
        ``+inf``)."""
        mask, scratch = self._mask, self._scratch
        np.equal(self._ranks, np.asarray(rank, scratch.dtype), out=mask)
        np.multiply(mask.view(np.int8), self._slot_ids, out=scratch)
        slots = np.add.reduce(scratch, axis=0, dtype=scratch.dtype)
        return self._values[slots, self._lane_ids]

    def read(self, slots: np.ndarray, lanes) -> np.ndarray:
        """``(len(slots), len(lanes))`` C-ordered copy of *lanes* at
        *slots* (column take, then row take)."""
        return self._values.take(lanes, axis=1).take(slots, axis=0)

    def lane_value(self, lane: int, rank: int) -> float:
        """One lane's value at *rank*."""
        column = self._ranks[:, lane]
        return float(self._values[np.argmax(column == rank), lane])

    def medians(self) -> np.ndarray:
        """Per-lane ``np.median`` of the live values (NaN for empty lanes)."""
        n = self.counts
        k1 = np.maximum((n - 1) // 2, 0)
        k2 = n // 2
        a = self.values_at(k1)
        b = self.values_at(k2)
        med = np.where(k1 == k2, a, (a + b) / 2.0)
        return np.where(n > 0, med, np.nan)

    def mins(self) -> np.ndarray:
        """Per-lane minimum (``+inf`` for empty lanes)."""
        return self.values_at(0)

    def maxs(self) -> np.ndarray:
        """Per-lane maximum (``+inf`` for empty lanes)."""
        return self.values_at(np.maximum(self.counts - 1, 0))
