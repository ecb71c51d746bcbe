"""Cross-stream columnar tick arena.

All N tenants' current telemetry windows and the order statistics
Equation 4 needs (overall median, trailing-``w`` median, buffer
min/max, window-median extrema) live in a few whole-fleet arrays, and
appending a fleet-wide tick costs a fixed number of dense numpy calls:

* two rank-indexed :class:`~repro.fleet.bank.SortedWindowBank` updates
  (the whole buffer and the trailing ``w`` samples).  The overall
  bank's slot-ordered values are the arena's one copy of every window:
  row ``k`` of a stream (its ``k``-th appended row, counted across
  restores) lives at slot ``k % capacity`` there, in the ``(streams,
  capacity)`` timestamps and in any column a caller keeps beside them
  (:meth:`FleetArena.slots`);
* order statistics read by rank: median, min and max of the overall
  bank for :meth:`FleetArena.stats`, the trailing median when a lane's
  trailing window completes;
* one scatter of the freshly completed window medians into a NaN-padded
  ``(capacity − w + 1, streams × attributes)`` FIFO ring, whose
  ``fmin/fmax`` reduction down axis 0 gives the min/max over the window
  medians of the retained rows (min/max are order-independent, so ring
  rotation is immaterial).

Lanes are ``stream × attributes + attribute`` in every lane-indexed
array; the banks and the median ring store them capacity-major, so each
whole-fleet pass runs along rows as long as the fleet.

:class:`ArenaWindow` adapts one stream's rows to a telemetry-window
read interface (``timestamps`` / ``column`` / ``matrix`` / ``bounds`` /
``to_dataset``), which is what the clustering
(:func:`repro.fleet.fallout.cluster_windows_batch`) and diagnosis code
read; every read is an oldest-first copy gathered from the bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.fleet.bank import SortedWindowBank

__all__ = ["ArenaStats", "ArenaWindow", "FleetArena"]


@dataclass
class ArenaStats:
    """Per-lane statistics for one fleet tick, all ``(streams, attrs)``."""

    #: retained rows per stream (``(streams,)``).
    sizes: np.ndarray
    #: per-lane buffer minima (Equation 2 lower bounds).
    mins: np.ndarray
    #: per-lane buffer maxima (Equation 2 upper bounds).
    maxs: np.ndarray
    #: per-lane Equation 4 potential power, already normalized by span.
    powers: np.ndarray


class FleetArena:
    """Columnar window storage + order statistics for a whole fleet.

    Parameters
    ----------
    n_streams:
        Number of tenant streams.
    attributes:
        Numeric attribute names, shared by every stream (the fleet's
        column schema; per-stream attribute *selection* happens above).
    capacity:
        Ring length per stream — the detection window, in rows.
    window:
        Equation 4 sliding-window width ``w``; must not exceed
        *capacity* (a window median needs ``w`` retained rows).
    """

    def __init__(
        self,
        n_streams: int,
        attributes: Sequence[str],
        capacity: int,
        window: int,
    ) -> None:
        if n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        if window < 1:
            raise ValueError("window must be at least 1")
        if window > capacity:
            raise ValueError("window must not exceed capacity")
        self.attributes = list(attributes)
        self.n_streams = int(n_streams)
        self.capacity = int(capacity)
        self.window = int(window)
        S, A, cap = self.n_streams, len(self.attributes), self.capacity
        self._attr_index: Dict[str, int] = {
            a: j for j, a in enumerate(self.attributes)
        }
        self._ts = np.zeros((S, cap))
        #: total rows ever appended per stream (monotone; checkpoint
        #: restore re-bases it so replayed rows keep their sequence
        #: numbers, and with them their slots).
        self.appended = np.zeros(S, dtype=np.int64)
        #: rows currently retained per stream.
        self.sizes = np.zeros(S, dtype=np.int64)
        self._overall = SortedWindowBank(S * A, cap)
        self._trailing = SortedWindowBank(S * A, self.window)
        self._ring_len = cap - self.window + 1
        self._medring = np.full((self._ring_len, S * A), np.nan)

    # ------------------------------------------------------------------
    def append(
        self, times: np.ndarray, values: np.ndarray, active: np.ndarray
    ) -> None:
        """Append one sanitized row per active stream, fleet-wide.

        *times* is ``(streams,)``, *values* ``(streams, attrs)`` float64,
        *active* a bool mask of streams receiving a row this tick.
        Inactive streams are untouched.

        Raises :class:`ValueError`, before anything is written, when an
        active stream's row holds a non-finite value or its timestamp
        does not advance past the stream's newest retained row: the
        window and the order statistics share one store, so a NaN would
        misorder its lanes' ranks for as long as any value that arrived
        beside it is retained, and the clustering needs strictly
        increasing timestamps.  :meth:`FleetDetector.ingest
        <repro.fleet.engine.FleetDetector.ingest>` repairs and drops
        such rows before they get here.
        """
        A = len(self.attributes)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        slot = self.appended % self.capacity

        newest = self._ts[np.arange(len(slot)), (slot - 1) % self.capacity]
        stale = active & ~(times > np.where(self.sizes > 0, newest, -np.inf))
        if stale.any():
            s = int(np.flatnonzero(stale)[0])
            raise ValueError(
                f"stream {s}: timestamp {times[s]!r} does not advance"
            )
        broken = active & ~np.isfinite(values).all(axis=1)
        if broken.any():
            s = int(np.flatnonzero(broken)[0])
            raise ValueError(f"stream {s}: row has a non-finite value")

        rows = np.nonzero(active)[0]
        self._ts[rows, slot[rows]] = times[rows]

        lane_active = np.repeat(active, A)
        vals_flat = values.reshape(-1)
        self._overall.replace(vals_flat, lane_active, np.repeat(slot, A))
        self._trailing.replace(
            vals_flat, lane_active, np.repeat(self.appended % self.window, A)
        )

        # Lanes whose trailing window just completed publish its median
        # into the FIFO ring, keyed (mod ring length) by the row's
        # sequence number — precisely the window medians the
        # single-stream tracker's extrema deques hold live.
        eligible = lane_active & (self._trailing.counts == self.window)
        if eligible.any():
            meds = self._trailing.medians()
            ring_slot = np.repeat(self.appended % self._ring_len, A)
            lanes = np.nonzero(eligible)[0]
            self._medring[ring_slot[lanes], lanes] = meds[lanes]

        self.appended = self.appended + active
        self.sizes = self.sizes + (active & (self.sizes < self.capacity))

    # ------------------------------------------------------------------
    def stats(self) -> ArenaStats:
        """Bounds and Equation 4 potential power for every lane at once."""
        S, A = self.n_streams, len(self.attributes)
        mins = self._overall.mins().reshape(S, A)
        maxs = self._overall.maxs().reshape(S, A)
        overall = self._overall.medians().reshape(S, A)
        med_min = np.fmin.reduce(self._medring, axis=0).reshape(S, A)
        med_max = np.fmax.reduce(self._medring, axis=0).reshape(S, A)
        with np.errstate(invalid="ignore"):  # empty lanes: inf - inf
            span = maxs - mins
        # Power is zero while the buffer holds at most one full window,
        # when no window median exists yet, or for a constant lane —
        # the degenerate cases of the batch potential_power.
        live = (
            (self.sizes[:, None] > self.window)
            & ~np.isnan(med_min)
            & (span > 0)
        )
        deviation = np.fmax(
            np.abs(overall - med_min), np.abs(overall - med_max)
        )
        powers = np.where(
            live, deviation / np.where(span > 0, span, 1.0), 0.0
        )
        return ArenaStats(
            sizes=self.sizes, mins=mins, maxs=maxs, powers=powers
        )

    # ------------------------------------------------------------------
    def slots(self, stream: int) -> np.ndarray:
        """Slots of *stream*'s retained rows, oldest first."""
        end = int(self.appended[stream])
        return np.arange(end - int(self.sizes[stream]), end) % self.capacity

    def view(self, stream: int) -> "ArenaWindow":
        """A telemetry-window read view of one stream."""
        return ArenaWindow(self, int(stream))


class ArenaWindow:
    """Read adapter: one stream's arena rows as a telemetry window.

    Implements a telemetry window's read surface (``n_rows``,
    ``timestamps``, ``column``, ``matrix``, ``bounds``, ``to_dataset``,
    attribute lists), so the clustering and diagnosis code paths read it
    like a :class:`~repro.data.dataset.Dataset`.  The view is live —
    each read reflects the rows retained at that moment — and every
    array it returns is a fresh oldest-first copy gathered from the
    arena's timestamps and overall bank.
    """

    __slots__ = ("_arena", "_stream")

    def __init__(self, arena: FleetArena, stream: int) -> None:
        if not 0 <= stream < arena.n_streams:
            raise IndexError(f"stream {stream} out of range")
        self._arena = arena
        self._stream = stream

    @property
    def capacity(self) -> int:
        return self._arena.capacity

    @property
    def n_rows(self) -> int:
        return int(self._arena.sizes[self._stream])

    def __len__(self) -> int:
        return self.n_rows

    @property
    def appended(self) -> int:
        return int(self._arena.appended[self._stream])

    @property
    def oldest_seq(self) -> int:
        return self.appended - self.n_rows

    @property
    def numeric_attributes(self) -> List[str]:
        return list(self._arena.attributes)

    @property
    def categorical_attributes(self) -> List[str]:
        return []

    @property
    def timestamps(self) -> np.ndarray:
        arena = self._arena
        return arena._ts[self._stream].take(arena.slots(self._stream))

    def column(self, attr: str) -> np.ndarray:
        return self.matrix([attr])[:, 0]

    def matrix(self, attrs: Sequence[str]) -> np.ndarray:
        """``(rows, len(attrs))`` C-ordered copy of *attrs*' columns."""
        arena = self._arena
        base = self._stream * len(arena.attributes)
        lanes = [base + arena._attr_index[a] for a in attrs]
        return arena._overall.read(arena.slots(self._stream), lanes)

    def bounds(self, attr: str) -> Tuple[float, float]:
        if self.n_rows == 0:
            return 0.0, 0.0
        ai = self._arena._attr_index[attr]
        lane = self._stream * len(self._arena.attributes) + ai
        bank = self._arena._overall
        return (
            bank.lane_value(lane, 0),
            bank.lane_value(lane, int(bank.counts[lane]) - 1),
        )

    def to_dataset(self, name: str = "") -> Dataset:
        attrs = self._arena.attributes
        return Dataset(
            self.timestamps,
            numeric=dict(zip(attrs, self.matrix(attrs).T.copy())),
            categorical={
                a: self.column(a) for a in self.categorical_attributes
            },
            name=name,
        )
