"""Online anomaly detection for one telemetry stream: a one-lane fleet.

The batch :class:`~repro.core.anomaly.AnomalyDetector` recomputes
everything from scratch per call — Equation 4 costs O(n·w log w) per
attribute, every tick.  :class:`StreamingDetector` keeps the Section 7
pipeline's state live instead, and it does so by being a single-lane
:class:`~repro.fleet.engine.FleetDetector`: the fleet's columnar arena
holds the window and its order statistics (so the Equation 4 potential
power and the Equation 2 bounds update in a few numpy calls per row),
and attribute selection, DBSCAN re-clustering and region closing are the
fleet's own stages.  There is one implementation of streaming detection;
this module adds only what a single stream needs on top of it:

* the telemetry schema is taken from the first row (later rows may miss
  attributes — those cells are sanitized — or carry extra ones, which
  are ignored);
* categorical columns ride alongside the numeric arena, so the window
  can be materialized as a full :class:`~repro.data.dataset.Dataset`
  for diagnosis;
* ``observe`` / ``detect`` keep ingesting and detecting separable, and
  :meth:`StreamingDetector.checkpoint` writes the v1 schema the WAL and
  recovery files depend on.

:class:`StreamingDiagnoser` closes the loop with the diagnosis path:
when a flagged region can no longer be extended (the gap behind it
exceeds ``gap_fill_s``), it is handed to ``DBSherlock.explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.anomaly import DetectionResult
from repro.data.regions import Region, RegionSpec
from repro.fleet.arena import ArenaWindow
from repro.fleet.engine import FleetDetector, check_exact_checkpoint

__all__ = [
    "StreamTick",
    "StreamWindow",
    "StreamingDetector",
    "StreamingDiagnoser",
]

_ONE = np.ones(1, dtype=bool)


@dataclass
class StreamTick:
    """What the streaming detector emits for one telemetry tick."""

    time: float
    result: DetectionResult
    #: abnormal regions that can no longer grow (gap behind them exceeds
    #: the gap-fill horizon) — ready for diagnosis; each emitted once.
    closed_regions: List[Region] = field(default_factory=list)
    #: True when this tick ran a full DBSCAN re-cluster.
    reclustered: bool = False


class StreamWindow(ArenaWindow):
    """The detector's telemetry window: its arena lane plus categoricals.

    ``timestamps`` / ``column`` copies oldest first, numeric ``bounds``,
    and ``to_dataset`` snapshots.  Categorical columns are
    ``capacity``-slot object buffers under the arena's slot rule (row
    ``k`` at slot ``k % capacity``), read through the same
    :meth:`~repro.fleet.arena.FleetArena.slots`.
    """

    __slots__ = ("_categorical",)

    def __init__(self, arena, categorical: Dict[str, np.ndarray]) -> None:
        super().__init__(arena, 0)
        self._categorical = categorical

    @property
    def full(self) -> bool:
        return self.n_rows == self.capacity

    @property
    def categorical_attributes(self) -> List[str]:
        return list(self._categorical)

    def column(self, attr: str) -> np.ndarray:
        buf = self._categorical.get(attr)
        if buf is None:
            return super().column(attr)
        return buf.take(self._arena.slots(self._stream))


class StreamingDetector:
    """Per-tick automatic anomaly detection on one telemetry stream.

    Parameters mirror :class:`~repro.core.anomaly.AnomalyDetector`; the
    extras control the streaming machinery.  Every tick's
    :class:`DetectionResult` equals ``AnomalyDetector.detect`` on the
    same window (restricted to unquarantined attributes).

    Parameters
    ----------
    capacity:
        Window length — the detection window, in rows/seconds.
    attributes:
        Optional subset of numeric attributes to consider for selection
        (all numeric attributes are still buffered for diagnosis).
    mode:
        Only ``"exact"`` (re-cluster on every tick with a selection);
        kept so existing configurations and checkpoints still load.
    quarantine_after:
        Degraded telemetry: an attribute whose value has been *exactly*
        identical for this many consecutive ticks (a stuck-at counter) is
        quarantined — excluded from attribute selection until its value
        moves again.  ``None`` (default) disables quarantine.
    quarantine_rel_epsilon:
        Variance-based quarantine: quarantine an attribute whose rolling
        ``quarantine_after``-tick standard deviation falls to or below
        this fraction of the window's mean magnitude — catching stuck-at
        sensors that jitter in the low bits.  Requires
        ``quarantine_after``.  ``None`` (default) keeps the exact rule.
    """

    CHECKPOINT_VERSION = FleetDetector.CHECKPOINT_VERSION

    def __init__(
        self,
        capacity: int = 120,
        window: int = 20,
        pp_threshold: float = 0.3,
        min_pts: int = 3,
        cluster_fraction: float = 0.2,
        include_noise: bool = True,
        min_region_s: float = 5.0,
        gap_fill_s: float = 3.0,
        attributes: Optional[Sequence[str]] = None,
        mode: str = "exact",
        quarantine_after: Optional[int] = None,
        quarantine_rel_epsilon: Optional[float] = None,
    ) -> None:
        if mode != "exact":
            raise ValueError(f"unsupported mode {mode!r}: only 'exact'")
        self.capacity = int(capacity)
        self._fleet_kw = dict(
            capacity=self.capacity,
            # a window wider than the buffer never completes, so nothing
            # is ever selected — exactly what window == capacity gives
            window=min(window, self.capacity),
            pp_threshold=pp_threshold,
            min_pts=min_pts,
            cluster_fraction=cluster_fraction,
            include_noise=include_noise,
            min_region_s=min_region_s,
            gap_fill_s=gap_fill_s,
            tracked=list(attributes) if attributes is not None else None,
            quarantine_after=quarantine_after,
            quarantine_rel_epsilon=quarantine_rel_epsilon,
        )
        # until the first row fixes the schema, a column-less lane keeps
        # the counters (and validates the parameters)
        self._fleet = FleetDetector(1, [], **self._fleet_kw)
        self._params = dict(self._fleet._params(), window=window)
        self._categorical: Optional[Dict[str, np.ndarray]] = None
        self._last_cat: Dict[str, str] = {}

    # ------------------------------------------------------------------
    @property
    def window(self) -> Optional[StreamWindow]:
        """The live telemetry window (None before the first row)."""
        if self._categorical is None:
            return None
        return StreamWindow(self._fleet.arena, self._categorical)

    @property
    def tick_count(self) -> int:
        return int(self._fleet.tick_counts[0])

    @property
    def recluster_count(self) -> int:
        return int(self._fleet.recluster_counts[0])

    @property
    def dropped_ticks(self) -> int:
        """Rows discarded for non-monotone timestamps."""
        return int(self._fleet.dropped_counts[0])

    @property
    def sanitized_values(self) -> int:
        """Non-finite / missing cells repaired on ingest."""
        return int(self._fleet.sanitized_counts[0])

    @property
    def quarantined(self) -> Set[str]:
        """Attributes currently quarantined as stuck-at."""
        return set(self._fleet.quarantined_attributes(0))

    def _fix_schema(
        self,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]],
    ) -> None:
        numeric = list(numeric_row)
        categorical = list(categorical_row or {})
        if not numeric and not categorical:
            raise ValueError("window needs at least one attribute")
        ticks = self._fleet.tick_counts
        self._fleet = FleetDetector(1, numeric, **self._fleet_kw)
        self._fleet.tick_counts[:] = ticks
        self._categorical = {
            a: np.empty(self.capacity, dtype=object) for a in categorical
        }

    # ------------------------------------------------------------------
    def observe(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> bool:
        """Ingest one telemetry row (no detection).

        Degraded telemetry is repaired on the way in: rows whose
        timestamp does not advance are dropped (``dropped_ticks``),
        non-finite (NaN, ±inf) and missing cells are filled with the
        attribute's last finite value (``sanitized_values``), and
        exactly-constant runs feed the stuck-at quarantine.  Returns
        ``True`` when the row was ingested.
        """
        times, values = self._lane_row(time, numeric_row, categorical_row)
        accepted = bool(self._fleet.ingest(times, values, _ONE)[0])
        if accepted and self._categorical:
            self._append_categorical(categorical_row or {})
        return accepted

    def _lane_row(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The row as one-lane fleet input (missing cells become NaN)."""
        if self._categorical is None:
            self._fix_schema(numeric_row, categorical_row)
        attrs = self._fleet.arena.attributes
        values = [[numeric_row.get(a) for a in attrs]]
        return np.array([float(time)]), np.array(values, dtype=np.float64)

    def _append_categorical(self, row: Mapping[str, str]) -> None:
        slot = self._fleet.arena.slots(0)[-1]  # the row just appended
        missing = 0
        for attr, buf in self._categorical.items():
            if attr in row:
                value = self._last_cat[attr] = row[attr]
            else:
                value = self._last_cat.get(attr, "")
                missing += 1
            buf[slot] = value
        if missing:
            self._fleet.count_sanitized(0, missing)

    def detect(self) -> DetectionResult:
        """Run detection on the current window contents."""
        return self._fleet.detect_stream(0)

    def tick(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> StreamTick:
        """Ingest one row, detect, and emit newly closed regions."""
        times, values = self._lane_row(time, numeric_row, categorical_row)
        fleet = self._fleet
        out = fleet.tick(times, values)
        if out.lane_errors:
            # one lane has no neighbours to shield: surface the failure
            fleet.unpoison(0)
            raise RuntimeError(out.lane_errors[0])
        if out.accepted[0] and self._categorical:
            self._append_categorical(categorical_row or {})
        return StreamTick(
            time=float(time),
            result=out.result(0),
            closed_regions=out.closed.get(0, []),
            reclustered=bool(out.reclustered[0]),
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """Serialize the full detector state as a JSON-able dict (v1).

        :meth:`from_checkpoint` rebuilds a detector whose subsequent
        output is bit-identical to the uninterrupted one: the retained
        window rows are stored with their original sequence numbers and
        replayed into a fresh arena on restore — every live order
        statistic depends only on the retained rows.
        """
        state = self._fleet.stream_checkpoint(0)
        state["params"] = dict(self._params)
        state["last_cat"] = dict(self._last_cat)
        win = state["window"]
        if win is not None:
            view = self.window
            win["categorical_attrs"] = view.categorical_attributes
            win["categorical"] = {
                a: [str(v) for v in view.column(a)]
                for a in view.categorical_attributes
            }
        return state

    @classmethod
    def from_checkpoint(cls, state: Mapping[str, object]) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`checkpoint` dict."""
        version = state.get("version")
        if version != cls.CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {cls.CHECKPOINT_VERSION})"
            )
        check_exact_checkpoint(state)
        params = dict(state["params"])  # type: ignore[arg-type]
        for key in ("recluster_fraction", "bounds_drift"):
            params.pop(key, None)
        detector = cls(**params)
        lane = dict(state)
        lane["params"] = dict(
            state["params"], window=detector._fleet_kw["window"]
        )
        win = state.get("window")
        numeric = list(win["numeric_attrs"]) if win is not None else []
        detector._fleet = FleetDetector.from_checkpoints(
            [lane], attributes=numeric
        )
        detector._last_cat = {
            a: str(v) for a, v in dict(state["last_cat"]).items()
        }
        if win is not None:
            slots = detector._fleet.arena.slots(0)
            detector._categorical = {}
            for attr in win["categorical_attrs"]:
                buf = np.empty(detector.capacity, dtype=object)
                buf[slots] = np.array(win["categorical"][attr], dtype=object)
                detector._categorical[attr] = buf
        return detector


class StreamingDiagnoser:
    """Feed closed abnormal regions into the DBSherlock diagnosis path.

    Wraps a :class:`StreamingDetector` and a
    :class:`~repro.core.explain.DBSherlock` facade; every region the
    detector closes is explained (predicates + ranked known causes) on
    the current window snapshot.  The facade's shared
    :class:`~repro.perf.cache.LabeledSpaceCache` makes consecutive
    diagnoses on overlapping windows cheap.
    """

    def __init__(self, sherlock, detector: Optional[StreamingDetector] = None):
        self.sherlock = sherlock
        self.detector = detector or StreamingDetector()
        #: ``(region, explanation)`` pairs, most recent last.
        self.diagnoses: List[Tuple[Region, object]] = []

    def tick(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> StreamTick:
        """Ingest one row; diagnose any regions that closed this tick."""
        update = self.detector.tick(time, numeric_row, categorical_row)
        for region in update.closed_regions:
            dataset = self.detector.window.to_dataset(name="stream-window")
            spec = RegionSpec(abnormal=[region], normal=None)
            explanation = self.sherlock.explain(dataset, spec)
            self.diagnoses.append((region, explanation))
        return update
