"""Fleet tick engine: the streaming detector, vectorized across streams.

:class:`FleetDetector` is the repository's one implementation of the
Section 7 detector fed a row per tick; the single-stream
:class:`~repro.stream.detector.StreamingDetector` is a one-lane fleet.
Every per-tick stage — non-monotone drop, NaN sanitize, stuck-at
quarantine, the running Equation 4 potential power, bounds, attribute
selection — runs as a handful of dense numpy calls over the whole fleet
(:class:`~repro.fleet.arena.FleetArena`).  Only the *fallout* — DBSCAN
re-clustering, region closing — is peeled off, and only for streams
whose selected-attribute set is non-empty this tick: the whole fallout
set runs through the batched kernels
(:func:`~repro.fleet.fallout.cluster_windows_batch`,
:func:`~repro.fleet.fallout.close_regions_batch`), of which the batch
detector's ``AnomalyDetector._cluster_and_mask`` is a one-lane call.

Each lane's verdicts, masks, regions, ε, quarantine sets and counters
are asserted against independent references: the batch
:class:`~repro.core.anomaly.AnomalyDetector` on a window cut from the
repaired rows, and a test-only ingest oracle for the repair rules.
:meth:`FleetDetector.stream_checkpoint` emits the per-stream v1
checkpoint schema, so per-tenant recovery
(:mod:`repro.fleet.recovery`) reads single-stream files.

**Lane bulkheads.**  The fallout stage is the only per-stream Python in
the tick, and therefore the only place one tenant's pathological window
can raise.  When a fused fallout call raises, each lane reruns alone
behind its own bulkhead: an exception poisons *that lane only* — its
last-good checkpoint is frozen (the ingest stages had already completed
consistently), the lane stops ingesting and emits abstaining (empty)
verdicts, and every other lane's outputs remain bitwise-identical to a
fault-free run, because all shared stages are elementwise and a lane's
fallout result does not depend on its batch-mates.
:meth:`FleetDetector.unpoison` readmits a lane from its retained state;
durable tenants keep WAL'ing offered rows meanwhile, so nothing is lost
across the outage.
"""

from __future__ import annotations

import copy
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.core.anomaly import AnomalyDetector, DetectionResult
from repro.data.regions import Region
from repro.fleet.arena import FleetArena
from repro.fleet.fallout import close_regions_batch, cluster_windows_batch
from repro.obs import metrics
from repro.obs import trace

__all__ = ["FleetDetector", "FleetTick", "check_exact_checkpoint"]

#: Checkpoint ``params`` keys that name knobs of the retired approximate
#: re-cluster mode; they stay in the v1 schema at their old defaults so
#: checkpoints remain byte-identical.
_FORMAT_PARAMS = {
    "mode": "exact",
    "recluster_fraction": 0.05,
    "bounds_drift": 0.02,
}

_FLEET_TICK_SECONDS = metrics.REGISTRY.histogram(
    "repro_fleet_tick_seconds",
    "Wall time of one fleet-wide tick (all streams)",
)
_FLEET_STREAM_SECONDS = metrics.REGISTRY.histogram(
    "repro_fleet_stream_tick_seconds",
    "Amortized per-stream cost of one fleet tick",
    buckets=metrics.FINE_BUCKETS,
)
_FLEET_STREAM_TICKS = metrics.REGISTRY.counter(
    "repro_fleet_stream_ticks_total",
    "Per-stream ticks processed by the fleet engine",
)
_FLEET_RECLUSTERS = metrics.REGISTRY.counter(
    "repro_fleet_reclusters_total",
    "Per-stream DBSCAN re-clusters run by the fleet engine",
)
_FLEET_DROPPED = metrics.REGISTRY.counter(
    "repro_fleet_dropped_ticks_total",
    "Fleet rows discarded for non-monotone timestamps",
)
_FLEET_SANITIZED = metrics.REGISTRY.counter(
    "repro_fleet_sanitized_values_total",
    "NaN telemetry cells repaired by the fleet engine",
)
_FLEET_QUARANTINES = metrics.REGISTRY.counter(
    "repro_fleet_quarantine_events_total",
    "Fleet lanes newly quarantined as stuck-at",
)
_FLEET_CLOSED = metrics.REGISTRY.counter(
    "repro_fleet_closed_regions_total",
    "Abnormal regions closed by the fleet engine",
)
_FLEET_FALLOUT_STREAMS = metrics.REGISTRY.histogram(
    "repro_fleet_fallout_streams",
    "Streams leaving the vectorized path per fleet tick (storm pressure)",
    buckets=metrics.COUNT_BUCKETS,
)
_FLEET_FALLOUT_MS = metrics.REGISTRY.histogram(
    "repro_fleet_fallout_ms",
    "Wall time of the fallout stage (re-cluster + region close) per tick",
    buckets=metrics.MS_BUCKETS,
)
_FLEET_POISONED = metrics.REGISTRY.counter(
    "repro_fleet_poisoned_lanes_total",
    "Lanes quarantined by a fallout bulkhead (exception contained)",
)
_FLEET_POISON_SKIPPED = metrics.REGISTRY.counter(
    "repro_fleet_poison_skipped_rows_total",
    "Rows offered to poisoned lanes and skipped (retained in the WAL "
    "for durable tenants)",
)


@dataclass
class FleetTick:
    """What one fleet-wide tick produced.

    Per-stream :class:`DetectionResult` objects are materialized only
    for streams that ran fallout (non-empty selection); every other
    stream's verdict is the empty result, available lazily through
    :meth:`result` so a 10k-tenant tick does not allocate 10k masks.
    """

    #: per-stream row timestamps offered this tick.
    times: np.ndarray
    #: streams whose row was appended (monotone time, sanitized).
    accepted: np.ndarray
    #: streams whose row was discarded as non-monotone.
    dropped: np.ndarray
    #: ``(streams, attrs)`` bool — attributes clearing PPt, unquarantined.
    selected: np.ndarray
    #: ``(streams, attrs)`` Equation 4 potential power.
    powers: np.ndarray
    #: retained rows per stream at tick end.
    sizes: np.ndarray
    #: streams that ran a full re-cluster this tick.
    reclustered: np.ndarray
    #: fallout results, keyed by stream index.
    results: Dict[int, DetectionResult] = field(default_factory=dict)
    #: newly closed regions, keyed by stream index.
    closed: Dict[int, List[Region]] = field(default_factory=dict)
    #: per-stream tick-to-verdict wall time in seconds (NaN for streams
    #: not present this tick).  Quiet streams get their verdict when the
    #: vector phase completes; fallout streams when their re-cluster and
    #: region-closing finish.
    verdict_latency: Optional[np.ndarray] = None
    #: snapshot of the engine's poisoned-lane mask after this tick.
    poisoned: Optional[np.ndarray] = None
    #: lanes newly poisoned *this tick*, keyed by stream index, valued
    #: by the contained error's ``type: message`` string.
    lane_errors: Dict[int, str] = field(default_factory=dict)

    def result(self, stream: int) -> DetectionResult:
        """The per-stream verdict (empty result for quiet streams)."""
        got = self.results.get(int(stream))
        if got is not None:
            return got
        return _empty_result(int(self.sizes[int(stream)]))


def _empty_result(n_rows: int) -> DetectionResult:
    """The verdict of a stream with nothing selected: all rows normal."""
    return DetectionResult(
        mask=np.zeros(n_rows, dtype=bool),
        regions=[],
        selected_attributes=[],
        eps=0.0,
    )


def check_exact_checkpoint(state: Mapping[str, object]) -> None:
    """Reject checkpoints of the retired approximate re-cluster mode."""
    params = state.get("params") or {}
    mode = params.get("mode", "exact")  # type: ignore[union-attr]
    if mode != "exact" or state.get("cluster_state") is not None:
        raise ValueError(
            f"checkpoint of detector mode {mode!r} cannot be restored: "
            "only mode='exact' is supported"
        )


class FleetDetector:
    """N tenants' streaming detection as one columnar engine.

    Detection parameters mirror
    :class:`~repro.core.anomaly.AnomalyDetector`; *attributes* fixes the
    shared column schema up front, and *tracked* optionally restricts
    which attributes participate in selection (the filter the
    single-stream detector calls ``attributes``).  *quarantine_after*
    and *quarantine_rel_epsilon* configure the stuck-at quarantine
    (exact runs, or a rolling relative-variance floor).
    """

    CHECKPOINT_VERSION = 1

    def __init__(
        self,
        n_streams: int,
        attributes: Sequence[str],
        capacity: int = 120,
        window: int = 20,
        pp_threshold: float = 0.3,
        min_pts: int = 3,
        cluster_fraction: float = 0.2,
        include_noise: bool = True,
        min_region_s: float = 5.0,
        gap_fill_s: float = 3.0,
        tracked: Optional[Sequence[str]] = None,
        quarantine_after: Optional[int] = None,
        quarantine_rel_epsilon: Optional[float] = None,
    ) -> None:
        self.batch = AnomalyDetector(
            window=window,
            pp_threshold=pp_threshold,
            min_pts=min_pts,
            cluster_fraction=cluster_fraction,
            include_noise=include_noise,
            min_region_s=min_region_s,
            gap_fill_s=gap_fill_s,
        )
        self.arena = FleetArena(n_streams, attributes, capacity, window)
        self.capacity = int(capacity)
        self._attr_filter = list(tracked) if tracked is not None else None
        self._tracked = (
            [a for a in self._attr_filter if a in self.arena._attr_index]
            if self._attr_filter is not None
            else list(self.arena.attributes)
        )
        self._tracked_idx = np.asarray(
            [self.arena._attr_index[a] for a in self._tracked],
            dtype=np.int64,
        )
        A = len(self.arena.attributes)
        self._tracked_mask = np.zeros(A, dtype=bool)
        self._tracked_mask[self._tracked_idx] = True
        self.quarantine_after = (
            int(quarantine_after) if quarantine_after is not None else None
        )
        if self.quarantine_after is not None and self.quarantine_after < 2:
            raise ValueError("quarantine_after must be at least 2")
        self.quarantine_rel_epsilon = (
            float(quarantine_rel_epsilon)
            if quarantine_rel_epsilon is not None
            else None
        )
        if self.quarantine_rel_epsilon is not None:
            if self.quarantine_rel_epsilon < 0:
                raise ValueError("quarantine_rel_epsilon must be >= 0")
            if self.quarantine_after is None:
                raise ValueError(
                    "quarantine_rel_epsilon requires quarantine_after "
                    "(the rolling-window length)"
                )
        S = self.arena.n_streams
        self.tick_counts = np.zeros(S, dtype=np.int64)
        self.recluster_counts = np.zeros(S, dtype=np.int64)
        self.dropped_counts = np.zeros(S, dtype=np.int64)
        self.sanitized_counts = np.zeros(S, dtype=np.int64)
        self.last_time = np.full(S, -np.inf)
        self._has_time = np.zeros(S, dtype=bool)
        self._last_seen = np.zeros((S, A))
        self._seen = np.zeros((S, A), dtype=bool)
        self.quarantined = np.zeros((S, A), dtype=bool)
        self._stuck_runs = np.ones((S, A), dtype=np.int64)
        self._prev_value = np.full((S, A), np.nan)
        self._recent: Optional[np.ndarray] = (
            np.full((S, A, self.quarantine_after), np.nan)
            if self.quarantine_rel_epsilon is not None
            else None
        )
        self._emitted: List[Set[float]] = [set() for _ in range(S)]
        #: lanes quarantined by a fallout bulkhead: no ingest, no
        #: fallout, abstaining verdicts, frozen last-good checkpoint.
        self.poisoned = np.zeros(S, dtype=bool)
        self.poison_skipped = np.zeros(S, dtype=np.int64)
        self._poison_errors: Dict[int, str] = {}
        self._poison_checkpoints: Dict[int, Dict[str, object]] = {}
        self._lane_fault = None

    # ------------------------------------------------------------------
    def install_lane_fault(self, hook) -> None:
        """Install an in-process lane-fault hook (chaos injection seam).

        *hook* is ``hook(stream, view) -> None`` and is called at the
        start of each lane's fallout processing; raising from it
        simulates a pathological window and exercises the bulkhead
        exactly like an exception inside the clustering kernels would.
        Pass ``None`` to uninstall.
        """
        self._lane_fault = hook

    def poison(self, stream: int, reason: str = "operator") -> str:
        """Quarantine one lane, freezing its last-good checkpoint.

        The lane's state is consistent when this is called (the
        bulkhead fires only after the elementwise ingest stages have
        completed fleet-wide), so the captured checkpoint is the exact
        state a fault-free detector would checkpoint at this row.
        Subsequent ticks skip the lane entirely; every other lane is
        bitwise-unaffected.  Idempotent — repoisoning keeps the first
        frozen checkpoint and reason.
        """
        s = int(stream)
        if self.poisoned[s]:
            return self._poison_errors[s]
        state = self.stream_checkpoint(s)
        self.poisoned[s] = True
        self._poison_checkpoints[s] = state
        self._poison_errors[s] = str(reason)
        _FLEET_POISONED.inc()
        return self._poison_errors[s]

    def _contain(self, stream: int, exc: BaseException) -> str:
        return self.poison(stream, f"{type(exc).__name__}: {exc}")

    def unpoison(self, stream: int) -> None:
        """Readmit a quarantined lane from its retained last-good state.

        While poisoned the lane's live arrays were never touched, so
        clearing the flag resumes it bitwise-identically to a detector
        restored from the frozen checkpoint.  Rows offered during the
        quarantine were skipped (``poison_skipped``); durable tenants
        still hold them in their WAL for replay.
        """
        s = int(stream)
        if not self.poisoned[s]:
            return
        self.poisoned[s] = False
        self._poison_checkpoints.pop(s, None)
        self._poison_errors.pop(s, None)

    # ------------------------------------------------------------------
    @property
    def n_streams(self) -> int:
        return self.arena.n_streams

    @property
    def attributes(self) -> List[str]:
        return list(self.arena.attributes)

    def tick(
        self,
        times: np.ndarray,
        values: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> FleetTick:
        """One fleet-wide tick: ingest, select, and peel off fallout.

        *times* is ``(streams,)``, *values* ``(streams, attrs)`` (NaN
        cells allowed — they are sanitized, see :meth:`ingest`), *active*
        an optional mask of streams that have a row this round (default:
        all).
        """
        t0 = _time.perf_counter()
        S = self.n_streams
        times = np.asarray(times, dtype=np.float64)
        present = (
            np.ones(S, dtype=bool)
            if active is None
            else np.asarray(active, dtype=bool)
        )

        # Stage 0 — bulkhead gate: poisoned lanes skip the tick entirely
        # (their frozen checkpoint stays the source of truth; offered
        # rows are counted and, for durable tenants, retained in the
        # WAL).  Elementwise, so clean lanes see identical inputs.
        if self.poisoned.any():
            skipped = present & self.poisoned
            n_skipped = int(skipped.sum())
            if n_skipped:
                self.poison_skipped += skipped
                _FLEET_POISON_SKIPPED.inc(n_skipped)
            present = present & ~self.poisoned

        # Stages 1-4 — drop, sanitize, append, quarantine.
        accepted = self.ingest(times, values, present)
        dropped = present & ~accepted

        # Stage 5 — Equation 4 + bounds as single whole-fleet calls.
        stats, selected = self._select()

        # Stage 6 — per-stream fallout, only where something was selected.
        self.tick_counts += present
        fallout = np.nonzero(present & selected.any(axis=1))[0]
        results: Dict[int, DetectionResult] = {}
        closed: Dict[int, List[Region]] = {}
        reclustered = np.zeros(S, dtype=bool)
        n_closed = 0
        verdict_latency = np.full(S, np.nan)
        verdict_latency[present] = _time.perf_counter() - t0
        lane_errors: Dict[int, str] = {}
        fallout_t0 = _time.perf_counter()
        if fallout.size:
            streams = [int(s) for s in fallout]
            if self._lane_fault is not None:
                # evaluate the fault hook per lane up front so a raising
                # lane never enters the fused kernels
                surviving = []
                for s in streams:
                    try:
                        self._lane_fault(s, self.arena.view(s))
                    except Exception as exc:
                        lane_errors[s] = self._contain(s, exc)
                    else:
                        surviving.append(s)
                streams = surviving
            out = (selected, results, closed, reclustered, verdict_latency, t0)
            try:
                n_closed += self._fallout(streams, *out)
            except Exception:
                # one pathological lane sank the fused call: rerun each
                # lane alone, so only the offender is quarantined
                for s in streams:
                    try:
                        n_closed += self._fallout([s], *out)
                    except Exception as exc:
                        lane_errors[s] = self._contain(s, exc)
        fallout_ms = (_time.perf_counter() - fallout_t0) * 1000.0

        elapsed = _time.perf_counter() - t0
        n_present = int(present.sum())
        if trace.enabled():
            ctx = trace.current_context()
            _FLEET_TICK_SECONDS.observe(
                elapsed, exemplar=ctx[0] if ctx else None
            )
            trace.stage(
                "fleet.tick",
                elapsed,
                streams=n_present,
                closed=n_closed,
            )
        else:
            _FLEET_TICK_SECONDS.observe(elapsed)
        if n_present:
            _FLEET_STREAM_SECONDS.observe(elapsed / n_present)
            _FLEET_STREAM_TICKS.inc(n_present)
            _FLEET_FALLOUT_STREAMS.observe(int(fallout.size))
        n_reclustered = int(reclustered.sum())
        if n_reclustered:
            _FLEET_RECLUSTERS.inc(n_reclustered)
        if fallout.size:
            _FLEET_FALLOUT_MS.observe(fallout_ms)
        if n_closed:
            _FLEET_CLOSED.inc(n_closed)
        return FleetTick(
            times=times,
            accepted=accepted,
            dropped=dropped,
            selected=selected,
            powers=stats.powers,
            sizes=stats.sizes.copy(),
            reclustered=reclustered,
            results=results,
            closed=closed,
            verdict_latency=verdict_latency,
            poisoned=self.poisoned.copy(),
            lane_errors=lane_errors,
        )

    def ingest(
        self, times: np.ndarray, values: np.ndarray, present: np.ndarray
    ) -> np.ndarray:
        """Stages 1-4 of a tick for the streams in *present*.

        Rows whose timestamp does not advance are dropped (before
        sanitize), non-finite cells (NaN, ±inf) take the attribute's
        last finite value (0.0 before any), the sanitized rows are
        appended to the arena, and the stuck-at quarantine is updated.
        Returns the mask of streams whose row was accepted.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        accepted = present & (times > self.last_time)
        dropped = present & ~accepted
        self.dropped_counts += dropped

        finite = np.isfinite(values)
        bad_cells = ~finite & accepted[:, None]
        clean = np.where(bad_cells, self._last_seen, values)
        n_sanitized = bad_cells.sum(axis=1)
        self.sanitized_counts += n_sanitized
        valid = accepted[:, None] & finite
        self._last_seen = np.where(valid, values, self._last_seen)
        self._seen |= valid
        self.last_time = np.where(accepted, times, self.last_time)
        self._has_time |= accepted

        self.arena.append(times, clean, accepted)
        n_quarantined = self._update_quarantine(clean, accepted)

        n_dropped = int(dropped.sum())
        if n_dropped:
            _FLEET_DROPPED.inc(n_dropped)
        total_sanitized = int(n_sanitized.sum())
        if total_sanitized:
            _FLEET_SANITIZED.inc(total_sanitized)
        if n_quarantined:
            _FLEET_QUARANTINES.inc(n_quarantined)
        return accepted

    def count_sanitized(self, stream: int, cells: int) -> None:
        """Count *cells* repaired outside the numeric arena (the
        single-stream detector's categorical columns)."""
        self.sanitized_counts[int(stream)] += cells
        _FLEET_SANITIZED.inc(cells)

    def _select(self):
        """Stage 5: whole-fleet stats and the selected-attribute mask."""
        stats = self.arena.stats()
        selected = (
            (stats.powers > self.batch.pp_threshold)
            & self._tracked_mask[None, :]
            & ~self.quarantined
        )
        return stats, selected

    def quarantined_attributes(self, stream: int) -> List[str]:
        """Tracked attributes of *stream* currently quarantined."""
        return self._lane_attrs(int(stream), self.quarantined)

    def _lane_attrs(self, stream: int, selected: np.ndarray) -> List[str]:
        return [
            a
            for a, ai in zip(self._tracked, self._tracked_idx)
            if selected[stream, ai]
        ]

    def detect_stream(self, stream: int) -> DetectionResult:
        """One stream's verdict on its current window, closing nothing.

        Stages 5-6 for a single stream outside a fleet tick: counts the
        tick and re-clusters when an attribute is selected, but leaves
        the closed-region bookkeeping to the next :meth:`tick`.
        """
        s = int(stream)
        self.tick_counts[s] += 1
        n_rows = int(self.arena.sizes[s])
        names = self._lane_attrs(s, self._select()[1]) if n_rows else []
        if not names:
            return _empty_result(n_rows)
        result = cluster_windows_batch(
            self.batch, [self.arena.view(s)], [names]
        )[0]
        self.recluster_counts[s] += 1
        _FLEET_RECLUSTERS.inc()
        return result

    def _fallout(
        self,
        streams: Sequence[int],
        selected: np.ndarray,
        results: Dict[int, DetectionResult],
        closed: Dict[int, List[Region]],
        reclustered: np.ndarray,
        verdict_latency: np.ndarray,
        t0: float,
    ) -> int:
        """Re-cluster *streams* and close their regions in one fused call.

        Nothing is written until both kernels have returned, so a call
        that raises leaves every lane's state untouched.  Returns the
        number of regions closed.
        """
        if not streams:
            return 0
        views = [self.arena.view(s) for s in streams]
        lane_results = cluster_windows_batch(
            self.batch, views, [self._lane_attrs(s, selected) for s in streams]
        )
        closed_lists, emitted_out = close_regions_batch(
            [res.regions for res in lane_results],
            views,
            self.batch.gap_fill_s,
            [self._emitted[s] for s in streams],
        )
        n_closed = 0
        idx = np.asarray(streams, dtype=np.intp)
        self.recluster_counts[idx] += 1
        reclustered[idx] = True
        for s, res, regions, emitted in zip(
            streams, lane_results, closed_lists, emitted_out
        ):
            results[s] = res
            self._emitted[s] = emitted
            if regions:
                closed[s] = regions
                n_closed += len(regions)
        verdict_latency[idx] = _time.perf_counter() - t0
        return n_closed

    # ------------------------------------------------------------------
    def _update_quarantine(
        self, clean: np.ndarray, accepted: np.ndarray
    ) -> int:
        """Stage 4: the exact stuck-run rule, or the rolling relative-
        variance rule when ``quarantine_rel_epsilon`` is set."""
        if self.quarantine_after is None:
            return 0
        before = self.quarantined
        lanes = accepted[:, None] & self._tracked_mask[None, :]
        if self.quarantine_rel_epsilon is None:
            eq = (self._prev_value == clean) & lanes
            self._stuck_runs = np.where(
                lanes, np.where(eq, self._stuck_runs + 1, 1), self._stuck_runs
            )
            hit = eq & (self._stuck_runs >= self.quarantine_after)
            self.quarantined = np.where(
                lanes, (self.quarantined & eq) | hit, self.quarantined
            )
            self._prev_value = np.where(lanes, clean, self._prev_value)
        else:
            assert self._recent is not None
            rows = np.nonzero(accepted)[0]
            self._recent[rows, :, :-1] = self._recent[rows, :, 1:]
            self._recent[rows, :, -1] = clean[rows]
            ready = lanes & (
                self.arena.appended >= self.quarantine_after
            )[:, None]
            if ready.any():
                means = self._recent.mean(axis=2)
                stds = self._recent.std(axis=2)
                scale = np.maximum(np.abs(means), 1e-12)
                stuck = stds <= self.quarantine_rel_epsilon * scale
                self.quarantined = np.where(
                    ready, stuck, self.quarantined
                )
        return int((self.quarantined & ~before).sum())

    # ------------------------------------------------------------------
    # Per-stream checkpoints (the v1 single-stream schema)
    # ------------------------------------------------------------------
    def _params(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "window": self.batch.window,
            "pp_threshold": self.batch.pp_threshold,
            "min_pts": self.batch.min_pts,
            "cluster_fraction": self.batch.cluster_fraction,
            "include_noise": self.batch.include_noise,
            "min_region_s": self.batch.min_region_s,
            "gap_fill_s": self.batch.gap_fill_s,
            "attributes": (
                list(self._attr_filter)
                if self._attr_filter is not None
                else None
            ),
            **_FORMAT_PARAMS,
            "quarantine_after": self.quarantine_after,
            "quarantine_rel_epsilon": self.quarantine_rel_epsilon,
        }

    def stream_checkpoint(self, stream: int) -> Dict[str, object]:
        """One stream's state in the v1 per-stream checkpoint schema
        (``StreamingDetector.checkpoint``), so per-tenant recovery
        (:mod:`repro.fleet.recovery`) and single-stream restore read
        the same files.

        A poisoned lane returns its frozen last-good checkpoint — the
        state captured the moment the bulkhead fired — so durable
        checkpointing keeps writing a consistent, restorable state for
        the tenant throughout the quarantine.
        """
        s = int(stream)
        if self.poisoned[s]:
            return copy.deepcopy(self._poison_checkpoints[s])
        arena = self.arena
        ai_of = arena._attr_index
        appended = int(arena.appended[s])
        exact_rule = (
            self.quarantine_after is not None
            and self.quarantine_rel_epsilon is None
        )
        stuck_runs: Dict[str, int] = {}
        prev_value: Dict[str, float] = {}
        recent_values: Dict[str, List[float]] = {}
        if appended > 0 and exact_rule:
            for a in self._tracked:
                stuck_runs[a] = int(self._stuck_runs[s, ai_of[a]])
                prev_value[a] = float(self._prev_value[s, ai_of[a]])
        if appended > 0 and self._recent is not None:
            m = min(appended, self.quarantine_after)
            for a in self._tracked:
                lane = self._recent[s, ai_of[a]]
                recent_values[a] = [float(v) for v in lane[len(lane) - m :]]
        emitted = self._emitted[s]
        window_dump = None
        if appended > 0:
            view = arena.view(s)
            ts = view.timestamps
            emitted = {e for e in emitted if e >= float(ts[0])}
            self._emitted[s] = emitted
            columns = view.matrix(arena.attributes).T
            window_dump = {
                "appended": appended,
                "numeric_attrs": list(arena.attributes),
                "categorical_attrs": [],
                "tracked": list(self._tracked),
                "timestamps": ts.tolist(),
                "numeric": {
                    a: col.tolist() for a, col in zip(arena.attributes, columns)
                },
                "categorical": {},
            }
        last_seen = {
            a: float(self._last_seen[s, ai_of[a]])
            for a in arena.attributes
            if self._seen[s, ai_of[a]]
        }
        return {
            "version": self.CHECKPOINT_VERSION,
            "params": self._params(),
            "tick_count": int(self.tick_counts[s]),
            "recluster_count": int(self.recluster_counts[s]),
            "dropped_ticks": int(self.dropped_counts[s]),
            "sanitized_values": int(self.sanitized_counts[s]),
            "quarantined": sorted(self.quarantined_attributes(s)),
            "stuck_runs": stuck_runs,
            "recent_values": recent_values,
            "prev_value": prev_value,
            "last_seen": last_seen,
            "last_cat": {},
            "last_time": (
                float(self.last_time[s]) if self._has_time[s] else None
            ),
            "emitted_ends": sorted(emitted),
            "window": window_dump,
            "cluster_state": None,
            # ``size`` is implied: min(appended, capacity) == len(timestamps)
        }

    @classmethod
    def from_checkpoints(
        cls,
        states: Sequence[Optional[Mapping[str, object]]],
        attributes: Optional[Sequence[str]] = None,
    ) -> "FleetDetector":
        """Rebuild a fleet from per-stream checkpoint dicts.

        Every state must share one parameter set (one fleet, one
        config); a ``None`` state restarts its lane empty.  Windows are
        replayed row-position-aligned through the vectorized arena —
        each lane's order statistics depend only on its own retained
        rows, so the restored fleet is bitwise equivalent to the
        uninterrupted one.
        """
        given = [st for st in states if st is not None]
        if not given:
            raise ValueError("from_checkpoints needs at least one state")
        for st in given:
            if st.get("version") != cls.CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {st.get('version')!r}"
                )
        params = dict(given[0]["params"])  # type: ignore[arg-type]
        for st in given[1:]:
            if dict(st["params"]) != params:  # type: ignore[arg-type]
                raise ValueError(
                    "fleet checkpoints must share one parameter set"
                )
        for st in given:
            check_exact_checkpoint(st)
        windows = [None if st is None else st.get("window") for st in states]
        attrs = list(attributes) if attributes is not None else None
        if attrs is None:
            for win in windows:
                if win is not None:
                    attrs = list(win["numeric_attrs"])  # type: ignore[index]
                    break
        if attrs is None:
            raise ValueError(
                "attributes required when no state has a window"
            )
        det = cls(
            n_streams=len(states),
            attributes=attrs,
            capacity=int(params["capacity"]),
            window=int(params["window"]),
            pp_threshold=float(params["pp_threshold"]),
            min_pts=int(params["min_pts"]),
            cluster_fraction=float(params["cluster_fraction"]),
            include_noise=bool(params["include_noise"]),
            min_region_s=float(params["min_region_s"]),
            gap_fill_s=float(params["gap_fill_s"]),
            tracked=params.get("attributes"),
            quarantine_after=params.get("quarantine_after"),
            quarantine_rel_epsilon=params.get("quarantine_rel_epsilon"),
        )
        # each lane's retained rows as one (rows, attrs) block, replayed
        # at their original sequence numbers (and so at their slots)
        S, A = det.n_streams, len(attrs)
        ai_of = det.arena._attr_index
        n_rows = np.array(
            [0 if w is None else len(w["timestamps"]) for w in windows],  # type: ignore[index]
            dtype=np.int64,
        )
        times = np.zeros((int(n_rows.max()), S))
        vals = np.zeros((times.shape[0], S, A))
        for s, win in enumerate(windows):
            if win is None:
                continue
            n = int(n_rows[s])
            det.arena.appended[s] = int(win["appended"]) - n  # type: ignore[index]
            times[:n, s] = win["timestamps"]  # type: ignore[index]
            numeric = win["numeric"]  # type: ignore[index]
            vals[:n, s] = np.array(
                [numeric[a] for a in attrs], dtype=np.float64
            ).reshape(A, n).T
        for r in range(times.shape[0]):
            det.arena.append(times[r], vals[r], n_rows > r)
        for s, st in enumerate(states):
            if st is None:
                continue
            det.tick_counts[s] = int(st["tick_count"])
            det.recluster_counts[s] = int(st["recluster_count"])
            det.dropped_counts[s] = int(st["dropped_ticks"])
            det.sanitized_counts[s] = int(st["sanitized_values"])
            for a in st["quarantined"]:  # type: ignore[union-attr]
                det.quarantined[s, ai_of[a]] = True
            for a, v in dict(st["stuck_runs"]).items():  # type: ignore[arg-type]
                det._stuck_runs[s, ai_of[a]] = int(v)
            for a, v in dict(st["prev_value"]).items():  # type: ignore[arg-type]
                det._prev_value[s, ai_of[a]] = float(v)
            if det._recent is not None:
                for a, vals_list in dict(
                    st.get("recent_values", {})  # type: ignore[arg-type]
                ).items():
                    m = len(vals_list)
                    if m:
                        det._recent[s, ai_of[a], -m:] = [
                            float(v) for v in vals_list
                        ]
            for a, v in dict(st["last_seen"]).items():  # type: ignore[arg-type]
                det._last_seen[s, ai_of[a]] = float(v)
                det._seen[s, ai_of[a]] = True
            lt = st.get("last_time")
            if lt is not None:
                det.last_time[s] = float(lt)
                det._has_time[s] = True
            det._emitted[s] = {float(e) for e in st["emitted_ends"]}  # type: ignore[union-attr]
        return det
