"""Multi-tenant fleet scheduler: the tick loop, durability and recovery.

:class:`FleetScheduler` multiplexes N tenants' tick streams over one
:class:`~repro.fleet.engine.FleetDetector`, following the
runner/scheduler split of SNIPPETS.md.  A round
(:meth:`~FleetScheduler.run_round`) writes each durable tenant's row to
its WAL, ticks the vectorized engine once for every tenant, quarantines
poisoned lanes, hands closed regions to the diagnosis executor
(:class:`~repro.fleet.diagnosis.DiagnosisExecutor`: fused batches, shed
policies, deadlines, retries, breakers) and checkpoints every
``checkpoint_every`` rounds.  One shared ``DBSherlock`` (one
``CausalModelStore``) serves the fleet, so a cause learned from one
tenant ranks for every other.

Durable tenants get their own WAL/checkpoint directory
(``root_dir/<tenant>/``) in the single-stream formats of
:mod:`repro.fleet.recovery`, guarded by a
:class:`~repro.stream.durability.TenantDurability`; a crashed fleet
comes back with :meth:`FleetScheduler.recover`.  Per-tenant lag, shed,
verdict and latency series land in the metrics registry
(``repro_fleet_tenant_*{tenant="..."}``; ``label_metrics=False`` skips
them for 10k-tenant runs), and an attached flight or incident recorder
is driven by :class:`~repro.fleet.forensics.Forensics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.regions import Region
from repro.fleet import recovery
from repro.fleet.diagnosis import SHED_POLICIES, DiagnosisExecutor
from repro.fleet.engine import FleetDetector, FleetTick
from repro.fleet.forensics import Forensics
from repro.fleet.health import HealthTracker
from repro.obs import metrics
from repro.stream.durability import TenantDurability
from repro.stream.wal import (
    DEFAULT_SEGMENT_BYTES,
    CheckpointStore,
    TickWAL,
)

__all__ = ["FleetScheduler", "SchedulerReport", "SHED_POLICIES"]

#: Transient storage errors retried per operation before a tenant
#: degrades to volatile persistence.
STORAGE_RETRIES = 2
#: A degraded tenant's volatile buffer cap (oldest ticks evicted).
MAX_VOLATILE_TICKS = 4096

_SCHED_ROUNDS = metrics.REGISTRY.counter(
    "repro_fleet_rounds_total", "Fleet scheduler rounds driven"
)
_SCHED_CHECKPOINTS = metrics.REGISTRY.counter(
    "repro_fleet_checkpoints_total", "Durable per-tenant checkpoints taken"
)
_TENANT_LAG = metrics.REGISTRY.gauge(
    "repro_fleet_tenant_lag",
    "Queued (undiagnosed) closed regions per tenant",
    labelnames=("tenant",),
)
_TENANT_VERDICTS = metrics.REGISTRY.counter(
    "repro_fleet_tenant_verdicts_total",
    "Per-round detection verdicts per tenant",
    labelnames=("tenant", "verdict"),
)
_TENANT_TICK_SECONDS = metrics.REGISTRY.histogram(
    "repro_fleet_tenant_tick_seconds",
    "Tick-to-verdict latency per tenant",
    buckets=metrics.FINE_BUCKETS,
    labelnames=("tenant",),
)
_WAL_BYTES = metrics.REGISTRY.gauge(
    "repro_fleet_wal_bytes",
    "Retained WAL bytes per durable tenant (poisoned lanes included)",
    labelnames=("tenant",),
)
_WAL_BYTES_TOTAL = metrics.REGISTRY.gauge(
    "repro_fleet_wal_bytes_total",
    "Retained WAL bytes summed across all durable tenants",
)


@dataclass
class SchedulerReport:
    """Aggregate outcome of the rounds driven so far."""

    rounds: int = 0
    stream_ticks: int = 0
    diagnoses: int = 0
    shed: int = 0
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    checkpoints: int = 0
    abnormal_verdicts: int = 0
    closed_regions: int = 0
    #: jobs whose diagnosis failed terminally (retries exhausted).
    diagnosis_failures: int = 0
    failures_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: jobs requeued on the backoff schedule after a worker failure.
    retries: int = 0
    #: soft + hard deadline misses (each tier counts per job).
    deadline_misses: int = 0
    #: soft-deadline fallbacks published as cached-models-only rankings.
    degraded_rankings: int = 0
    breaker_opens: int = 0
    breaker_readmits: int = 0


class FleetScheduler:
    """Drive a :class:`FleetDetector` with bounded diagnosis fallout.

    Parameters
    ----------
    detector / tenants:
        The fleet engine and one unique name per stream (default
        ``t0000..``); names label metrics and durable directories.
    sherlock:
        Shared ``DBSherlock`` facade; ``None`` reports closed regions
        without explaining them.
    root_dir / durable:
        Durability root and the tenants that write a WAL and periodic
        checkpoints there (every ``checkpoint_every`` rounds; 0 never).
    diagnose_jobs / max_pending / shed_policy / soft_deadline_s /
    hard_deadline_s:
        Worker count and fused batch size, backpressure bound and
        policy, and deadline tiers of the
        :class:`~repro.fleet.diagnosis.DiagnosisExecutor`.
    label_metrics:
        Emit per-tenant labeled metric families.
    breaker_threshold / breaker_cooldown_rounds:
        Per-tenant circuit breaker: consecutive terminal failures to
        open, and rounds before a half-open probe.
    fsync_every / wal_segment_bytes / max_wal_bytes_per_tenant:
        WAL fsync batching and segment size, and the retained-bytes cap
        each checkpoint compacts to (what bounds a poisoned lane's log).
    storage_backoff_s / storage_probe_every:
        :class:`~repro.stream.durability.TenantDurability` policy (with
        :data:`STORAGE_RETRIES` and :data:`MAX_VOLATILE_TICKS`): transient
        I/O errors retry, exhaustion degrades the tenant to volatile
        persistence until a probe finds the disk healed; transitions
        reach :class:`HealthTracker` with ``storage:`` reasons.
    flight / incidents / incident_capture_rounds / timeline_every:
        Flight and incident recorders and their cadence (see
        :class:`~repro.fleet.forensics.Forensics`).
    """

    def __init__(
        self,
        detector: FleetDetector,
        tenants: Optional[Sequence[str]] = None,
        sherlock=None,
        root_dir: Optional[Union[str, Path]] = None,
        durable: Sequence[str] = (),
        diagnose_jobs: int = 2,
        max_pending: int = 64,
        shed_policy: str = "drop_oldest",
        checkpoint_every: int = 0,
        label_metrics: bool = True,
        fsync_every: int = 8,
        soft_deadline_s: Optional[float] = None,
        hard_deadline_s: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_cooldown_rounds: int = 8,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_wal_bytes_per_tenant: int = 8 * 1024 * 1024,
        storage_backoff_s: float = 0.01,
        storage_probe_every: int = 8,
        flight=None,
        incidents=None,
        incident_capture_rounds: int = 4,
        timeline_every: int = 4,
    ) -> None:
        S = detector.n_streams
        self.detector = detector
        self.tenants = (
            list(tenants)
            if tenants is not None
            else [f"t{idx:04d}" for idx in range(S)]
        )
        if len(self.tenants) != S:
            raise ValueError(
                f"{len(self.tenants)} tenant names for {S} streams"
            )
        if len(set(self.tenants)) != S:
            raise ValueError("tenant names must be unique")
        self.checkpoint_every = int(checkpoint_every)
        self.label_metrics = bool(label_metrics)
        self._stream_of = {name: s for s, name in enumerate(self.tenants)}
        durable = list(durable)
        unknown = [name for name in durable if name not in self._stream_of]
        if unknown:
            raise ValueError(f"unknown durable tenants: {unknown}")
        if durable and root_dir is None:
            raise ValueError("durable tenants need a root_dir")
        self.root_dir = Path(root_dir) if root_dir is not None else None
        self.max_wal_bytes_per_tenant = int(max_wal_bytes_per_tenant)
        self.report = SchedulerReport()
        #: p99 source: per-stream verdict latencies from recent rounds.
        self._latencies: List[np.ndarray] = []
        self.health = HealthTracker(
            self.tenants,
            root_dir=self.root_dir,
            durable=durable,
            label_metrics=self.label_metrics,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_rounds=breaker_cooldown_rounds,
        )
        # first: it validates the diagnosis arguments before any WAL,
        # hook or trace recorder exists
        self.executor = DiagnosisExecutor(
            sherlock,
            self.tenants,
            self.health,
            self.report,
            snapshot=self._window_dataset,
            note=lambda tenant, reason: self.forensics.note(tenant, reason),
            jobs=diagnose_jobs,
            max_pending=max_pending,
            shed_policy=shed_policy,
            soft_deadline_s=soft_deadline_s,
            hard_deadline_s=hard_deadline_s,
            label_metrics=self.label_metrics,
        )
        #: durable tenant → its guarded WAL and checkpoint store.
        self.durability: Dict[str, TenantDurability] = {}
        for name in durable:
            tenant_dir = self.root_dir / name  # type: ignore[operator]
            self.durability[name] = TenantDurability(
                name,
                TickWAL(
                    tenant_dir / recovery.WAL_NAME,
                    fsync_every=fsync_every,
                    segment_bytes=wal_segment_bytes,
                ),
                CheckpointStore(tenant_dir / recovery.CHECKPOINT_NAME),
                max_retries=STORAGE_RETRIES,
                backoff_s=storage_backoff_s,
                probe_every=storage_probe_every,
                max_volatile_ticks=MAX_VOLATILE_TICKS,
                on_transition=self._make_durability_callback(name),
                label_metrics=label_metrics,
            )
        self.forensics = Forensics(
            flight,
            incidents,
            self.tenants,
            self.health,
            self.report,
            self.durability,
            capture_rounds=incident_capture_rounds,
            timeline_every=timeline_every,
            journal_root=self.root_dir,
        )
        #: ``(tenant, region, explanation)`` triples, submission order.
        self.diagnoses = self.executor.diagnoses
        #: set by :meth:`recover` — per-tenant recovery outcomes.
        self.recovery_report: Optional[recovery.RecoveryReport] = None

    # ------------------------------------------------------------------
    def _make_durability_callback(self, tenant: str):
        """Health-journal hook for one tenant's durability transitions.

        Storage-degraded is deliberately conservative about the health
        ladder: it only moves a *healthy* tenant to ``degraded`` (a
        quarantined or ejected tenant already lost more service than
        volatile persistence costs), and re-promotion only restores
        ``healthy`` when the degradation it is undoing was storage's —
        it must not mask a diagnosis-deadline degradation.
        """

        def on_transition(mode: str, reason: str) -> None:
            round_no = self.report.rounds
            self.forensics.on_durability(tenant, mode, reason)
            state = self.health.state(tenant)
            if mode == "degraded" and state == "healthy":
                self.health.set_state(
                    tenant,
                    "degraded",
                    reason=f"storage: {reason}",
                    round_no=round_no,
                )
            elif (
                mode != "degraded"
                and state == "degraded"
                and self.health.reason(tenant).startswith("storage:")
            ):
                self.health.set_state(
                    tenant,
                    "healthy",
                    reason="storage: disk healed",
                    round_no=round_no,
                )

        return on_transition

    def durability_mode(self, tenant: str) -> Optional[str]:
        """``"durable"`` / ``"degraded"``, or None for volatile tenants."""
        managed = self.durability.get(tenant)
        return managed.mode if managed is not None else None

    def _window_dataset(self, stream: int):
        """The stream's current arena window as a diagnosable dataset."""
        return self.detector.arena.view(stream).to_dataset(
            name=f"fleet:{self.tenants[stream]}"
        )

    # ------------------------------------------------------------------
    def run_round(
        self,
        times: np.ndarray,
        values: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> FleetTick:
        """One scheduler round: WAL, tick the fleet, queue fallout.

        With a flight recorder / incident recorder attached the round
        runs inside a ``fleet.round`` span, its trigger reasons are
        collected, and the span ring is kept or discarded at the end
        (tail sampling).
        """
        if not self.forensics.enabled:
            return self._round_core(times, values, active)
        return self.forensics.round(
            self.report.rounds, self._round_core, times, values, active
        )

    def _round_core(
        self,
        times: np.ndarray,
        values: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> FleetTick:
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        S = self.detector.n_streams
        present = (
            np.ones(S, dtype=bool)
            if active is None
            else np.asarray(active, dtype=bool)
        )
        attrs = self.detector.attributes
        for name, managed in self.durability.items():
            s = self._stream_of[name]
            if present[s]:
                managed.append(
                    float(times[s]),
                    {a: float(values[s, j]) for j, a in enumerate(attrs)},
                    {},
                )
        tick = self.detector.tick(times, values, present)
        for s, err in tick.lane_errors.items():
            self.health.set_state(
                self.tenants[int(s)],
                "quarantined",
                reason=f"lane poisoned: {err}",
                round_no=self.report.rounds,
            )
        self.executor.poll()
        for s, regions in tick.closed.items():
            for region in regions:
                self.submit_diagnosis(int(s), region)
        # don't let a partial batch sit across quiet rounds
        self.executor.flush()
        self.report.rounds += 1
        self.report.stream_ticks += int(present.sum())
        self.report.closed_regions += sum(
            len(r) for r in tick.closed.values()
        )
        self.report.abnormal_verdicts += sum(
            1 for res in tick.results.values() if res.regions
        )
        _SCHED_ROUNDS.inc()
        if tick.verdict_latency is not None:
            lat = tick.verdict_latency[present]
            self._latencies.append(lat[np.isfinite(lat)])
        if self.label_metrics:
            self._label_round(tick, present)
        if (
            self.checkpoint_every
            and self.report.rounds % self.checkpoint_every == 0
        ):
            self.checkpoint()
        return tick

    def run(self, source, rounds: Optional[int] = None) -> SchedulerReport:
        """Drain *source* (an iterable of ``(times, values[, active])``)."""
        for i, batch in enumerate(source):
            if rounds is not None and i >= rounds:
                break
            if len(batch) == 3:
                times, values, active = batch
            else:
                times, values = batch
                active = None
            self.run_round(times, values, active)
        self.drain()
        return self.report

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------
    def submit_diagnosis(
        self, stream: int, region: Region, dataset=None
    ) -> None:
        """Queue one closed region of *stream* for diagnosis.

        The tick loop calls this with no *dataset*, snapshotting the
        stream's current arena window.  Replay and backfill paths —
        re-diagnosing regions recovered from a WAL, or benchmarking
        diagnosis throughput in isolation — pass the window captured at
        closure time instead.  Backpressure and shed policy apply
        identically either way.
        """
        self.executor.submit(stream, region, dataset)

    def _submit_replayed(self, stream: int, region: Region) -> None:
        """A region closed by WAL replay: counted like a live close (so
        the report's conservation identity holds) and diagnosed."""
        self.report.closed_regions += 1
        self.submit_diagnosis(stream, region)

    def drain(self) -> None:
        """Block until every queued diagnosis has completed or settled."""
        self.executor.drain()
        # Incidents whose capture delay has not elapsed still get
        # written — a drained fleet produces no more samples to wait on.
        self.forensics.flush(force=True)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Durably checkpoint every durable tenant and retire old WAL.

        A saved checkpoint advances the WAL's retention mark —
        segments older than the *previous* checkpoint generation are
        deleted (generation fallback still finds its replay ticks).  A
        poisoned lane keeps all segments instead: rows offered since
        the poison were skipped by the engine, and :meth:`readmit`
        replays them from the log.  Both cases are then bounded by
        whole-segment compaction to ``max_wal_bytes_per_tenant``.  A
        degraded tenant declines to checkpoint (its recent ticks are
        volatile), so its retention mark never advances past data that
        is not on disk.
        """
        for name in sorted(self.durability):
            s = self._stream_of[name]
            state = self.detector.stream_checkpoint(s)
            managed = self.durability[name]
            if managed.save_checkpoint(
                recovery.envelope(state, state["last_time"])
            ):
                managed.retire_wal(
                    mark=not bool(self.detector.poisoned[s]),
                    max_bytes=self.max_wal_bytes_per_tenant,
                )
                self.report.checkpoints += 1
                _SCHED_CHECKPOINTS.inc()
        self._export_wal_bytes()

    def _export_wal_bytes(self) -> None:
        """Publish retained WAL bytes (per tenant + fleet total)."""
        retained = {n: b for n, b in self.wal_bytes().items() if b >= 0}
        if self.label_metrics:
            for name, n in retained.items():
                _WAL_BYTES.labels(tenant=name).set(n)
        _WAL_BYTES_TOTAL.set(sum(retained.values()))

    def wal_bytes(self) -> Dict[str, int]:
        """Retained WAL bytes per durable tenant (-1 when unreadable)."""
        out: Dict[str, int] = {}
        for name, managed in self.durability.items():
            try:
                out[name] = managed.wal.bytes_retained()
            except OSError:
                out[name] = -1
        return out

    def readmit(self, tenant: str) -> None:
        """Clear a tenant's lane poison and restore it to full service.

        The lane resumes from its frozen last-good state.  A durable
        tenant then replays the rows offered while it was poisoned —
        kept in its WAL (or, while degraded, its volatile buffer) —
        through the engine, so it ends where a tenant that was never
        poisoned would; regions closed by the replay are counted and
        submitted for diagnosis.  A volatile tenant's skipped rows are
        gone, exactly as if it had been offline.  A lane that faults
        again during the replay is quarantined again.
        """
        s = self._stream_of[tenant]
        poisoned = bool(self.detector.poisoned[s])
        self.detector.unpoison(s)
        self.health.set_state(
            tenant,
            "healthy",
            reason="lane readmitted",
            round_no=self.report.rounds,
        )
        managed = self.durability.get(tenant)
        if managed is None or not poisoned:
            return
        until = float(self.detector.last_time[s])
        tail, _note = recovery.read_tail(managed.wal, until)
        tail += [row for row in managed.buffer if not row[0] <= until]
        loads = [
            recovery.TenantLoad(
                recovery.TenantRecovery(name, "recovered"),
                tail=tail if name == tenant else [],
            )
            for name in self.tenants
        ]
        report = recovery.replay_lockstep(
            self.detector, loads, self._submit_replayed
        )
        self.executor.flush()
        outcome = report.outcome(tenant)
        if outcome.status != "recovered":
            self.health.set_state(
                tenant,
                "quarantined",
                reason=f"readmission replay: {outcome.detail}",
                round_no=self.report.rounds,
            )

    @classmethod
    def recover(
        cls,
        root_dir: Union[str, Path],
        tenants: Sequence[str],
        attributes: Optional[Sequence[str]] = None,
        **scheduler_kwargs,
    ) -> "FleetScheduler":
        """Rebuild a fleet scheduler from per-tenant durable state.

        Restores the fleet bitwise from each tenant's checkpoint, then
        replays the WAL tails in lockstep rounds
        (:mod:`repro.fleet.recovery`): zero ticks lost, zero
        re-processed.  Recovery is *partial*: a tenant whose checkpoint
        is missing, torn, or corrupt — or whose lane faults during
        replay — comes back ``quarantined`` (on a fresh empty lane, or
        poisoned at its last-good state) instead of aborting the fleet,
        with its verdict on ``scheduler.recovery_report``.  Only zero
        recoverable tenants still raises.  Regions the replay closes
        are counted and submitted for diagnosis, as in a live round.  Without *attributes*, the
        checkpointed windows name them, or — when every checkpoint is
        of an empty lane — the first WAL tail row does.
        """
        loads = [recovery.load_tenant(Path(root_dir) / t, t) for t in tenants]
        if all(load.state is None for load in loads):
            raise FileNotFoundError(
                f"no recoverable durable tenants under {root_dir}"
            )
        states = [load.state for load in loads]
        if attributes is None and not any(
            st is not None and st.get("window") for st in states
        ):
            attributes = next(
                (list(load.tail[0][1]) for load in loads if load.tail), None
            )
        # skipped tenants restart on a fresh empty lane, so the tenant
        # list (and stream order) survives a partial recovery
        detector = FleetDetector.from_checkpoints(states, attributes=attributes)
        scheduler = cls(
            detector,
            tenants=list(tenants),
            root_dir=root_dir,
            durable=list(tenants),
            **scheduler_kwargs,
        )
        report = recovery.replay_lockstep(
            detector, loads, scheduler._submit_replayed
        )
        scheduler.executor.flush()
        for name, load in zip(tenants, loads):
            if load.wal_note:
                scheduler.forensics.on_wal_corruption(name, load.wal_note)
        scheduler.forensics.flush(force=True)
        scheduler.recovery_report = report
        for outcome in report.outcomes:
            if outcome.status != "recovered":
                scheduler.health.set_state(
                    outcome.tenant,
                    "quarantined",
                    reason=f"recovery: {outcome.status}",
                    round_no=0,
                )
        return scheduler

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _label_round(self, tick: FleetTick, present: np.ndarray) -> None:
        lat = tick.verdict_latency
        lag = self.executor.lag
        for s in np.nonzero(present)[0]:
            s = int(s)
            tenant = self.tenants[s]
            _TENANT_LAG.labels(tenant=tenant).set(int(lag[s]))
            verdict = (
                "abnormal"
                if s in tick.results and tick.results[s].regions
                else "normal"
            )
            _TENANT_VERDICTS.labels(tenant=tenant, verdict=verdict).inc()
            if lat is not None and np.isfinite(lat[s]):
                _TENANT_TICK_SECONDS.labels(tenant=tenant).observe(
                    float(lat[s])
                )

    def latency_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> Dict[str, float]:
        """Percentiles of per-stream tick-to-verdict latency (seconds)."""
        allv = np.concatenate(self._latencies or [np.empty(0)])
        if allv.size == 0:
            return {f"p{q:g}": float("nan") for q in qs}
        return {f"p{q:g}": float(np.percentile(allv, q)) for q in qs}

    def close(self) -> None:
        """Drain diagnosis, stop the pool, close WAL handles.

        Degraded tenants get one final probe: if the disk healed, their
        volatile buffers drain to the WAL before the handles close.
        """
        self.drain()
        self.executor.close()
        for managed in self.durability.values():
            managed.flush_volatile()
        self._export_wal_bytes()
        for managed in self.durability.values():
            try:
                managed.wal.close()
            except OSError:
                pass
        self.health.close()
        self.forensics.close()

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
