"""Multi-tenant fleet scheduler: ingest, diagnose, shed, recover.

:class:`FleetScheduler` multiplexes N tenants' tick streams over one
:class:`~repro.fleet.engine.FleetDetector` plus a bounded diagnosis
worker pool.  The split follows the runner/scheduler template from
SNIPPETS.md: the *engine* is synchronous and vectorized (every tenant
advances one tick per round), while *diagnosis* — the expensive, rare
fallout when a closed abnormal region needs a DBSherlock explanation —
is decoupled behind a queue with explicit backpressure:

* ``max_pending`` bounds the in-flight diagnosis jobs;
* when ingest outruns diagnosis, the configured **shed policy** decides
  who pays: ``"drop_oldest"`` cancels the stalest queued job,
  ``"reject_new"`` refuses the incoming one, ``"block"`` applies
  backpressure to the tick loop (no shedding, slower rounds);
* one shared :class:`~repro.core.causal.CausalModelStore` (inside the
  shared ``DBSherlock`` facade) serves the whole fleet, so a cause
  learned from one tenant immediately ranks for every other.

Durability is per tenant: tenants listed in *durable* get their own
WAL/checkpoint directory (``root_dir/<tenant>/``) in the single-stream
formats of :mod:`repro.fleet.recovery`, so a crashed fleet recovers with
:meth:`FleetScheduler.recover`, or a single tenant can be peeled off
into a plain :class:`~repro.stream.supervisor.StreamSupervisor`.

Per-tenant observability (lag, sheds, verdicts, tick latency) lands in
the process metrics registry as labeled families
(``repro_fleet_tenant_*{tenant="..."}``); ``label_metrics=False`` keeps
the registry small for 10k-tenant benchmark runs.

**Failure containment.**  Diagnosis failures never vanish: a worker
exception retries each job individually on a jitterless exponential
backoff (the single-stream supervisor's schedule) and, past
``max_retries``, lands in ``repro_fleet_diagnosis_failures_total`` and
``SchedulerReport.diagnosis_failures``.  Optional per-job deadlines add
two tiers: past ``soft_deadline_s`` the batch is settled with a
*degraded* cached-models-only ranking (``CausalModelStore.rank``
against the sharded labeled-space cache, no predicate generation);
past ``hard_deadline_s`` it is abandoned and shed.  A per-tenant
circuit breaker (:class:`~repro.fleet.health.CircuitBreaker`) ejects
tenants whose diagnoses keep failing or hanging so one hostile tenant
cannot starve the pool, and readmits them via a half-open probe.  All
of it is tracked by :class:`~repro.fleet.health.HealthTracker` and
rendered by ``repro-sherlock fleet status``.
"""

from __future__ import annotations

import threading
import time as _time
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.data.regions import Region, RegionSpec
from repro.fleet import recovery
from repro.fleet.engine import FleetDetector, FleetTick
from repro.fleet.health import HealthTracker
from repro.obs import metrics
from repro.obs import trace
from repro.stream.durability import TenantDurability
from repro.stream.wal import (
    DEFAULT_SEGMENT_BYTES,
    CheckpointStore,
    TickWAL,
)

__all__ = ["FleetScheduler", "SchedulerReport", "SHED_POLICIES"]

SHED_POLICIES = ("drop_oldest", "reject_new", "block")

_SCHED_ROUNDS = metrics.REGISTRY.counter(
    "repro_fleet_rounds_total", "Fleet scheduler rounds driven"
)
_SCHED_SHED = metrics.REGISTRY.counter(
    "repro_fleet_shed_total", "Diagnosis jobs shed under backpressure"
)
_SCHED_DIAGNOSES = metrics.REGISTRY.counter(
    "repro_fleet_diagnoses_total", "Diagnosis jobs completed"
)
_SCHED_CHECKPOINTS = metrics.REGISTRY.counter(
    "repro_fleet_checkpoints_total", "Durable per-tenant checkpoints taken"
)
_TENANT_LAG = metrics.REGISTRY.gauge(
    "repro_fleet_tenant_lag",
    "Queued (undiagnosed) closed regions per tenant",
    labelnames=("tenant",),
)
_TENANT_SHED = metrics.REGISTRY.counter(
    "repro_fleet_tenant_shed_total",
    "Diagnosis jobs shed per tenant",
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
_DIAG_LOCK_WAIT_MS = metrics.REGISTRY.histogram(
    "repro_fleet_diagnosis_lock_wait_ms",
    "Time a diagnosis batch waited on the striped explain locks",
    buckets=metrics.MS_BUCKETS,
)
_DIAG_FAILURES = metrics.REGISTRY.counter(
    "repro_fleet_diagnosis_failures_total",
    "Diagnosis jobs that failed terminally (retries exhausted)",
    labelnames=("tenant",),
)
_DIAG_RETRIES = metrics.REGISTRY.counter(
    "repro_fleet_diagnosis_retries_total",
    "Diagnosis jobs requeued on the backoff schedule after a failure",
)
_DEADLINE_MISSES = metrics.REGISTRY.counter(
    "repro_fleet_deadline_misses_total",
    "Diagnosis deadline misses by tier (soft = degraded, hard = shed)",
    labelnames=("tier",),
)
_DEGRADED_RANKINGS = metrics.REGISTRY.counter(
    "repro_fleet_degraded_rankings_total",
    "Soft-deadline fallbacks served as cached-models-only rankings",
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


@dataclass
class _PendingJob:
    tenant: str
    stream: int
    region: Region
    #: window snapshot taken at enqueue time (regions refer to it).
    dataset: object = None
    #: worker failures so far (drives the backoff schedule).
    attempts: int = 0
    #: admitted as the single half-open circuit-breaker probe.
    probe: bool = False


@dataclass
class _PendingBatch:
    """One submitted diagnosis unit: ≤ ``diagnose_jobs`` fused jobs.

    Exactly one party may *settle* a batch — the worker (publish or
    retry/fail) or the deadline enforcer on the tick thread (degrade or
    abandon).  :meth:`try_settle` is the compare-and-swap that decides
    the race; the loser discards its result.
    """

    jobs: List[_PendingJob]
    ticket: int
    future: Optional[Future] = None
    submitted_at: float = 0.0
    #: hard-deadline accounting already done for this batch.
    hard_counted: bool = False
    _settled: bool = field(default=False, repr=False)
    _settle_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def try_settle(self) -> bool:
        with self._settle_lock:
            if self._settled:
                return False
            self._settled = True
            return True

    def mark_hard_counted(self) -> bool:
        """CAS for hard-tier accounting: True exactly once per batch."""
        with self._settle_lock:
            if self.hard_counted:
                return False
            self.hard_counted = True
            return True


class _Sequencer:
    """Globally-FIFO publication of diagnosis results.

    Batches run concurrently, but their results are appended to
    ``FleetScheduler.diagnoses`` strictly in submission-ticket order, so
    per-tenant verdict order is monotone no matter how the pool
    interleaves.  :meth:`publish` parks a finished batch until its turn
    and runs the sink under the sequencer's own lock (two batches can
    never interleave their appends); :meth:`skip` retires a cancelled
    ticket without blocking the caller.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next_issue = 0
        self._next_publish = 0
        self._skipped: Set[int] = set()

    def issue(self) -> int:
        with self._cond:
            ticket = self._next_issue
            self._next_issue += 1
            return ticket

    def _advance_over_skipped(self) -> None:
        while self._next_publish in self._skipped:
            self._skipped.discard(self._next_publish)
            self._next_publish += 1

    def publish(self, ticket: int, sink) -> None:
        with self._cond:
            while self._next_publish != ticket:
                self._cond.wait()
            try:
                sink()
            finally:
                self._next_publish += 1
                self._advance_over_skipped()
                self._cond.notify_all()

    def skip(self, ticket: int) -> None:
        with self._cond:
            self._skipped.add(ticket)
            self._advance_over_skipped()
            self._cond.notify_all()


class FleetScheduler:
    """Drive a :class:`FleetDetector` with bounded diagnosis fallout.

    Parameters
    ----------
    detector:
        The fleet engine to drive.
    tenants:
        One name per stream (defaults to ``t0000..``); names label the
        per-tenant metrics and the WAL/checkpoint directories.
    sherlock:
        Shared ``DBSherlock`` facade (one ``CausalModelStore`` for the
        whole fleet).  ``None`` disables diagnosis — closed regions are
        still reported, just not explained.
    root_dir / durable:
        Durability root and the subset of tenant names that write a WAL
        and periodic checkpoints there (default: none).
    diagnose_jobs:
        Diagnosis parallelism: both the worker-thread count of the pool
        and the fused batch size — up to this many closed regions are
        diagnosed as one ``DBSherlock.explain_batch`` call.  The shared
        labeled-space cache is lock-striped, so concurrent batches only
        serialize when their tenants hash to the same explain stripe
        (wait time lands in ``repro_fleet_diagnosis_lock_wait_ms``).
    max_pending / shed_policy:
        Backpressure bound and policy (see module docstring).
    checkpoint_every:
        Rounds between durable checkpoints (0 disables).
    label_metrics:
        Emit per-tenant labeled metric families.  Disable for very
        large fleets where per-tenant registry children would dominate
        the round cost.
    soft_deadline_s / hard_deadline_s:
        Per-job diagnosis deadlines (``None`` disables a tier).  Past
        the soft deadline a batch is settled with a degraded
        cached-models-only ranking; past the hard deadline it is
        abandoned and its jobs shed.  Python threads cannot be killed,
        so the abandoned worker keeps running and its late result is
        discarded — the hard tier frees the *queue*, not the thread.
    max_retries / backoff_s / backoff_factor / max_backoff_s:
        Retry schedule for worker failures — each failed job is
        requeued individually (isolating a poison job fused into a
        batch) after ``min(backoff_s * factor**(attempt-1),
        max_backoff_s)`` seconds, deterministically, no jitter.
    breaker_threshold / breaker_cooldown_rounds:
        Per-tenant circuit breaker: consecutive terminal failures to
        open, and scheduler rounds before a half-open probe.
    wal_segment_bytes / max_wal_bytes_per_tenant:
        WAL segment size and the per-tenant retained-bytes cap applied
        at every checkpoint via whole-segment compaction — this is what
        bounds a poisoned lane's kept-for-replay log.
    storage_retries / storage_backoff_s / storage_probe_every /
    max_volatile_ticks:
        Per-tenant durability policy (see
        :class:`~repro.stream.durability.TenantDurability`): transient
        I/O errors retry with bounded backoff; exhaustion drops the
        tenant into degraded in-memory persistence (acknowledged but
        volatile, bounded buffer) with automatic re-promotion when a
        probe finds the disk healed.  Degrade/re-promote transitions
        surface through :class:`HealthTracker` with ``storage:``
        reasons and the durability column of ``fleet status``.
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
        max_retries: int = 2,
        backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 2.0,
        breaker_threshold: int = 3,
        breaker_cooldown_rounds: int = 8,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_wal_bytes_per_tenant: int = 8 * 1024 * 1024,
        storage_retries: int = 2,
        storage_backoff_s: float = 0.01,
        storage_probe_every: int = 8,
        max_volatile_ticks: int = 4096,
        flight=None,
        incidents=None,
        incident_capture_rounds: int = 4,
        timeline_every: int = 4,
    ) -> None:
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if diagnose_jobs < 1:
            raise ValueError("diagnose_jobs must be at least 1")
        if (
            soft_deadline_s is not None
            and hard_deadline_s is not None
            and hard_deadline_s < soft_deadline_s
        ):
            raise ValueError("hard_deadline_s must be >= soft_deadline_s")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
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
        self.sherlock = sherlock
        self.shed_policy = shed_policy
        self.max_pending = int(max_pending)
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
        self._durable: Set[str] = set(durable)
        self.max_wal_bytes_per_tenant = int(max_wal_bytes_per_tenant)
        self._wals: Dict[str, TickWAL] = {}
        self._durability: Dict[str, TenantDurability] = {}
        for name in durable:
            tenant_dir = self.root_dir / name  # type: ignore[operator]
            self._wals[name] = TickWAL(
                tenant_dir / recovery.WAL_NAME,
                fsync_every=fsync_every,
                segment_bytes=wal_segment_bytes,
            )
            self._durability[name] = TenantDurability(
                name,
                self._wals[name],
                CheckpointStore(tenant_dir / recovery.CHECKPOINT_NAME),
                max_retries=storage_retries,
                backoff_s=storage_backoff_s,
                probe_every=storage_probe_every,
                max_volatile_ticks=max_volatile_ticks,
                on_transition=self._make_durability_callback(name),
                label_metrics=label_metrics,
            )
        self._pool = ThreadPoolExecutor(
            max_workers=int(diagnose_jobs),
            thread_name_prefix="fleet-diagnose",
        )
        self._batch_size = int(diagnose_jobs)
        # crc32, not hash(): stable across PYTHONHASHSEED so stripe
        # assignment (and thus contention behavior) is reproducible.
        self._n_stripes = 16
        self._explain_locks = tuple(
            threading.Lock() for _ in range(self._n_stripes)
        )
        self._sequencer = _Sequencer()
        self._buffer: List[_PendingJob] = []
        self._pending: Deque[_PendingBatch] = deque()
        self._lag = np.zeros(S, dtype=np.int64)
        #: ``(tenant, region, explanation)`` triples, completion order.
        self.diagnoses: List[Tuple[str, Region, object]] = []
        self._diagnoses_lock = threading.Lock()
        self.report = SchedulerReport()
        #: p99 source: per-stream verdict latencies from recent rounds.
        self._latencies: List[np.ndarray] = []
        self.soft_deadline_s = soft_deadline_s
        self.hard_deadline_s = hard_deadline_s
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff_s = float(max_backoff_s)
        #: (not_before monotonic, job) — drained by the tick thread.
        self._retry: List[Tuple[float, _PendingJob]] = []
        self._retry_lock = threading.Lock()
        #: settled-by-enforcer batches whose worker is still running.
        self._zombies: List[_PendingBatch] = []
        self.health = HealthTracker(
            self.tenants,
            root_dir=self.root_dir,
            durable=durable,
            label_metrics=self.label_metrics,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_rounds=breaker_cooldown_rounds,
        )
        #: set by :meth:`recover` — per-tenant recovery outcomes.
        self.recovery_report: Optional[recovery.RecoveryReport] = None
        # ---- flight recorder + incident forensics -------------------
        self.flight = flight
        self.incidents = incidents
        self.incident_capture_rounds = max(0, int(incident_capture_rounds))
        self.timeline_every = max(1, int(timeline_every))
        self.timeline = None
        self._flight_installed = False
        #: tenant → trigger reasons noted since the last end_round; also
        #: guards the incident queue (workers and the durability/health
        #: hooks append off the tick thread).
        self._flight_lock = threading.Lock()
        self._round_interest: Dict[str, List[str]] = {}
        self._incident_queue: List[List[object]] = []
        self._incident_queued: Set[str] = set()
        if flight is not None or incidents is not None:
            self.timeline = metrics.REGISTRY.timeline("fleet")
            self.health.transition_hook = self._on_health_transition
        if flight is not None and trace.get_recorder() is None:
            # Tail sampling is only worth it when no full recorder is
            # already capturing everything.
            trace.install(flight)
            self._flight_installed = True
        if incidents is not None:
            incidents.attach(
                flight=flight,
                timeline=self.timeline,
                journal_root=self.root_dir,
            )

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
            self._note_interest(tenant, f"durability:{mode}")
            if mode == "degraded":
                self._queue_incident(
                    tenant, f"durability degraded: {reason}", round_no
                )
                if self.health.state(tenant) == "healthy":
                    self.health.set_state(
                        tenant,
                        "degraded",
                        reason=f"storage: {reason}",
                        round_no=round_no,
                    )
            else:
                if self.health.state(tenant) == "degraded" and self.health.reason(
                    tenant
                ).startswith("storage:"):
                    self.health.set_state(
                        tenant,
                        "healthy",
                        reason="storage: disk healed",
                        round_no=round_no,
                    )

        return on_transition

    def durability_mode(self, tenant: str) -> Optional[str]:
        """``"durable"`` / ``"degraded"``, or None for volatile tenants."""
        managed = self._durability.get(tenant)
        return managed.mode if managed is not None else None

    # ------------------------------------------------------------------
    # Flight recorder + incident forensics
    # ------------------------------------------------------------------
    def _note_interest(self, tenant: str, reason: str) -> None:
        """Mark this round interesting for *tenant* (any thread)."""
        if self.flight is None and self.incidents is None:
            return
        with self._flight_lock:
            reasons = self._round_interest.setdefault(tenant, [])
            if reason not in reasons:
                reasons.append(reason)

    def _queue_incident(
        self, tenant: str, reason: str, round_no: int
    ) -> None:
        """Schedule an incident snapshot for *tenant* (any thread).

        The snapshot is deferred ``incident_capture_rounds`` rounds so
        the bundle's timeline window includes post-trigger samples —
        the step the diagnosis needs to see.  One in-flight snapshot
        per tenant; the recorder's own rate limiter handles repeats.
        """
        if self.incidents is None:
            return
        with self._flight_lock:
            if tenant in self._incident_queued:
                return
            self._incident_queued.add(tenant)
            self._incident_queue.append(
                [
                    tenant,
                    reason,
                    int(round_no),
                    int(round_no) + self.incident_capture_rounds,
                ]
            )

    def _on_health_transition(
        self,
        tenant: str,
        previous: str,
        state: str,
        reason: str,
        round_no: Optional[int],
    ) -> None:
        """HealthTracker hook: health transitions are always interesting."""
        self._note_interest(tenant, f"health:{state}")
        if state in ("degraded", "quarantined", "ejected"):
            self._queue_incident(
                tenant,
                f"{state}: {reason}" if reason else state,
                round_no if round_no is not None else self.report.rounds,
            )

    def _collect_interest(self, tick: FleetTick) -> Dict[str, List[str]]:
        """Drain the round's trigger reasons, folding in tick outcomes."""
        with self._flight_lock:
            interest = self._round_interest
            self._round_interest = {}
        for s, res in tick.results.items():
            if res.regions:
                reasons = interest.setdefault(self.tenants[int(s)], [])
                if "verdict" not in reasons:
                    reasons.append("verdict")
        for s in tick.closed:
            reasons = interest.setdefault(self.tenants[int(s)], [])
            if "region_closed" not in reasons:
                reasons.append("region_closed")
        for s in tick.lane_errors:
            reasons = interest.setdefault(self.tenants[int(s)], [])
            if "lane_poisoned" not in reasons:
                reasons.append("lane_poisoned")
        return interest

    def _finish_flight_round(
        self, tick: FleetTick, latency_s: Optional[float], round_no: int
    ) -> None:
        interest = self._collect_interest(tick)
        if self.flight is not None:
            self.flight.end_round(interest, latency_s=latency_s)
        if (
            self.timeline is not None
            and self.report.rounds % self.timeline_every == 0
        ):
            # stamp samples with the fleet round number: incident
            # bundles can then anchor their abnormal region exactly at
            # the trigger round instead of guessing a trailing window
            self.timeline.sample(t=float(round_no))
        self._flush_incidents()

    def _incident_context(self, tenant: str) -> Dict[str, object]:
        """Point-in-time tenant state frozen into an incident bundle."""
        context: Dict[str, object] = {
            "health": {
                "state": self.health.state(tenant),
                "reason": self.health.reason(tenant),
            },
            "breaker": self.health.breakers[tenant].state,
            "round": self.report.rounds,
        }
        managed = self._durability.get(tenant)
        if managed is not None:
            context["durability"] = {
                "mode": managed.mode,
                "reason": managed.degraded_reason,
            }
        wal = self._wals.get(tenant)
        if wal is not None:
            try:
                segment, offset = wal.durable_position()
                context["wal"] = {
                    "durable_segment": str(segment),
                    "durable_offset": int(offset),
                    "bytes_retained": int(wal.bytes_retained()),
                }
            except OSError:
                pass
        return context

    def _flush_incidents(self, force: bool = False) -> None:
        """Write queued incident bundles whose capture delay elapsed."""
        if self.incidents is None:
            return
        # unlocked empty check: appends happen under the lock, and a
        # snapshot enqueued this instant is never due before its capture
        # delay elapses, so racing past it just defers to next round
        if not self._incident_queue:
            return
        with self._flight_lock:
            if not self._incident_queue:
                return
            rounds = self.report.rounds
            due = [
                entry
                for entry in self._incident_queue
                if force or rounds >= entry[3]
            ]
            if not due:
                return
            self._incident_queue = [
                entry for entry in self._incident_queue if entry not in due
            ]
            for entry in due:
                self._incident_queued.discard(entry[0])
        for tenant, reason, round_no, _due_round in due:
            self.incidents.snapshot(
                tenant,
                reason,
                round_no,
                context=self._incident_context(tenant),
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
        if self.flight is None and self.incidents is None:
            return self._round_core(times, values, active)
        round_no = self.report.rounds
        if self.flight is not None:
            self.flight.begin_round(round_no)
            t0 = _time.perf_counter()
            with trace.span("fleet.round", round=round_no):
                tick = self._round_core(times, values, active)
            latency_s = _time.perf_counter() - t0
        else:
            tick = self._round_core(times, values, active)
            latency_s = None
        self._finish_flight_round(tick, latency_s, round_no)
        return tick

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
        for name in self._durable:
            s = self._stream_of[name]
            if present[s]:
                self._durability[name].append(
                    float(times[s]),
                    {a: float(values[s, j]) for j, a in enumerate(attrs)},
                    {},
                )
        tick = self.detector.tick(times, values, present)
        if tick.lane_errors:
            for s, err in tick.lane_errors.items():
                self.health.set_state(
                    self.tenants[int(s)],
                    "quarantined",
                    reason=f"lane poisoned: {err}",
                    round_no=self.report.rounds,
                )
        self._reap_finished()
        self._enforce_deadlines()
        self._requeue_due_retries()
        for s, regions in tick.closed.items():
            for region in regions:
                self._enqueue(int(s), region)
        # don't let a partial batch sit across quiet rounds
        self._flush_buffer()
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
    # Diagnosis queue
    # ------------------------------------------------------------------
    def _n_queued(self) -> int:
        """Diagnosis jobs in flight: buffered plus submitted-batch jobs."""
        return len(self._buffer) + sum(
            len(batch.jobs) for batch in self._pending
        )

    def _enqueue(self, stream: int, region: Region) -> None:
        self.submit_diagnosis(stream, region)

    def submit_diagnosis(
        self, stream: int, region: Region, dataset=None
    ) -> None:
        """Queue one closed region of *stream* for diagnosis.

        The tick loop calls this (via stage 6 fallout) with no *dataset*,
        snapshotting the stream's current arena window.  Replay and
        backfill paths — re-diagnosing regions recovered from a WAL, or
        benchmarking diagnosis throughput in isolation — pass the window
        captured at closure time instead.  Backpressure and shed policy
        apply identically either way.
        """
        tenant = self.tenants[stream]
        if self.sherlock is None:
            return
        verdict = self.health.breaker_admit(tenant, self.report.rounds)
        if verdict == "reject":
            self._shed(tenant)
            return
        probe = verdict == "probe"
        while self._n_queued() >= self.max_pending:
            if self.shed_policy == "block":
                self._wait_oldest()
                self._reap_finished()
                self._enforce_deadlines()
                self._requeue_due_retries()
                continue
            if self.shed_policy == "reject_new":
                self._shed_job_admission(tenant, probe)
                return
            # drop_oldest: cancel the stalest work still waiting to run
            if not self._drop_oldest_waiting():
                # everything submitted is already executing; the incoming
                # job is the one that has to give way
                self._shed_job_admission(tenant, probe)
                return
        if dataset is None:
            dataset = self.detector.arena.view(stream).to_dataset(
                name=f"fleet:{tenant}"
            )
        self._buffer.append(
            _PendingJob(
                tenant=tenant,
                stream=stream,
                region=region,
                dataset=dataset,
                probe=probe,
            )
        )
        self._lag[stream] += 1
        if len(self._buffer) >= self._batch_size:
            self._flush_buffer()

    def _shed_job_admission(self, tenant: str, probe: bool) -> None:
        """Shed a just-admitted job; a shed probe reopens the breaker."""
        self._shed(tenant)
        if probe:
            # the half-open probe never ran — reopen so a later round
            # gets to probe again instead of wedging in half_open
            self.health.breaker_failure(tenant, self.report.rounds)

    def _flush_buffer(self) -> None:
        """Submit the buffered jobs as one fused diagnosis batch."""
        if not self._buffer:
            return
        jobs, self._buffer = self._buffer, []
        batch = _PendingBatch(
            jobs=jobs,
            ticket=self._sequencer.issue(),
            submitted_at=_time.monotonic(),
        )
        batch.future = self._pool.submit(self._diagnose_batch, batch)
        self._pending.append(batch)

    def _stripe_of(self, tenant: str) -> int:
        return zlib.crc32(tenant.encode("utf-8")) % self._n_stripes

    def _diagnose_batch(self, batch: _PendingBatch) -> object:
        # Stripes are acquired in ascending index order (deadlock-free);
        # two batches contend only when their tenant sets share a stripe.
        stripes = sorted({self._stripe_of(job.tenant) for job in batch.jobs})
        t0 = _time.perf_counter()
        for idx in stripes:
            self._explain_locks[idx].acquire()
        _DIAG_LOCK_WAIT_MS.observe(
            (_time.perf_counter() - t0) * 1000.0
        )
        try:
            try:
                pairs = [
                    (
                        job.dataset,
                        RegionSpec(abnormal=[job.region], normal=None),
                    )
                    for job in batch.jobs
                ]
                explain_batch = getattr(self.sherlock, "explain_batch", None)
                if explain_batch is not None:
                    explanations = explain_batch(pairs)
                else:
                    explanations = [
                        self.sherlock.explain(ds, spec) for ds, spec in pairs
                    ]
            except Exception as exc:
                if batch.try_settle():
                    self._sequencer.skip(batch.ticket)
                    self._handle_batch_failure(batch, exc)
                return None
        finally:
            for idx in reversed(stripes):
                self._explain_locks[idx].release()
        if not batch.try_settle():
            # the deadline enforcer already spoke for these jobs
            # (degraded or abandoned); discard the late result
            self._late_result(batch)
            return None
        items = [
            (job.tenant, job.region, explanation)
            for job, explanation in zip(batch.jobs, explanations)
        ]
        self._sequencer.publish(
            batch.ticket, lambda: self._publish_items(items, batch.jobs)
        )
        return explanations

    def _publish_items(
        self,
        items: List[Tuple[str, Region, object]],
        jobs: Optional[List[_PendingJob]] = None,
    ) -> None:
        with self._diagnoses_lock:
            self.diagnoses.extend(items)
            self.report.diagnoses += len(items)
        _SCHED_DIAGNOSES.inc(len(items))
        if jobs is None:
            return
        # full (non-degraded) results count as breaker successes
        round_no = self.report.rounds
        for job in jobs:
            if self.health.breaker_success(job.tenant, round_no):
                with self._diagnoses_lock:
                    self.report.breaker_readmits += 1
            elif self.health.state(job.tenant) == "degraded":
                self.health.set_state(
                    job.tenant,
                    "healthy",
                    reason="diagnosis recovered",
                    round_no=round_no,
                )

    def _late_result(self, batch: _PendingBatch) -> None:
        """Worker finished after the enforcer settled its batch.

        If the run overran the hard deadline, charge the hard tier now
        (deterministically — the zombie sweep in ``_enforce_deadlines``
        only catches workers still running when it happens to look).
        Otherwise the batch merely missed the soft tier; an in-flight
        probe is inconclusive and reopens the breaker.
        """
        hard = self.hard_deadline_s
        elapsed = _time.monotonic() - batch.submitted_at
        if hard is not None and elapsed >= hard:
            self._charge_hard_tier(batch)
            return
        for job in batch.jobs:
            if job.probe:
                if self.health.breaker_failure(
                    job.tenant, self.report.rounds
                ):
                    with self._diagnoses_lock:
                        self.report.breaker_opens += 1

    def _charge_hard_tier(self, batch: _PendingBatch) -> None:
        """Hard-deadline accounting, exactly once per batch."""
        if not batch.mark_hard_counted():
            return
        round_no = self.report.rounds
        for job in batch.jobs:
            _DEADLINE_MISSES.labels(tier="hard").inc()
            self._note_interest(job.tenant, "deadline:hard")
            with self._diagnoses_lock:
                self.report.deadline_misses += 1
                if self.health.breaker_failure(job.tenant, round_no):
                    self.report.breaker_opens += 1

    def _handle_batch_failure(
        self, batch: _PendingBatch, exc: BaseException
    ) -> None:
        """Worker failure: retry each job individually, or surface it.

        Runs on the worker thread.  Jobs with attempts left are pushed
        onto the deterministic backoff schedule as singleton batches
        (isolating a poison job that was fused with healthy ones);
        exhausted jobs and probes become terminal failures — counted in
        ``repro_fleet_diagnosis_failures_total`` and the report, and fed
        to the tenant's circuit breaker.  Nothing is ever swallowed.
        """
        detail = f"{type(exc).__name__}: {exc}"
        round_no = self.report.rounds
        retries: List[Tuple[float, _PendingJob]] = []
        failures: List[_PendingJob] = []
        for job in batch.jobs:
            job.attempts += 1
            if job.attempts <= self.max_retries and not job.probe:
                delay = min(
                    self.backoff_s
                    * self.backoff_factor ** (job.attempts - 1),
                    self.max_backoff_s,
                )
                retries.append((_time.monotonic() + delay, job))
            else:
                failures.append(job)
        if retries:
            _DIAG_RETRIES.inc(len(retries))
            with self._retry_lock:
                self._retry.extend(retries)
            with self._diagnoses_lock:
                self.report.retries += len(retries)
        for job in failures:
            _DIAG_FAILURES.labels(tenant=job.tenant).inc()
            with self._diagnoses_lock:
                self.report.diagnosis_failures += 1
                self.report.failures_by_tenant[job.tenant] = (
                    self.report.failures_by_tenant.get(job.tenant, 0) + 1
                )
            if self.health.breaker_failure(job.tenant, round_no):
                with self._diagnoses_lock:
                    self.report.breaker_opens += 1
            elif self.health.state(job.tenant) == "healthy":
                self.health.set_state(
                    job.tenant,
                    "degraded",
                    reason=f"diagnosis failed: {detail}",
                    round_no=round_no,
                )

    def _shed(self, tenant: str) -> None:
        self.report.shed += 1
        self.report.shed_by_tenant[tenant] = (
            self.report.shed_by_tenant.get(tenant, 0) + 1
        )
        _SCHED_SHED.inc()
        if self.label_metrics:
            _TENANT_SHED.labels(tenant=tenant).inc()

    def _drop_oldest_waiting(self) -> bool:
        """Shed the stalest not-yet-running work; False if none exists."""
        for idx, batch in enumerate(self._pending):
            if batch.future is not None and batch.future.cancel():
                del self._pending[idx]
                self._sequencer.skip(batch.ticket)
                batch.try_settle()
                for job in batch.jobs:
                    self._lag[job.stream] -= 1
                    self._shed_job_admission(job.tenant, job.probe)
                return True
        if self._buffer:
            job = self._buffer.pop(0)
            self._lag[job.stream] -= 1
            self._shed_job_admission(job.tenant, job.probe)
            return True
        return False

    def _wait_oldest(self) -> None:
        if not self._pending:
            # under "block" the bound can be smaller than the batch size;
            # the buffered jobs themselves are what must make progress
            self._flush_buffer()
        if not self._pending:
            return
        oldest = self._pending[0]
        future = oldest.future
        if future is None:
            return
        if self.soft_deadline_s is None and self.hard_deadline_s is None:
            try:
                future.result()
            except Exception:
                # not swallowed: _reap_finished routes the exception
                # through _handle_batch_failure via future.exception()
                pass
            return
        # with deadlines configured a hung worker must not block the
        # tick thread: poll, enforcing deadlines between waits
        while not future.done():
            try:
                future.result(timeout=0.01)
            except _FutureTimeout:
                self._enforce_deadlines()
                if not self._pending or self._pending[0] is not oldest:
                    return  # the enforcer settled and removed it
            except Exception:
                return

    def _reap_finished(self) -> None:
        while self._pending and self._pending[0].future is not None and (
            self._pending[0].future.done()
        ):
            batch = self._pending.popleft()
            for job in batch.jobs:
                self._lag[job.stream] -= 1
            exc = batch.future.exception()  # type: ignore[union-attr]
            if exc is not None and batch.try_settle():
                # the worker died outside its own failure guard (a bug,
                # or a BaseException): surface it, never swallow it
                self._sequencer.skip(batch.ticket)
                self._handle_batch_failure(batch, exc)

    def _requeue_due_retries(self, wait: bool = False) -> None:
        """Resubmit failed jobs whose backoff delay has elapsed.

        Each retry runs as its own singleton batch so a poison job that
        was fused with healthy neighbours fails alone the second time.
        With *wait* (drain path, nothing else in flight) this sleeps
        until the earliest retry comes due.
        """
        with self._retry_lock:
            if not self._retry:
                return
            now = _time.monotonic()
            if wait and not self._pending and not self._buffer:
                earliest = min(nb for nb, _ in self._retry)
                if earliest > now:
                    sleep_s = earliest - now
                else:
                    sleep_s = 0.0
            else:
                sleep_s = 0.0
        if sleep_s:
            _time.sleep(sleep_s)
        with self._retry_lock:
            now = _time.monotonic()
            due = [job for nb, job in self._retry if nb <= now]
            self._retry = [
                (nb, job) for nb, job in self._retry if nb > now
            ]
        for job in due:
            verdict = self.health.breaker_admit(
                job.tenant, self.report.rounds
            )
            if verdict == "reject":
                self._shed(job.tenant)
                continue
            job.probe = verdict == "probe"
            batch = _PendingBatch(
                jobs=[job],
                ticket=self._sequencer.issue(),
                submitted_at=_time.monotonic(),
            )
            batch.future = self._pool.submit(self._diagnose_batch, batch)
            self._pending.append(batch)
            self._lag[job.stream] += 1

    def _degraded_explanation(self, job: _PendingJob) -> object:
        """Cached-models-only ranking for a soft-deadline fallback.

        Skips predicate generation entirely: ranks the stored causal
        models against the job's window via ``CausalModelStore.rank``
        and the shared lock-striped labeled-space cache, and wraps the
        scores in an ``Explanation`` with no predicates and
        ``degraded=True``.
        """
        from repro.core.explain import DEFAULT_LAMBDA, Explanation
        from repro.core.predicates import Conjunction

        spec = RegionSpec(abnormal=[job.region], normal=None)
        try:
            scores = self.sherlock.store.rank(
                job.dataset,
                spec,
                n_partitions=self.sherlock.config.n_partitions,
                cache=self.sherlock.cache,
            )
        except Exception:
            scores = []
        lam = getattr(self.sherlock, "lambda_threshold", DEFAULT_LAMBDA)
        explanation = Explanation(
            predicates=Conjunction(),
            causes=[(c, conf) for c, conf in scores if conf > lam],
            all_cause_scores=list(scores),
        )
        explanation.degraded = True  # type: ignore[attr-defined]
        return explanation

    def _enforce_deadlines(self) -> None:
        """Settle batches past their deadline tier (tick thread only).

        Soft tier: the batch is settled, its ticket skipped, and a
        degraded cached-models-only ranking is published for each job.
        Hard tier: the batch is abandoned and its jobs shed.  Either
        way the still-running worker becomes a *zombie*: its eventual
        result is discarded, and if it is still running at the hard
        deadline its tenants take a breaker failure (a hang is hostile
        whether or not a degraded answer already went out).
        """
        soft = self.soft_deadline_s
        hard = self.hard_deadline_s
        if soft is None and hard is None:
            return
        now = _time.monotonic()
        for batch in list(self._pending):
            future = batch.future
            if future is None or future.done():
                continue
            age = now - batch.submitted_at
            if hard is not None and age >= hard:
                if not batch.try_settle():
                    continue
                self._pending.remove(batch)
                self._sequencer.skip(batch.ticket)
                round_no = self.report.rounds
                for job in batch.jobs:
                    self._lag[job.stream] -= 1
                    self._shed(job.tenant)
                self._charge_hard_tier(batch)
                for job in batch.jobs:
                    if self.health.state(job.tenant) == "healthy":
                        self.health.set_state(
                            job.tenant,
                            "degraded",
                            reason="hard diagnosis deadline",
                            round_no=round_no,
                        )
                self._zombies.append(batch)
            elif soft is not None and age >= soft:
                if not batch.try_settle():
                    continue
                self._pending.remove(batch)
                self._sequencer.skip(batch.ticket)
                round_no = self.report.rounds
                items = []
                for job in batch.jobs:
                    self._lag[job.stream] -= 1
                    _DEADLINE_MISSES.labels(tier="soft").inc()
                    self._note_interest(job.tenant, "deadline:soft")
                    _DEGRADED_RANKINGS.inc()
                    items.append(
                        (job.tenant, job.region,
                         self._degraded_explanation(job))
                    )
                with self._diagnoses_lock:
                    self.report.deadline_misses += len(batch.jobs)
                    self.report.degraded_rankings += len(batch.jobs)
                self._publish_items(items)
                for job in batch.jobs:
                    if self.health.state(job.tenant) == "healthy":
                        self.health.set_state(
                            job.tenant,
                            "degraded",
                            reason="soft deadline: cached-models-only "
                            "ranking",
                            round_no=round_no,
                        )
                self._zombies.append(batch)
        for batch in list(self._zombies):
            future = batch.future
            if future is not None and future.done():
                self._zombies.remove(batch)
                continue
            if hard is not None and now - batch.submitted_at >= hard:
                self._charge_hard_tier(batch)

    def drain(self) -> None:
        """Block until every queued diagnosis has completed or settled."""
        self._flush_buffer()
        while True:
            if self._pending:
                self._wait_oldest()
                self._reap_finished()
                self._enforce_deadlines()
                self._flush_buffer()
                continue
            if self._buffer:
                self._flush_buffer()
                continue
            with self._retry_lock:
                has_retry = bool(self._retry)
            if not has_retry:
                break
            self._requeue_due_retries(wait=True)
        # Incidents whose capture delay has not elapsed still get
        # written — a drained fleet produces no more samples to wait on.
        self._flush_incidents(force=True)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Durably checkpoint every durable tenant and retire old WAL.

        A saved checkpoint advances the WAL's retention mark —
        segments older than the *previous* checkpoint generation are
        deleted (generation fallback still finds its replay ticks).  A
        poisoned lane keeps all segments instead: rows offered since
        the poison were skipped by the engine, and dropping them would
        lose the replay that happens when the tenant is readmitted or
        recovered.  Both cases are then bounded by whole-segment
        compaction to ``max_wal_bytes_per_tenant``.  A degraded tenant
        declines to checkpoint (its recent ticks are volatile), so its
        retention mark never advances past data that is not on disk.
        """
        for name in sorted(self._durable):
            s = self._stream_of[name]
            saved = self._durability[name].save_checkpoint(
                recovery.envelope(
                    self.detector.stream_checkpoint(s),
                    float(self.detector.last_time[s])
                    if self.detector._has_time[s]
                    else None,
                )
            )
            if saved:
                self._durability[name].retire_wal(
                    mark=not bool(self.detector.poisoned[s]),
                    max_bytes=self.max_wal_bytes_per_tenant,
                )
                self.report.checkpoints += 1
                _SCHED_CHECKPOINTS.inc()
        self._export_wal_bytes()

    def _export_wal_bytes(self) -> None:
        """Publish retained WAL bytes (per tenant + fleet total)."""
        total = 0
        for name, wal in self._wals.items():
            try:
                retained = wal.bytes_retained()
            except OSError:
                continue
            total += retained
            if self.label_metrics:
                _WAL_BYTES.labels(tenant=name).set(retained)
        _WAL_BYTES_TOTAL.set(total)

    def wal_bytes(self) -> Dict[str, int]:
        """Retained WAL bytes per durable tenant (for reports/tests)."""
        out: Dict[str, int] = {}
        for name, wal in self._wals.items():
            try:
                out[name] = wal.bytes_retained()
            except OSError:
                out[name] = -1
        return out

    def readmit(self, tenant: str) -> None:
        """Clear a tenant's lane poison and restore it to full service.

        The lane resumes from its frozen last-good state — rows offered
        while poisoned were never ingested, exactly as if the tenant
        had been offline.
        """
        s = self._stream_of[tenant]
        self.detector.unpoison(s)
        self.health.set_state(
            tenant,
            "healthy",
            reason="lane readmitted",
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
        recoverable tenants still raises.
        """
        loads = [recovery.load_tenant(Path(root_dir) / t, t) for t in tenants]
        if all(load.state is None for load in loads):
            raise FileNotFoundError(
                f"no recoverable durable tenants under {root_dir}"
            )
        # skipped tenants restart on a fresh empty lane, so the tenant
        # list (and stream order) survives a partial recovery
        detector = FleetDetector.from_checkpoints(
            [load.state for load in loads], attributes=attributes
        )
        scheduler = cls(
            detector,
            tenants=list(tenants),
            root_dir=root_dir,
            durable=list(tenants),
            **scheduler_kwargs,
        )
        report = recovery.replay_lockstep(detector, loads, scheduler._enqueue)
        scheduler._flush_buffer()
        # CRC-skipped WAL records are a forensics trigger: the tenant
        # recovered, but something rotted its durable history.
        for name, load in zip(tenants, loads):
            if load.wal_note:
                scheduler._note_interest(name, "wal_corruption")
                scheduler._queue_incident(name, load.wal_note, 0)
        scheduler._flush_incidents(force=True)
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
        for s in np.nonzero(present)[0]:
            s = int(s)
            tenant = self.tenants[s]
            _TENANT_LAG.labels(tenant=tenant).set(int(self._lag[s]))
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
        if not self._latencies:
            return {f"p{q:g}": float("nan") for q in qs}
        allv = np.concatenate(self._latencies)
        if allv.size == 0:
            return {f"p{q:g}": float("nan") for q in qs}
        return {
            f"p{q:g}": float(np.percentile(allv, q)) for q in qs
        }

    def close(self) -> None:
        """Drain diagnosis, stop the pool, close WAL handles.

        Degraded tenants get one final probe: if the disk healed, their
        volatile buffers drain to the WAL before the handles close.
        """
        self.drain()
        self._pool.shutdown(wait=True)
        for managed in self._durability.values():
            managed.flush_volatile()
        self._export_wal_bytes()
        for wal in self._wals.values():
            try:
                wal.close()
            except OSError:
                pass
        self.health.close()
        if self.health.transition_hook is self._on_health_transition:
            self.health.transition_hook = None
        if self._flight_installed and trace.get_recorder() is self.flight:
            trace.uninstall()
            self._flight_installed = False

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
