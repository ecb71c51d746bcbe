"""Diagnosis executor: fused batches, backpressure, deadlines, retries.

Diagnosis is the rare, expensive fallout of detection: a closed
abnormal region needs a ``DBSherlock`` explanation.
:class:`DiagnosisExecutor` runs it off the tick thread on a bounded
worker pool behind a small surface — ``submit``, ``flush``, ``poll``,
``drain``, ``close`` and ``queued``:

* up to ``jobs`` regions are fused into one ``explain_batch`` call,
  under per-tenant lock stripes of the shared labeled-space cache;
* ``max_pending`` bounds the jobs in flight, and the shed policy picks
  who pays when ingest outruns diagnosis: ``"drop_oldest"`` cancels the
  stalest queued job, ``"reject_new"`` refuses the incoming one,
  ``"block"`` makes the caller wait;
* results reach :attr:`DiagnosisExecutor.diagnoses` in submission order;
* a failed batch retries each job alone on a jitterless exponential
  backoff (:data:`MAX_RETRIES`, :data:`BACKOFF_S`,
  :data:`BACKOFF_FACTOR`, :data:`MAX_BACKOFF_S`), then fails terminally;
* past ``soft_deadline_s`` a batch is settled with a degraded
  cached-models-only ranking, past ``hard_deadline_s`` it is abandoned
  and shed.  Threads cannot be killed, so the worker runs on as a
  *zombie* whose late result is discarded;
* every outcome feeds the tenant's circuit breaker.

Every submitted job ends as exactly one of diagnosed, shed or failed on
the owner's ``SchedulerReport``.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.regions import Region, RegionSpec
from repro.fleet.health import HealthTracker
from repro.obs import metrics

__all__ = ["DiagnosisExecutor", "SHED_POLICIES"]

SHED_POLICIES = ("drop_oldest", "reject_new", "block")

#: Worker failures a job is retried for before it fails terminally.
MAX_RETRIES = 2
#: Retry *n* waits ``min(BACKOFF_S * BACKOFF_FACTOR**(n-1), MAX_BACKOFF_S)``.
BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 2.0
#: Explain-lock stripes; tenants map to one by crc32 of their name.
N_STRIPES = 16

_SCHED_SHED = metrics.REGISTRY.counter(
    "repro_fleet_shed_total", "Diagnosis jobs shed under backpressure"
)
_SCHED_DIAGNOSES = metrics.REGISTRY.counter(
    "repro_fleet_diagnoses_total", "Diagnosis jobs completed"
)
_TENANT_SHED = metrics.REGISTRY.counter(
    "repro_fleet_tenant_shed_total",
    "Diagnosis jobs shed per tenant",
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
    """One submitted diagnosis unit: ≤ ``jobs`` fused jobs.

    Exactly one party may *settle* a batch — the worker (publish or
    retry/fail) or the deadline enforcer on the caller's thread
    (degrade or abandon); ``claim("settle")`` decides the race and the
    loser discards its result.
    """

    jobs: List[_PendingJob]
    ticket: int
    #: set as soon as the batch is submitted, before anyone sees it.
    future: Future = None  # type: ignore[assignment]
    submitted_at: float = 0.0
    _claimed: Set[str] = field(default_factory=set, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def claim(self, what: str) -> bool:
        """True exactly once per batch and *what*: ``"settle"`` or the
        hard-tier charge ``"hard"``."""
        with self._lock:
            if what in self._claimed:
                return False
            self._claimed.add(what)
            return True


class _Sequencer:
    """Globally-FIFO publication of diagnosis results.

    Batches run concurrently, but :meth:`publish` parks a finished batch
    until its ticket's turn and runs the sink under the sequencer's own
    lock, so results land in submission order however the pool
    interleaves; :meth:`skip` retires a ticket without blocking.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: tickets are issued on the caller's thread only.
        self.tickets = itertools.count()
        self._next_publish = 0
        self._skipped: Set[int] = set()

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


class DiagnosisExecutor:
    """Bounded, fused, deadline-aware diagnosis of closed regions.

    *sherlock* explains (``explain_batch`` when it has one); breaker
    admission, outcomes and health transitions go through *health*;
    counts land on *report*, whose ``rounds`` stamps events.
    ``snapshot(stream)`` gives an admitted job without a dataset its
    window, and ``note(tenant, reason)`` reports a deadline miss to
    forensics.
    """

    def __init__(
        self,
        sherlock,
        tenants: Sequence[str],
        health: HealthTracker,
        report,
        snapshot: Callable[[int], object],
        note: Callable[[str, str], None],
        jobs: int = 2,
        max_pending: int = 64,
        shed_policy: str = "drop_oldest",
        soft_deadline_s: Optional[float] = None,
        hard_deadline_s: Optional[float] = None,
        label_metrics: bool = True,
    ) -> None:
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if jobs < 1:
            raise ValueError("diagnose_jobs must be at least 1")
        if (
            soft_deadline_s is not None
            and hard_deadline_s is not None
            and hard_deadline_s < soft_deadline_s
        ):
            raise ValueError("hard_deadline_s must be >= soft_deadline_s")
        self.sherlock = sherlock
        self.tenants = list(tenants)
        self.health = health
        self.report = report
        self._snapshot = snapshot
        self._note = note
        self.shed_policy = shed_policy
        self.max_pending = int(max_pending)
        self.soft_deadline_s = soft_deadline_s
        self.hard_deadline_s = hard_deadline_s
        self.label_metrics = bool(label_metrics)
        self._batch_size = int(jobs)
        self._pool = ThreadPoolExecutor(
            max_workers=int(jobs), thread_name_prefix="fleet-diagnose"
        )
        self._explain_locks = tuple(
            threading.Lock() for _ in range(N_STRIPES)
        )
        self._sequencer = _Sequencer()
        self._buffer: List[_PendingJob] = []
        self._pending: Deque[_PendingBatch] = deque()
        #: queued (undiagnosed) jobs per stream.
        self.lag = np.zeros(len(self.tenants), dtype=np.int64)
        #: ``(tenant, region, explanation)`` triples, submission order.
        self.diagnoses: List[Tuple[str, Region, object]] = []
        self._lock = threading.Lock()
        #: (not_before monotonic, job) — drained on the caller's thread.
        self._retry: List[Tuple[float, _PendingJob]] = []
        self._retry_lock = threading.Lock()
        #: settled-by-enforcer batches whose worker is still running.
        self._zombies: List[_PendingBatch] = []

    # ------------------------------------------------------------------
    # Surface
    # ------------------------------------------------------------------
    def queued(self) -> int:
        """Diagnosis jobs in flight: buffered plus submitted-batch jobs."""
        return len(self._buffer) + sum(
            len(batch.jobs) for batch in self._pending
        )

    def submit(self, stream: int, region: Region, dataset=None) -> None:
        """Queue one closed region of *stream* for diagnosis.

        Breaker admission and the shed policy apply first; only an
        admitted job takes its window snapshot (``snapshot(stream)``
        when no *dataset* is given).  A full buffer is submitted as one
        fused batch.
        """
        tenant = self.tenants[stream]
        if self.sherlock is None:
            return
        verdict = self.health.breaker_admit(tenant, self.report.rounds)
        if verdict == "reject":
            self._shed(tenant)
            return
        probe = verdict == "probe"
        while self.queued() >= self.max_pending:
            if self.shed_policy == "block":
                self._wait_oldest()
                self.poll()
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
            dataset = self._snapshot(stream)
        self._buffer.append(
            _PendingJob(tenant, stream, region, dataset, probe=probe)
        )
        self.lag[stream] += 1
        if len(self._buffer) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        """Submit the buffered jobs as one fused diagnosis batch."""
        if not self._buffer:
            return
        jobs, self._buffer = self._buffer, []
        self._start(jobs)

    def poll(self) -> None:
        """Reap finished batches, enforce deadlines, resubmit due retries."""
        self._reap_finished()
        self._enforce_deadlines()
        self._requeue_due_retries()

    def drain(self) -> None:
        """Block until every queued diagnosis has completed or settled."""
        self.flush()
        # retries are queued by workers of pending batches, so once no
        # batch is pending the retry list is complete
        while self._pending or self._retry:
            if self._pending:
                self._wait_oldest()
                self._reap_finished()
                self._enforce_deadlines()
            else:
                self._requeue_due_retries(wait=True)

    def close(self) -> None:
        """Drain, then stop the worker pool (idempotent)."""
        self.drain()
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _start(self, jobs: List[_PendingJob]) -> None:
        batch = _PendingBatch(
            jobs, next(self._sequencer.tickets), submitted_at=_time.monotonic()
        )
        batch.future = self._pool.submit(self._diagnose_batch, batch)
        self._pending.append(batch)

    def _diagnose_batch(self, batch: _PendingBatch) -> object:
        # Stripes are acquired in ascending index order (deadlock-free);
        # two batches contend only when their tenant sets share a stripe.
        # crc32, not hash(): stable across PYTHONHASHSEED so stripe
        # assignment (and thus contention behavior) is reproducible.
        stripes = sorted(
            {
                zlib.crc32(job.tenant.encode("utf-8")) % N_STRIPES
                for job in batch.jobs
            }
        )
        t0 = _time.perf_counter()
        for idx in stripes:
            self._explain_locks[idx].acquire()
        _DIAG_LOCK_WAIT_MS.observe((_time.perf_counter() - t0) * 1000.0)
        try:
            try:
                pairs = [
                    (job.dataset, RegionSpec(abnormal=[job.region], normal=None))
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
                if batch.claim("settle"):
                    self._sequencer.skip(batch.ticket)
                    self._handle_batch_failure(batch, exc)
                return None
        finally:
            for idx in reversed(stripes):
                self._explain_locks[idx].release()
        if not batch.claim("settle"):
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
        self, items: List[tuple], jobs: Optional[List[_PendingJob]] = None
    ) -> None:
        with self._lock:
            self.diagnoses.extend(items)
            self.report.diagnoses += len(items)
        _SCHED_DIAGNOSES.inc(len(items))
        if jobs is None:
            return
        # full (non-degraded) results count as breaker successes
        round_no = self.report.rounds
        for job in jobs:
            if self.health.breaker_success(job.tenant, round_no):
                with self._lock:
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
            if job.probe and self.health.breaker_failure(
                job.tenant, self.report.rounds
            ):
                with self._lock:
                    self.report.breaker_opens += 1

    def _charge_hard_tier(self, batch: _PendingBatch) -> None:
        """Hard-deadline accounting, exactly once per batch."""
        if not batch.claim("hard"):
            return
        round_no = self.report.rounds
        for job in batch.jobs:
            _DEADLINE_MISSES.labels(tier="hard").inc()
            self._note(job.tenant, "deadline:hard")
            with self._lock:
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
            if job.attempts <= MAX_RETRIES and not job.probe:
                delay = min(
                    BACKOFF_S * BACKOFF_FACTOR ** (job.attempts - 1),
                    MAX_BACKOFF_S,
                )
                retries.append((_time.monotonic() + delay, job))
            else:
                failures.append(job)
        if retries:
            _DIAG_RETRIES.inc(len(retries))
            with self._retry_lock:
                self._retry.extend(retries)
            with self._lock:
                self.report.retries += len(retries)
        for job in failures:
            _DIAG_FAILURES.labels(tenant=job.tenant).inc()
            with self._lock:
                self.report.diagnosis_failures += 1
                self.report.failures_by_tenant[job.tenant] = (
                    self.report.failures_by_tenant.get(job.tenant, 0) + 1
                )
            if self.health.breaker_failure(job.tenant, round_no):
                with self._lock:
                    self.report.breaker_opens += 1
            elif self.health.state(job.tenant) == "healthy":
                self.health.set_state(
                    job.tenant,
                    "degraded",
                    reason=f"diagnosis failed: {detail}",
                    round_no=round_no,
                )

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------
    def _shed(self, tenant: str) -> None:
        self.report.shed += 1
        self.report.shed_by_tenant[tenant] = (
            self.report.shed_by_tenant.get(tenant, 0) + 1
        )
        _SCHED_SHED.inc()
        if self.label_metrics:
            _TENANT_SHED.labels(tenant=tenant).inc()

    def _shed_job_admission(self, tenant: str, probe: bool) -> None:
        """Shed a just-admitted job; a shed probe reopens the breaker."""
        self._shed(tenant)
        if probe:
            # the half-open probe never ran — reopen so a later round
            # gets to probe again instead of wedging in half_open
            self.health.breaker_failure(tenant, self.report.rounds)

    def _drop_oldest_waiting(self) -> bool:
        """Shed the stalest not-yet-running work; False if none exists."""
        for idx, batch in enumerate(self._pending):
            if batch.future.cancel():
                del self._pending[idx]
                self._sequencer.skip(batch.ticket)
                batch.claim("settle")
                for job in batch.jobs:
                    self.lag[job.stream] -= 1
                    self._shed_job_admission(job.tenant, job.probe)
                return True
        if self._buffer:
            job = self._buffer.pop(0)
            self.lag[job.stream] -= 1
            self._shed_job_admission(job.tenant, job.probe)
            return True
        return False

    def _wait_oldest(self) -> None:
        """Wait for the oldest batch, enforcing deadlines between polls
        so a hung worker never blocks the caller past its tier."""
        if not self._pending:
            # under "block" the bound can be smaller than the batch size;
            # the buffered jobs themselves are what must make progress
            self.flush()
        if not self._pending:
            return
        oldest = self._pending[0]
        future = oldest.future
        while not future.done():
            try:
                future.result(timeout=0.01)
            except _FutureTimeout:
                self._enforce_deadlines()
                if not self._pending or self._pending[0] is not oldest:
                    return  # the enforcer settled and removed it
            except Exception:
                # not swallowed: _reap_finished routes the exception
                # through _handle_batch_failure via future.exception()
                return

    def _reap_finished(self) -> None:
        while self._pending and self._pending[0].future.done():
            batch = self._pending.popleft()
            for job in batch.jobs:
                self.lag[job.stream] -= 1
            exc = batch.future.exception()
            if exc is not None and batch.claim("settle"):
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
            sleep_s = 0.0
            if wait and not self._pending and not self._buffer:
                earliest = min(nb for nb, _ in self._retry)
                sleep_s = max(0.0, earliest - _time.monotonic())
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
            self._start([job])
            self.lag[job.stream] += 1

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
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
        """Settle batches past their deadline tier (caller's thread).

        Soft tier: a degraded cached-models-only ranking is published
        for each job.  Hard tier: the batch is abandoned and its jobs
        shed.  Either way the still-running worker becomes a *zombie*:
        its eventual result is discarded, and if it is still running
        at the hard deadline its tenants take a breaker failure (a hang
        is hostile whether or not a degraded answer already went out).
        """
        soft = self.soft_deadline_s
        hard = self.hard_deadline_s
        if soft is None and hard is None:
            return
        now = _time.monotonic()
        for batch in list(self._pending):
            if batch.future.done():
                continue
            age = now - batch.submitted_at
            tier = (
                "hard" if hard is not None and age >= hard
                else "soft" if soft is not None and age >= soft
                else None
            )
            if tier is None or not batch.claim("settle"):
                continue
            self._pending.remove(batch)
            self._sequencer.skip(batch.ticket)
            self._zombies.append(batch)
            round_no = self.report.rounds
            for job in batch.jobs:
                self.lag[job.stream] -= 1
            if tier == "hard":
                for job in batch.jobs:
                    self._shed(job.tenant)
                self._charge_hard_tier(batch)
                reason = "hard diagnosis deadline"
            else:
                items = []
                for job in batch.jobs:
                    _DEADLINE_MISSES.labels(tier="soft").inc()
                    self._note(job.tenant, "deadline:soft")
                    _DEGRADED_RANKINGS.inc()
                    items.append(
                        (job.tenant, job.region,
                         self._degraded_explanation(job))
                    )
                with self._lock:
                    self.report.deadline_misses += len(batch.jobs)
                    self.report.degraded_rankings += len(batch.jobs)
                self._publish_items(items)
                reason = "soft deadline: cached-models-only ranking"
            for job in batch.jobs:
                if self.health.state(job.tenant) == "healthy":
                    self.health.set_state(
                        job.tenant, "degraded", reason=reason,
                        round_no=round_no,
                    )
        for batch in list(self._zombies):
            if batch.future.done():
                self._zombies.remove(batch)
            elif hard is not None and now - batch.submitted_at >= hard:
                self._charge_hard_tier(batch)
