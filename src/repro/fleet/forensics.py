"""Fleet forensics: flight-recorder rounds and incident bundles.

The glue between a :class:`~repro.fleet.scheduler.FleetScheduler` and
the obs layer's :class:`~repro.obs.flight.FlightRecorder` (tail-sampled
span rings) and :class:`~repro.obs.incident.IncidentRecorder` (bundles
on disk).  With neither attached, :class:`Forensics` is off: its hooks
return at once and the scheduler never enters :meth:`Forensics.round`.

Otherwise each fleet round runs inside a ``fleet.round`` span.  Trigger
reasons accumulate per tenant from any thread (deadline misses, health
and durability transitions, WAL corruption) and fold in the round's
verdicts, closed regions and poisoned lanes.  At the round's end the
flight recorder keeps or drops the round's ring, the ``fleet`` metric
timeline is sampled at the round number, and due incident snapshots
are written with the tenant's health, breaker, durability and WAL state.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Dict, List, Mapping, Sequence

from repro.fleet.engine import FleetTick
from repro.fleet.health import HealthTracker
from repro.obs import metrics
from repro.obs import trace

__all__ = ["Forensics"]


class Forensics:
    """One fleet's interest collection, round lifecycle and incident queue.

    It reads the scheduler's *health* tracker, *report* (its ``rounds``
    is the clock) and *durability* map (tenant →
    :class:`~repro.stream.durability.TenantDurability`) for bundle
    context.  An incident snapshot waits *capture_rounds* rounds after
    its trigger, so the bundle's timeline holds post-trigger samples;
    the ``fleet`` timeline is sampled every *timeline_every* rounds.
    """

    def __init__(
        self,
        flight,
        incidents,
        tenants: Sequence[str],
        health: HealthTracker,
        report,
        durability: Mapping[str, object],
        capture_rounds: int = 4,
        timeline_every: int = 4,
        journal_root=None,
    ) -> None:
        self.flight = flight
        self.incidents = incidents
        self.enabled = flight is not None or incidents is not None
        self.tenants = list(tenants)
        self.health = health
        self.report = report
        self._durability = durability
        self.capture_rounds = max(0, int(capture_rounds))
        self.timeline_every = max(1, int(timeline_every))
        self.timeline = None
        self._installed = False
        #: tenant → trigger reasons noted since the last round end; also
        #: guards the incident queue (workers and the durability/health
        #: hooks append off the tick thread).
        self._lock = threading.Lock()
        self._interest: Dict[str, List[str]] = {}
        #: ``(tenant, reason, round_no, due_round)``, one per tenant.
        self._incident_queue: List[tuple] = []
        if not self.enabled:
            return
        self.timeline = metrics.REGISTRY.timeline("fleet")
        health.transition_hook = self._on_health_transition
        if flight is not None and trace.get_recorder() is None:
            # Tail sampling is only worth it when no full recorder is
            # already capturing everything.
            trace.install(flight)
            self._installed = True
        if incidents is not None:
            incidents.attach(
                flight=flight, timeline=self.timeline, journal_root=journal_root
            )

    # ------------------------------------------------------------------
    # Triggers (any thread)
    # ------------------------------------------------------------------
    def note(self, tenant: str, reason: str) -> None:
        """Mark this round interesting for *tenant*."""
        if not self.enabled:
            return
        with self._lock:
            reasons = self._interest.setdefault(tenant, [])
            if reason not in reasons:
                reasons.append(reason)

    def queue_incident(self, tenant: str, reason: str, round_no: int) -> None:
        """Schedule an incident snapshot for *tenant*.

        The snapshot is deferred ``capture_rounds`` rounds so the
        bundle's timeline window includes post-trigger samples — the
        step the diagnosis needs to see.  One in-flight snapshot per
        tenant; the recorder's own rate limiter handles repeats.
        """
        if self.incidents is None:
            return
        with self._lock:
            if all(entry[0] != tenant for entry in self._incident_queue):
                self._incident_queue.append(
                    (tenant, reason, int(round_no),
                     int(round_no) + self.capture_rounds)
                )

    def on_durability(self, tenant: str, mode: str, reason: str) -> None:
        """A tenant's persistence mode changed; degrading is an incident."""
        self.note(tenant, f"durability:{mode}")
        if mode == "degraded":
            self.queue_incident(
                tenant, f"durability degraded: {reason}", self.report.rounds
            )

    def on_wal_corruption(self, tenant: str, detail: str) -> None:
        """Recovery skipped CRC-failed WAL records: the tenant recovered,
        but something rotted its durable history."""
        self.note(tenant, "wal_corruption")
        self.queue_incident(tenant, detail, 0)

    def _on_health_transition(
        self, tenant: str, previous: str, state: str, reason: str, round_no
    ) -> None:
        """HealthTracker hook: health transitions are always interesting."""
        self.note(tenant, f"health:{state}")
        if state in ("degraded", "quarantined", "ejected"):
            self.queue_incident(
                tenant,
                f"{state}: {reason}" if reason else state,
                round_no if round_no is not None else self.report.rounds,
            )

    # ------------------------------------------------------------------
    # Round lifecycle (tick thread)
    # ------------------------------------------------------------------
    def round(self, round_no: int, body, *args) -> FleetTick:
        """Run ``body(*args)`` as fleet round *round_no*: span it, fold
        its outcome into the round's interest, close the flight round,
        sample the timeline and write due incident bundles."""
        latency_s = None
        if self.flight is not None:
            self.flight.begin_round(round_no)
            t0 = _time.perf_counter()
            with trace.span("fleet.round", round=round_no):
                tick = body(*args)
            latency_s = _time.perf_counter() - t0
        else:
            tick = body(*args)
        interest = self._collect_interest(tick)
        if self.flight is not None:
            self.flight.end_round(interest, latency_s=latency_s)
        if self.report.rounds % self.timeline_every == 0:
            # stamp samples with the fleet round number: incident
            # bundles can then anchor their abnormal region exactly at
            # the trigger round instead of guessing a trailing window
            self.timeline.sample(t=float(round_no))
        self.flush()
        return tick

    def _collect_interest(self, tick: FleetTick) -> Dict[str, List[str]]:
        """Drain the round's trigger reasons, folding in tick outcomes."""
        with self._lock:
            interest, self._interest = self._interest, {}

        def add(streams, reason: str) -> None:
            for s in streams:
                reasons = interest.setdefault(self.tenants[int(s)], [])
                if reason not in reasons:
                    reasons.append(reason)

        add((s for s, res in tick.results.items() if res.regions), "verdict")
        add(tick.closed, "region_closed")
        add(tick.lane_errors, "lane_poisoned")
        return interest

    def flush(self, force: bool = False) -> None:
        """Write queued incident bundles whose capture delay elapsed
        (all of them with *force*: a drained fleet samples no more)."""
        # unlocked empty check: appends happen under the lock, and a
        # snapshot enqueued this instant is never due before its capture
        # delay elapses, so racing past it just defers to next round
        if self.incidents is None or not self._incident_queue:
            return
        with self._lock:
            rounds = self.report.rounds
            due = [e for e in self._incident_queue if force or rounds >= e[3]]
            if not due:
                return
            self._incident_queue = [
                entry for entry in self._incident_queue if entry not in due
            ]
        for tenant, reason, round_no, _due_round in due:
            self.incidents.snapshot(
                tenant, reason, round_no, context=self._context(tenant)
            )

    def _context(self, tenant: str) -> Dict[str, object]:
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
                "mode": managed.mode, "reason": managed.degraded_reason
            }
            wal = managed.wal
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

    def close(self) -> None:
        """Unhook from the health tracker and the trace recorder."""
        if self.health.transition_hook == self._on_health_transition:
            self.health.transition_hook = None
        if self._installed and trace.get_recorder() is self.flight:
            trace.uninstall()
            self._installed = False
