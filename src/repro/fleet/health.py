"""Fleet health model: per-tenant states, circuit breakers, recovery.

The containment layer's bookkeeping.  A tenant is always in exactly one
of four **health states**:

``healthy``
    Full service: vectorized detection plus queued diagnosis.
``degraded``
    Detection is intact but diagnosis fell back — a soft deadline
    produced a cached-models-only ranking, or jobs are retrying.
``quarantined``
    The tenant's detection lane is poisoned
    (:attr:`~repro.fleet.engine.FleetDetector.poisoned`): its last-good
    checkpoint is frozen, offered rows are skipped, and verdicts
    abstain.  Other lanes are bitwise-unaffected.
``ejected``
    The tenant's circuit breaker is open: repeated diagnosis failures
    (or hard-deadline sheds) evicted it from the diagnosis pool until a
    cooldown elapses and a probe job succeeds.

Transitions are journaled (JSON lines, append-only) into the tenant's
durable directory next to its WAL when one exists, so an operator can
reconstruct *when* and *why* a tenant left full service even after the
process died.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.faults import fs as _fs
from repro.obs import metrics

__all__ = [
    "HEALTH_STATES",
    "CircuitBreaker",
    "HealthTracker",
    "read_health_journal",
]

#: The health-state ladder, in increasing order of lost service.
HEALTH_STATES = ("healthy", "degraded", "quarantined", "ejected")
_STATE_CODE = {name: code for code, name in enumerate(HEALTH_STATES)}

#: Breaker states, exported as gauge codes: 0 closed, 1 half-open, 2 open.
_BREAKER_CODE = {"closed": 0, "half_open": 1, "open": 2}

_TENANT_HEALTH = metrics.REGISTRY.gauge(
    "repro_fleet_tenant_health",
    "Per-tenant health state (0 healthy, 1 degraded, 2 quarantined, "
    "3 ejected)",
    labelnames=("tenant",),
)
_HEALTH_TRANSITIONS = metrics.REGISTRY.counter(
    "repro_fleet_health_transitions_total",
    "Health-state transitions, labeled by the state entered",
    labelnames=("state",),
)
_BREAKER_STATE = metrics.REGISTRY.gauge(
    "repro_fleet_breaker_state",
    "Per-tenant circuit-breaker state (0 closed, 1 half-open, 2 open)",
    labelnames=("tenant",),
)
_BREAKER_OPENS = metrics.REGISTRY.counter(
    "repro_fleet_breaker_opens_total",
    "Circuit-breaker open events (tenant ejected from the diagnosis pool)",
)
_BREAKER_READMITS = metrics.REGISTRY.counter(
    "repro_fleet_breaker_readmits_total",
    "Circuit breakers closed again after a successful half-open probe",
)


class CircuitBreaker:
    """One tenant's diagnosis circuit breaker (closed → open → half-open).

    Deterministic and jitterless: failures are counted consecutively and
    the cooldown is measured in *scheduler rounds*, not wall time, so a
    replayed fleet takes identical transitions.  Thread-safe — failures
    and successes arrive from diagnosis workers while admissions are
    decided on the tick thread.

    * ``closed``: jobs flow; ``failure_threshold`` consecutive terminal
      failures open the breaker.
    * ``open``: every job is rejected (shed) until ``cooldown_rounds``
      rounds have passed since opening.
    * ``half_open``: exactly one probe job is admitted; success closes
      the breaker (readmission), failure reopens it with a fresh
      cooldown.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown_rounds: int = 8
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_rounds < 1:
            raise ValueError("cooldown_rounds must be at least 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_rounds = int(cooldown_rounds)
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_round: Optional[int] = None
        self.opens = 0
        self._probe_in_flight = False

    def admit(self, round_no: int) -> str:
        """Admission verdict for one job: ``admit`` | ``probe`` | ``reject``."""
        with self._lock:
            if self.state == "closed":
                return "admit"
            if self.state == "open":
                assert self.opened_round is not None
                if round_no - self.opened_round >= self.cooldown_rounds:
                    self.state = "half_open"
                    self._probe_in_flight = True
                    return "probe"
                return "reject"
            # half_open: one probe at a time
            if self._probe_in_flight:
                return "reject"
            self._probe_in_flight = True
            return "probe"

    def record_failure(self, round_no: int) -> bool:
        """Count one terminal failure; True when the breaker (re)opens."""
        with self._lock:
            if self.state == "half_open":
                # the probe failed: straight back to open, fresh cooldown
                self.state = "open"
                self.opened_round = int(round_no)
                self.opens += 1
                self._probe_in_flight = False
                return True
            if self.state == "open":
                return False
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                self.state = "open"
                self.opened_round = int(round_no)
                self.opens += 1
                return True
            return False

    def record_success(self) -> bool:
        """Count one published diagnosis; True when a probe readmitted."""
        with self._lock:
            self.consecutive_failures = 0
            if self.state == "half_open":
                self.state = "closed"
                self.opened_round = None
                self._probe_in_flight = False
                return True
            return False

    @property
    def code(self) -> int:
        return _BREAKER_CODE[self.state]


class HealthTracker:
    """Per-tenant health states and circuit breakers for one fleet.

    Owned by the :class:`~repro.fleet.scheduler.FleetScheduler`; the
    scheduler reports events (lane poisoned, deadline missed, breaker
    opened/closed) and the tracker keeps the authoritative state, the
    labeled gauges, and — for tenants with a durable directory — an
    append-only JSON-lines journal at ``<root>/<tenant>/health.log``.
    """

    JOURNAL_NAME = "health.log"

    def __init__(
        self,
        tenants: Sequence[str],
        root_dir: Optional[Union[str, Path]] = None,
        durable: Sequence[str] = (),
        label_metrics: bool = True,
        breaker_threshold: int = 3,
        breaker_cooldown_rounds: int = 8,
    ) -> None:
        self.tenants = list(tenants)
        self.label_metrics = bool(label_metrics)
        self.root_dir = Path(root_dir) if root_dir is not None else None
        self._durable = set(durable)
        self._lock = threading.Lock()
        self._states: Dict[str, str] = {t: "healthy" for t in self.tenants}
        self._reasons: Dict[str, str] = {}
        self.breakers: Dict[str, CircuitBreaker] = {
            t: CircuitBreaker(breaker_threshold, breaker_cooldown_rounds)
            for t in self.tenants
        }
        self._journals: Dict[str, object] = {}
        self.transitions = 0
        #: Optional observer called after every journaled transition as
        #: ``hook(tenant, previous, state, reason, round_no)``; the
        #: scheduler uses it to trigger incident-bundle snapshots.
        self.transition_hook = None

    # ------------------------------------------------------------------
    def state(self, tenant: str) -> str:
        return self._states[tenant]

    def reason(self, tenant: str) -> str:
        return self._reasons.get(tenant, "")

    def counts(self) -> Dict[str, int]:
        """How many tenants sit in each health state."""
        out = {name: 0 for name in HEALTH_STATES}
        with self._lock:
            for state in self._states.values():
                out[state] += 1
        return out

    def set_state(
        self,
        tenant: str,
        state: str,
        reason: str = "",
        round_no: Optional[int] = None,
    ) -> bool:
        """Transition *tenant* to *state*; True when it actually changed."""
        if state not in _STATE_CODE:
            raise ValueError(f"unknown health state {state!r}")
        with self._lock:
            previous = self._states[tenant]
            if previous == state:
                return False
            self._states[tenant] = state
            self._reasons[tenant] = reason
            self.transitions += 1
        _HEALTH_TRANSITIONS.labels(state=state).inc()
        if self.label_metrics:
            _TENANT_HEALTH.labels(tenant=tenant).set(_STATE_CODE[state])
        self._journal(
            tenant,
            {
                "tenant": tenant,
                "from": previous,
                "to": state,
                "reason": reason,
                "round": round_no,
            },
        )
        hook = self.transition_hook
        if hook is not None:
            # Forensics must never break a health transition.
            try:
                hook(tenant, previous, state, reason, round_no)
            except Exception:
                pass
        return True

    # ------------------------------------------------------------------
    # Breaker event plumbing (called by the scheduler)
    # ------------------------------------------------------------------
    def breaker_failure(self, tenant: str, round_no: int) -> bool:
        """Record a terminal diagnosis failure; True when breaker opened."""
        opened = self.breakers[tenant].record_failure(round_no)
        if opened:
            _BREAKER_OPENS.inc()
            self.set_state(
                tenant, "ejected", reason="breaker open", round_no=round_no
            )
        self._export_breaker(tenant)
        return opened

    def breaker_success(
        self, tenant: str, round_no: Optional[int] = None
    ) -> bool:
        """Record a published diagnosis; True when a probe readmitted."""
        readmitted = self.breakers[tenant].record_success()
        if readmitted:
            _BREAKER_READMITS.inc()
            self.set_state(
                tenant,
                "healthy",
                reason="probe succeeded",
                round_no=round_no,
            )
        self._export_breaker(tenant)
        return readmitted

    def breaker_admit(self, tenant: str, round_no: int) -> str:
        verdict = self.breakers[tenant].admit(round_no)
        self._export_breaker(tenant)
        return verdict

    def _export_breaker(self, tenant: str) -> None:
        if self.label_metrics:
            _BREAKER_STATE.labels(tenant=tenant).set(
                self.breakers[tenant].code
            )

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _journal(self, tenant: str, record: Dict[str, object]) -> None:
        if self.root_dir is None or tenant not in self._durable:
            return
        # A sick disk must never turn a health transition into an
        # exception — the in-memory state is authoritative; a journal
        # write that fails is counted and dropped.
        try:
            handle = self._journals.get(tenant)
            if handle is None:
                path = self.root_dir / tenant / self.JOURNAL_NAME
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = path.open("a", encoding="utf-8")
                self._journals[tenant] = handle
            _fs.get_fs().write(
                handle, json.dumps(record, sort_keys=True) + "\n"
            )
            handle.flush()
        except OSError:
            _fs.count_write_error()

    def close(self) -> None:
        for handle in self._journals.values():
            try:
                handle.close()  # type: ignore[union-attr]
            except OSError:
                _fs.count_write_error()
        self._journals.clear()


def read_health_journal(
    root_dir: Union[str, Path], tenant: str
) -> List[Dict[str, object]]:
    """Replay one tenant's health journal (torn-tail tolerant)."""
    path = Path(root_dir) / tenant / HealthTracker.JOURNAL_NAME
    if not path.exists():
        return []
    # Read through the storage shim so injected read corruption hits
    # this path too; a corrupt prefix parses, the rest is dropped.
    try:
        text = _fs.get_fs().read_text(path)
    except OSError:
        _fs.count_read_error()
        return []
    records: List[Dict[str, object]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            break  # torn tail: stop at the first unparsable record
        if not isinstance(record, dict):
            break
        records.append(record)
    return records
