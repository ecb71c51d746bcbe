"""Fleet tick engine: many tenants' streaming detection, one arena.

The fleet subsystem scales the single-stream detection pipeline
(:mod:`repro.stream`) to thousands of tenants by keeping every tenant's
window in one columnar arena and running the per-tick numeric stages as
dense numpy calls across the whole fleet — peeling off per-stream work
(re-cluster, diagnose, WAL/checkpoint) only for streams whose verdict
actually changed.  It is the one streaming detector: the single-stream
:class:`~repro.stream.detector.StreamingDetector` is a one-lane fleet.

Layers, bottom up:

* :mod:`repro.fleet.bank` — batched rank-indexed window order statistics;
* :mod:`repro.fleet.arena` — the columnar ring + Equation 4 stats;
* :mod:`repro.fleet.fallout` — per-stream re-cluster and region close;
* :mod:`repro.fleet.engine` — the vectorized detector pipeline;
* :mod:`repro.fleet.scheduler` — the multi-tenant tick loop,
  per-tenant durability and metrics;
* :mod:`repro.fleet.diagnosis` — the diagnosis executor: fused batches,
  shed policies, deadline tiers with degraded fallbacks, retries;
* :mod:`repro.fleet.forensics` — flight-recorder rounds and incidents;
* :mod:`repro.fleet.health` — the tenant health model (healthy /
  degraded / quarantined / ejected), per-tenant circuit breakers and
  the durable health journal;
* :mod:`repro.fleet.recovery` — the checkpoint envelope, per-tenant
  loading, lockstep WAL replay and partial-recovery reports;
* :mod:`repro.fleet.sim` — synthetic fleet tick sources for benchmarks.

Failure containment is load-bearing: a hostile tenant — a lane that
raises, a diagnosis that hangs, durable state that rots — loses service
*itself* (bulkhead quarantine, degraded ranking, breaker ejection,
recovery skip) while every other tenant's outputs stay bitwise-equal to
a fault-free run (asserted by ``benchmarks/bench_fleet_chaos.py``).
"""

from repro.fleet.arena import ArenaStats, ArenaWindow, FleetArena
from repro.fleet.bank import SortedWindowBank
from repro.fleet.engine import FleetDetector, FleetTick
from repro.fleet.health import (
    HEALTH_STATES,
    CircuitBreaker,
    HealthTracker,
    read_health_journal,
)
from repro.fleet.recovery import RecoveryReport, TenantRecovery
from repro.fleet.scheduler import SHED_POLICIES, FleetScheduler, SchedulerReport
from repro.fleet.sim import FleetSimSource

__all__ = [
    "ArenaStats",
    "ArenaWindow",
    "CircuitBreaker",
    "FleetArena",
    "FleetDetector",
    "FleetScheduler",
    "FleetSimSource",
    "FleetTick",
    "HEALTH_STATES",
    "HealthTracker",
    "RecoveryReport",
    "SHED_POLICIES",
    "SchedulerReport",
    "SortedWindowBank",
    "TenantRecovery",
    "read_health_journal",
]
