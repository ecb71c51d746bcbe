"""Deterministic fault injection for chaos-testing the diagnosis pipeline.

Real DBSeer-style collectors do not emit the clean, perfectly aligned
1-second telemetry table the paper assumes (Section 3): ticks get dropped
or delivered twice, attribute values go missing or NaN, counters stick,
clocks skew, schemas drift, and the collector process itself dies.  This
package reproduces those failure modes as *seeded, composable* injectors
so robustness can be measured instead of asserted:

``plan``       :class:`FaultPlan` — an ordered, seeded composition of
               injectors applicable to a whole :class:`~repro.data.dataset.Dataset`
               or wrapped around a live ``(t, numeric, categorical)``
               tick stream;
``injectors``  the fault taxonomy — :class:`DropTicks`,
               :class:`DuplicateTicks`, :class:`NaNValues`,
               :class:`StuckAtCounter`, :class:`SpikeCorruption`,
               :class:`ClockSkew`, :class:`SchemaDrift`,
               :class:`CollectorCrash` (raises :class:`CollectorFault`),
               plus the fleet in-process faults —
               :class:`LaneExceptionFault` (a detection lane that
               raises, exercising the bulkhead),
               :class:`DiagnosisHang` (a tenant whose explains pin a
               diagnosis worker, exercising the deadline tiers and the
               circuit breaker), and :class:`CorruptTenantState`
               (durable state rotting on disk, exercising partial
               recovery);
``fs``         the storage-fault shim — :class:`~repro.faults.fs.StorageShim`
               routing every persistence path's write/fsync/rename/read,
               with :class:`~repro.faults.fs.FullDisk` (ENOSPC),
               :class:`~repro.faults.fs.FlakyIO` (transient EIO),
               :class:`~repro.faults.fs.TornRename`, and
               :class:`~repro.faults.fs.ReadCorruption` (bit flips /
               truncated JSON) making the *filesystem itself* misbehave.

Every injector is a no-op at rate 0 and fully determined by the plan's
seed: applying the same plan to the same input twice yields bitwise
identical output (property-tested in ``tests/test_faults.py``).
"""

from repro.faults.injectors import (
    ClockSkew,
    CollectorCrash,
    CollectorFault,
    CorruptTenantState,
    DiagnosisHang,
    DropTicks,
    DuplicateTicks,
    FaultInjector,
    LaneExceptionFault,
    NaNValues,
    SchemaDrift,
    SpikeCorruption,
    StuckAtCounter,
)
from repro.faults.fs import (
    FlakyIO,
    FSFault,
    FullDisk,
    ReadCorruption,
    StorageShim,
    TornRename,
    get_fs,
    scoped_fs,
    set_fs,
)
from repro.faults.plan import FaultPlan, TelemetryTable

__all__ = [
    "ClockSkew",
    "CollectorCrash",
    "CollectorFault",
    "CorruptTenantState",
    "DiagnosisHang",
    "DropTicks",
    "DuplicateTicks",
    "FSFault",
    "FaultInjector",
    "FaultPlan",
    "FlakyIO",
    "FullDisk",
    "LaneExceptionFault",
    "NaNValues",
    "ReadCorruption",
    "SchemaDrift",
    "SpikeCorruption",
    "StorageShim",
    "StuckAtCounter",
    "TelemetryTable",
    "TornRename",
    "get_fs",
    "scoped_fs",
    "set_fs",
]
