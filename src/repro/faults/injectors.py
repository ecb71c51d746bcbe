"""The fault taxonomy: composable telemetry corruption primitives.

Each injector implements the same failure mode on both consumption paths:

* ``apply_table(table, rng)`` — transform a finished telemetry table
  (the offline / batch-diagnosis path);
* ``wrap_stream(ticks, rng)`` — wrap a live ``(t, numeric, categorical)``
  tick iterator (the streaming-detector path).

Both paths are deterministic given the generator the
:class:`~repro.faults.plan.FaultPlan` hands them, and every injector is
an exact no-op at rate/magnitude 0.  Injectors hold **no mutable state**
across applications — all per-run state lives in generator locals — so a
plan can be applied any number of times with identical results.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (plan imports us)
    from repro.faults.plan import TelemetryTable

#: One telemetry tick: ``(time, numeric_row, categorical_row)``.
Tick = Tuple[float, Dict[str, float], Dict[str, str]]

__all__ = [
    "Tick",
    "CollectorFault",
    "FaultInjector",
    "DropTicks",
    "DuplicateTicks",
    "NaNValues",
    "StuckAtCounter",
    "SpikeCorruption",
    "ClockSkew",
    "SchemaDrift",
    "CollectorCrash",
    "LaneExceptionFault",
    "DiagnosisHang",
    "CorruptTenantState",
]


class CollectorFault(RuntimeError):
    """Raised by :class:`CollectorCrash` when the simulated collector dies."""


class FaultInjector:
    """Base class: identity transform on both paths."""

    def apply_table(
        self, table: "TelemetryTable", rng: np.random.Generator
    ) -> "TelemetryTable":
        """Transform a telemetry table (default: pass through)."""
        return table

    def wrap_stream(
        self, ticks: Iterator[Tick], rng: np.random.Generator
    ) -> Iterator[Tick]:
        """Wrap a tick stream (default: pass through)."""
        return ticks

    def transform_time(self, t: float) -> float:
        """Time re-mapping this injector applies (identity for most)."""
        return t

    def _params(self) -> Dict[str, object]:
        return {}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._params().items())
        return f"{type(self).__name__}({inner})"


def _check_rate(rate: float, name: str = "rate") -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {rate}")
    return rate


class DropTicks(FaultInjector):
    """Each tick is independently lost with probability ``rate``."""

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate(rate)

    def _params(self):
        return {"rate": self.rate}

    def apply_table(self, table, rng):
        if self.rate == 0.0 or table.n_rows == 0:
            return table
        keep = rng.random(table.n_rows) >= self.rate
        if not keep.any():  # a fully-dead collector still delivers one row
            keep[0] = True
        return table.take(np.flatnonzero(keep))

    def wrap_stream(self, ticks, rng):
        if self.rate == 0.0:
            yield from ticks
            return
        for tick in ticks:
            if rng.random() >= self.rate:
                yield tick


class DuplicateTicks(FaultInjector):
    """Stale re-delivery: with probability ``rate`` a tick carries the
    previous tick's payload (its own timestamp, yesterday's values) —
    the classic at-least-once collector re-sending its last sample.
    """

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate(rate)

    def _params(self):
        return {"rate": self.rate}

    def apply_table(self, table, rng):
        n = table.n_rows
        if self.rate == 0.0 or n < 2:
            return table
        dup = rng.random(n) < self.rate
        dup[0] = False
        src = np.arange(n)
        for i in range(1, n):  # stale runs propagate the same old row
            if dup[i]:
                src[i] = src[i - 1]
        for attr, values in table.numeric.items():
            table.numeric[attr] = values[src]
        for attr, values in table.categorical.items():
            table.categorical[attr] = values[src]
        return table

    def wrap_stream(self, ticks, rng):
        if self.rate == 0.0:
            yield from ticks
            return
        prev: Optional[Tick] = None
        for t, numeric, categorical in ticks:
            if prev is not None and rng.random() < self.rate:
                yield (t, dict(prev[1]), dict(prev[2]))
                prev = (t, prev[1], prev[2])
            else:
                yield (t, numeric, categorical)
                prev = (t, numeric, categorical)


class NaNValues(FaultInjector):
    """Each numeric cell independently becomes NaN with probability ``rate``.

    ``attrs`` restricts the corruption to the named attributes (default:
    every numeric attribute).
    """

    def __init__(self, rate: float, attrs: Optional[Sequence[str]] = None) -> None:
        self.rate = _check_rate(rate)
        self.attrs = None if attrs is None else list(attrs)

    def _params(self):
        return {"rate": self.rate, "attrs": self.attrs}

    def _targets(self, names: Sequence[str]) -> List[str]:
        if self.attrs is None:
            return list(names)
        return [a for a in names if a in self.attrs]

    def apply_table(self, table, rng):
        if self.rate == 0.0 or table.n_rows == 0:
            return table
        for attr in self._targets(list(table.numeric)):
            mask = rng.random(table.n_rows) < self.rate
            if mask.any():
                values = table.numeric[attr]
                values[mask] = np.nan
        return table

    def wrap_stream(self, ticks, rng):
        if self.rate == 0.0:
            yield from ticks
            return
        for t, numeric, categorical in ticks:
            targets = self._targets(list(numeric))
            hit = rng.random(len(targets)) < self.rate
            if hit.any():
                numeric = dict(numeric)
                for attr, corrupt in zip(targets, hit):
                    if corrupt:
                        numeric[attr] = float("nan")
            yield (t, numeric, categorical)


class StuckAtCounter(FaultInjector):
    """One numeric attribute freezes at its current value from a random
    onset tick onward — the stuck-at counter / dead sensor failure mode.

    ``attr`` pins the victim (default: drawn from the numeric attributes);
    ``onset`` pins the first frozen tick (default: drawn from
    ``onset_range``).
    """

    def __init__(
        self,
        attr: Optional[str] = None,
        onset: Optional[int] = None,
        onset_range: Tuple[int, int] = (20, 90),
    ) -> None:
        self.attr = attr
        self.onset = None if onset is None else int(onset)
        self.onset_range = (int(onset_range[0]), int(onset_range[1]))
        if self.onset_range[0] >= self.onset_range[1]:
            raise ValueError("onset_range must be a non-empty interval")

    def _params(self):
        return {"attr": self.attr, "onset": self.onset}

    def _choose(
        self, names: Sequence[str], rng: np.random.Generator
    ) -> Tuple[Optional[str], int]:
        # draw order (attr, then onset) is identical on both paths
        if self.attr is not None:
            attr = self.attr if self.attr in names else None
        else:
            attr = str(rng.choice(sorted(names))) if names else None
        onset = (
            self.onset
            if self.onset is not None
            else int(rng.integers(self.onset_range[0], self.onset_range[1]))
        )
        return attr, onset

    def apply_table(self, table, rng):
        attr, onset = self._choose(list(table.numeric), rng)
        if attr is None or table.n_rows == 0:
            return table
        onset = min(max(onset, 0), table.n_rows - 1)
        values = table.numeric[attr]
        values[onset:] = values[onset]
        return table

    def wrap_stream(self, ticks, rng):
        chosen: Optional[Tuple[Optional[str], int]] = None
        count = 0
        frozen: Optional[float] = None
        for t, numeric, categorical in ticks:
            if chosen is None:
                chosen = self._choose(list(numeric), rng)
            attr, onset = chosen
            if attr is not None and attr in numeric and count >= onset:
                if frozen is None:
                    frozen = float(numeric[attr])
                numeric = dict(numeric)
                numeric[attr] = frozen
            count += 1
            yield (t, numeric, categorical)


class SpikeCorruption(FaultInjector):
    """Each numeric cell is independently blown up with probability
    ``rate``: ``v → v + magnitude · (|v| + 1)`` — a transient wild value
    from a glitching probe, large even for zero-valued counters.
    """

    def __init__(self, rate: float, magnitude: float = 25.0) -> None:
        self.rate = _check_rate(rate)
        self.magnitude = float(magnitude)

    def _params(self):
        return {"rate": self.rate, "magnitude": self.magnitude}

    def _spike(self, values: np.ndarray) -> np.ndarray:
        return values + self.magnitude * (np.abs(values) + 1.0)

    def apply_table(self, table, rng):
        if self.rate == 0.0 or self.magnitude == 0.0 or table.n_rows == 0:
            return table
        for attr in list(table.numeric):
            mask = rng.random(table.n_rows) < self.rate
            if mask.any():
                values = table.numeric[attr]
                values[mask] = self._spike(values[mask])
        return table

    def wrap_stream(self, ticks, rng):
        if self.rate == 0.0 or self.magnitude == 0.0:
            yield from ticks
            return
        for t, numeric, categorical in ticks:
            names = list(numeric)
            hit = rng.random(len(names)) < self.rate
            if hit.any():
                numeric = dict(numeric)
                for attr, corrupt in zip(names, hit):
                    if corrupt:
                        v = float(numeric[attr])
                        numeric[attr] = float(
                            v + self.magnitude * (abs(v) + 1.0)
                        )
            yield (t, numeric, categorical)


class ClockSkew(FaultInjector):
    """Monotone clock distortion: ``t → offset + (1 + drift) · t``.

    Keeps timestamps strictly increasing for ``drift > -1``, so the
    result is still a valid dataset; region specs must be mapped through
    :meth:`~repro.faults.plan.FaultPlan.transform_spec` to stay aligned.
    """

    def __init__(self, offset_s: float = 0.0, drift: float = 0.0) -> None:
        if drift <= -1.0:
            raise ValueError("drift must exceed -1 (time must keep moving)")
        self.offset_s = float(offset_s)
        self.drift = float(drift)

    def _params(self):
        return {"offset_s": self.offset_s, "drift": self.drift}

    def transform_time(self, t: float) -> float:
        return self.offset_s + (1.0 + self.drift) * t

    def apply_table(self, table, rng):
        if self.offset_s == 0.0 and self.drift == 0.0:
            return table
        table.timestamps = self.offset_s + (1.0 + self.drift) * table.timestamps
        return table

    def wrap_stream(self, ticks, rng):
        if self.offset_s == 0.0 and self.drift == 0.0:
            yield from ticks
            return
        for t, numeric, categorical in ticks:
            yield (self.transform_time(t), numeric, categorical)


class SchemaDrift(FaultInjector):
    """Collector upgrade mid-fleet: some attributes are renamed, some
    vanish, and some junk columns appear.

    ``rename_rate`` / ``drop_rate`` are per-attribute probabilities over
    the numeric attributes (decided once per application, in sorted
    attribute order, so the drift is deterministic); ``add_junk`` new
    noise columns are appended.
    """

    def __init__(
        self,
        rename_rate: float = 0.0,
        drop_rate: float = 0.0,
        add_junk: int = 0,
        prefix: str = "v2.",
    ) -> None:
        self.rename_rate = _check_rate(rename_rate, "rename_rate")
        self.drop_rate = _check_rate(drop_rate, "drop_rate")
        self.add_junk = int(add_junk)
        if self.add_junk < 0:
            raise ValueError("add_junk must be non-negative")
        self.prefix = prefix

    def _params(self):
        return {
            "rename_rate": self.rename_rate,
            "drop_rate": self.drop_rate,
            "add_junk": self.add_junk,
        }

    def _plan_drift(
        self, names: Sequence[str], rng: np.random.Generator
    ) -> Tuple[Dict[str, str], set]:
        ordered = sorted(names)
        drops = set()
        renames: Dict[str, str] = {}
        if ordered:
            u_drop = rng.random(len(ordered))
            u_rename = rng.random(len(ordered))
            for i, attr in enumerate(ordered):
                if u_drop[i] < self.drop_rate:
                    drops.add(attr)
                elif u_rename[i] < self.rename_rate:
                    renames[attr] = self.prefix + attr
        return renames, drops

    def apply_table(self, table, rng):
        if (
            self.rename_rate == 0.0
            and self.drop_rate == 0.0
            and self.add_junk == 0
        ):
            return table
        renames, drops = self._plan_drift(list(table.numeric), rng)
        table.numeric = {
            renames.get(attr, attr): values
            for attr, values in table.numeric.items()
            if attr not in drops
        }
        for j in range(self.add_junk):
            table.numeric[f"junk_{j}"] = rng.normal(size=table.n_rows)
        return table

    def wrap_stream(self, ticks, rng):
        if (
            self.rename_rate == 0.0
            and self.drop_rate == 0.0
            and self.add_junk == 0
        ):
            yield from ticks
            return
        plan: Optional[Tuple[Dict[str, str], set]] = None
        for t, numeric, categorical in ticks:
            if plan is None:
                plan = self._plan_drift(list(numeric), rng)
            renames, drops = plan
            row = {
                renames.get(attr, attr): value
                for attr, value in numeric.items()
                if attr not in drops
            }
            for j in range(self.add_junk):
                row[f"junk_{j}"] = float(rng.normal())
            yield (t, row, categorical)


class CollectorCrash(FaultInjector):
    """The collector process dies.

    Streaming: :class:`CollectorFault` is raised after ``at_tick`` ticks
    have been delivered (drawn from ``tick_range`` when unset) — the
    signal :class:`~repro.stream.supervisor.StreamSupervisor` recovers
    from.  Offline: the crash appears as ``down_s`` missing rows starting
    at the crash tick (the collector was down, nothing was recorded).
    """

    def __init__(
        self,
        at_tick: Optional[int] = None,
        down_s: int = 5,
        tick_range: Tuple[int, int] = (20, 80),
    ) -> None:
        self.at_tick = None if at_tick is None else int(at_tick)
        self.down_s = int(down_s)
        if self.down_s < 0:
            raise ValueError("down_s must be non-negative")
        self.tick_range = (int(tick_range[0]), int(tick_range[1]))
        if self.tick_range[0] >= self.tick_range[1]:
            raise ValueError("tick_range must be a non-empty interval")

    def _params(self):
        return {"at_tick": self.at_tick, "down_s": self.down_s}

    def _crash_tick(self, rng: np.random.Generator) -> int:
        if self.at_tick is not None:
            return self.at_tick
        return int(rng.integers(self.tick_range[0], self.tick_range[1]))

    def apply_table(self, table, rng):
        if self.down_s == 0 or table.n_rows == 0:
            return table
        at = min(self._crash_tick(rng), table.n_rows)
        keep = np.ones(table.n_rows, dtype=bool)
        keep[at : at + self.down_s] = False
        if not keep.any():
            keep[0] = True
        return table.take(np.flatnonzero(keep))

    def wrap_stream(self, ticks, rng):
        at = self._crash_tick(rng)
        delivered = 0
        for tick in ticks:
            if delivered >= at:
                raise CollectorFault(
                    f"collector crashed after {delivered} ticks"
                )
            delivered += 1
            yield tick


# ----------------------------------------------------------------------
# Fleet in-process faults
# ----------------------------------------------------------------------
# Unlike the telemetry injectors above, these target the *fleet runtime*
# rather than the data: a detection lane that raises, a tenant whose
# diagnoses hang the worker pool, a tenant whose durable state rots on
# disk.  They are not FaultInjector subclasses — there is no table or
# tick stream to transform — but they follow the same contract:
# deterministic, parameterized, no-op when given no targets.


class LaneExceptionFault:
    """A detection lane that raises mid-fallout for targeted streams.

    Install via
    :meth:`~repro.fleet.engine.FleetDetector.install_lane_fault`; the
    engine calls the hook at the start of each faulted lane's fallout
    processing, so raising here exercises the bulkhead exactly like an
    exception inside the clustering kernels.  ``after_fallouts`` delays
    the fault until the lane has fallen out that many times (0 = first
    fallout raises), so a lane can produce good verdicts before going
    bad.  Deactivate with :attr:`active` to simulate an operator fixing
    the lane before :meth:`~repro.fleet.scheduler.FleetScheduler.readmit`.
    """

    def __init__(
        self,
        streams: Sequence[int],
        after_fallouts: int = 0,
        message: str = "injected lane fault",
    ) -> None:
        self.streams = {int(s) for s in streams}
        self.after_fallouts = int(after_fallouts)
        if self.after_fallouts < 0:
            raise ValueError("after_fallouts must be non-negative")
        self.message = str(message)
        self.active = True
        self.raised: Dict[int, int] = {}
        self._fallouts: Dict[int, int] = {}

    def __call__(self, stream: int, view: object) -> None:
        s = int(stream)
        if not self.active or s not in self.streams:
            return
        seen = self._fallouts.get(s, 0)
        self._fallouts[s] = seen + 1
        if seen < self.after_fallouts:
            return
        self.raised[s] = self.raised.get(s, 0) + 1
        raise RuntimeError(f"{self.message} (stream {s})")

    def __repr__(self) -> str:
        return (
            f"LaneExceptionFault(streams={sorted(self.streams)}, "
            f"after_fallouts={self.after_fallouts})"
        )


class DiagnosisHang:
    """A sherlock proxy whose explains hang for targeted tenants.

    Wraps the shared ``DBSherlock`` facade handed to a
    :class:`~repro.fleet.scheduler.FleetScheduler`; every attribute
    passes through to the wrapped object (so the degraded-ranking path
    still reaches ``store`` / ``config`` / ``cache``), but ``explain``
    and ``explain_batch`` sleep ``hang_s`` seconds first when any job's
    dataset belongs to a targeted tenant (the scheduler names window
    snapshots ``fleet:<tenant>``).  That is the deadline tiers' threat
    model: a worker thread pinned by one hostile tenant.  Clear
    :attr:`active` to let the tenant recover (breaker probe succeeds).
    """

    def __init__(self, tenants: Sequence[str], hang_s: float = 0.5) -> None:
        self._targets = {f"fleet:{t}" for t in tenants}
        self.hang_s = float(hang_s)
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")
        self.active = True
        self.hangs = 0

    def wrap(self, sherlock: object) -> object:
        """Return the hanging proxy around *sherlock*."""
        return _DiagnosisHangProxy(sherlock, self)

    def _maybe_hang(self, dataset: object) -> None:
        if not self.active or self.hang_s == 0.0:
            return
        if getattr(dataset, "name", None) in self._targets:
            self.hangs += 1
            _time.sleep(self.hang_s)

    def __repr__(self) -> str:
        return (
            f"DiagnosisHang(tenants={sorted(self._targets)}, "
            f"hang_s={self.hang_s})"
        )


class _DiagnosisHangProxy:
    """Pass-through sherlock wrapper; see :class:`DiagnosisHang`."""

    def __init__(self, inner: object, fault: DiagnosisHang) -> None:
        self._inner = inner
        self._fault = fault

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)

    def explain(self, dataset, spec=None, **kwargs):
        self._fault._maybe_hang(dataset)
        return self._inner.explain(dataset, spec, **kwargs)

    def explain_batch(self, jobs, **kwargs):
        for dataset, _spec in jobs:
            self._fault._maybe_hang(dataset)
        inner_batch = getattr(self._inner, "explain_batch", None)
        if inner_batch is not None:
            return inner_batch(jobs, **kwargs)
        return [self._inner.explain(ds, spec) for ds, spec in jobs]


class CorruptTenantState(FaultInjector):
    """Rot a tenant's durable state on disk.

    ``mode`` picks the failure: ``"checkpoint"`` overwrites *every*
    checkpoint generation with non-JSON garbage (the checkpoint store
    keeps ``checkpoint.json`` plus a ``.1`` fallback, so a truly lost
    tenant needs both rotted); ``"generation"`` rots only the newest
    generation, exercising the verified fallback to the previous one;
    ``"wal"`` appends a torn half-record to the active WAL segment (the
    replay path is torn-tail tolerant, so this alone is survivable —
    pair it with ``"checkpoint"`` for a truly lost tenant); and
    ``"missing"`` deletes the tenant directory outright.
    ``apply(root_dir)`` is the whole interface: call it between fleet
    shutdown and :meth:`~repro.fleet.scheduler.FleetScheduler.recover`.
    """

    MODES = ("checkpoint", "generation", "wal", "missing")

    def __init__(self, tenants: Sequence[str], mode: str = "checkpoint") -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.tenants = list(tenants)
        self.mode = mode

    def _params(self):
        return {"tenants": self.tenants, "mode": self.mode}

    @staticmethod
    def _active_wal_segment(tenant_dir: Path) -> Path:
        from repro.fleet.recovery import WAL_NAME  # lazy: import cycle

        wal_path = tenant_dir / WAL_NAME
        if wal_path.is_dir():
            segments = sorted(wal_path.glob("seg-*.wal"))
            if segments:
                return segments[-1]
            return wal_path / "seg-00000000.wal"
        return wal_path  # legacy single-file log

    def apply(self, root_dir: Union[str, Path]) -> List[str]:
        """Corrupt each tenant's state under *root_dir*; returns hits."""
        import shutil

        from repro.fleet.recovery import CHECKPOINT_NAME  # lazy: import cycle

        root = Path(root_dir)
        garbage = '{"version": 1, "detector": {"version'
        corrupted: List[str] = []
        for tenant in self.tenants:
            tenant_dir = root / tenant
            if not tenant_dir.exists():
                continue
            if self.mode == "missing":
                shutil.rmtree(tenant_dir)
            elif self.mode == "checkpoint":
                (tenant_dir / CHECKPOINT_NAME).write_text(garbage)
                fallback = tenant_dir / f"{CHECKPOINT_NAME}.1"
                if fallback.exists():
                    fallback.write_text(garbage)
            elif self.mode == "generation":
                (tenant_dir / CHECKPOINT_NAME).write_text(garbage)
            else:  # wal: torn trailing record in the active segment
                with self._active_wal_segment(tenant_dir).open("a") as handle:
                    handle.write('{"t": 99999.0, "numeric": {"m0"')
            corrupted.append(tenant)
        return corrupted
