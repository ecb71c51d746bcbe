"""Durable recovery: the checkpoint envelope, tenant loading, lockstep replay.

A durable tenant's directory holds ``checkpoint.json`` (a
:class:`~repro.stream.wal.CheckpointStore`) whose payload is the
:func:`envelope` ``{"version", "detector", "processed_until"}``, and
``ticks.wal`` (a :class:`~repro.stream.wal.TickWAL`).  The fleet
scheduler and the single-stream supervisor both write and load it here.
Recovery restores the detector from the envelope and feeds back the WAL
rows after ``processed_until``; restore is bit-exact and a tick is
deterministic, so the result equals a run that never crashed.
:func:`replay_lockstep` does it for a whole fleet in rounds — round *k*
is one engine tick of every lane whose tail has a *k*-th row — so it
costs max(tail length) ticks, not one whole-fleet tick per tenant row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.regions import Region
from repro.fleet.engine import FleetDetector
from repro.stream.wal import CheckpointStore, RawTick, TickWAL

__all__ = [
    "RecoveryReport",
    "TenantLoad",
    "TenantRecovery",
    "envelope",
    "load_tenant",
    "read_tail",
    "replay_lockstep",
]

CHECKPOINT_NAME = "checkpoint.json"
WAL_NAME = "ticks.wal"


def envelope(state: Dict[str, object], until: Optional[float]) -> Dict:
    """The checkpoint payload: a detector state and the time of the
    last tick it has seen (``None`` before the first)."""
    return {"version": 1, "detector": state, "processed_until": until}


@dataclass
class TenantRecovery:
    """One tenant's outcome inside a :class:`RecoveryReport`."""

    tenant: str
    #: ``recovered`` | ``missing`` | ``corrupt`` | ``replay_failed``
    status: str
    replayed_ticks: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class RecoveryReport:
    """Per-tenant outcome of a partial fleet recovery."""

    outcomes: List[TenantRecovery] = field(default_factory=list)

    def _named(self, status: str) -> List[str]:
        return [o.tenant for o in self.outcomes if o.status == status]

    @property
    def recovered(self) -> List[str]:
        return self._named("recovered")

    @property
    def missing(self) -> List[str]:
        return self._named("missing")

    @property
    def corrupt(self) -> List[str]:
        return self._named("corrupt")

    @property
    def failed(self) -> List[str]:
        return self._named("replay_failed")

    def outcome(self, tenant: str) -> Optional[TenantRecovery]:
        for o in self.outcomes:
            if o.tenant == tenant:
                return o
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "recovered": self.recovered,
            "missing": self.missing,
            "corrupt": self.corrupt,
            "replay_failed": self.failed,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


@dataclass
class TenantLoad:
    """One tenant's durable state, loaded but not yet replayed."""

    #: ``recovered`` when the checkpoint loaded, else ``missing`` /
    #: ``corrupt`` and why; replay fills in ``replayed_ticks``.
    outcome: TenantRecovery
    #: the detector checkpoint; ``None`` unless it loaded.
    state: Optional[Dict[str, object]] = None
    processed_until: Optional[float] = None
    #: verified WAL rows after ``processed_until``, oldest first.
    tail: List[RawTick] = field(default_factory=list)
    #: CRC-skipped WAL records, if any (``""`` when none).
    wal_note: str = ""


def read_tail(
    wal: TickWAL, until: Optional[float]
) -> Tuple[List[RawTick], str]:
    """The WAL rows after *until* (all when ``None``) and a note of the
    records replay skipped as corrupt (``""`` when none)."""
    ticks, report = wal.replay_report()
    if until is not None:  # the live skip's test, so a NaN time is kept
        ticks = [tick for tick in ticks if not tick[0] <= until]
    if not report.corrupt_records:
        return ticks, ""
    return ticks, (
        f"wal corruption: {report.corrupt_records} records / "
        f"{report.corrupt_segments} segments skipped"
    )


def load_tenant(
    directory: Union[str, Path],
    tenant: str = "",
    wal: Optional[TickWAL] = None,
) -> TenantLoad:
    """Load *directory*'s checkpoint envelope and the WAL tail after it.

    ``missing`` when ``checkpoint.json`` does not exist; ``corrupt``
    when no generation verifies, the envelope is malformed or the WAL
    cannot be read.  *wal* is the directory's open log (left open);
    without one a log is opened and closed here.
    """
    def skipped(status: str, detail: str) -> TenantLoad:
        return TenantLoad(TenantRecovery(tenant, status, detail=detail))

    ckpt_path = Path(directory) / CHECKPOINT_NAME
    stored = CheckpointStore(ckpt_path).load()
    if stored is None:
        # load() returns None for both absent and unreadable payloads;
        # the path tells them apart
        status = "corrupt" if ckpt_path.exists() else "missing"
        return skipped(status, f"checkpoint {status} at {ckpt_path}")
    state = stored.get("detector") if isinstance(stored, dict) else None
    if not isinstance(state, dict) or (
        state.get("version") != FleetDetector.CHECKPOINT_VERSION
    ):
        return skipped("corrupt", "malformed checkpoint payload")
    until = stored.get("processed_until")
    until = None if until is None else float(until)
    log = wal if wal is not None else TickWAL(Path(directory) / WAL_NAME)
    try:
        tail, note = read_tail(log, until)
    except Exception as exc:
        return skipped("corrupt", f"WAL replay failed: {exc}")
    finally:
        if wal is None:
            log.close()
    outcome = TenantRecovery(tenant, "recovered", detail=note)
    return TenantLoad(outcome, state, until, tail, note)


def replay_lockstep(
    detector: FleetDetector,
    loads: Sequence[TenantLoad],
    on_closed: Callable[[int, Region], None],
) -> RecoveryReport:
    """Replay lane *s*'s ``loads[s].tail`` through *detector*, all
    lanes in lockstep rounds.

    Each round's closed regions go to ``on_closed(stream, region)`` in
    stream order, as in a live round.  A lane the engine poisons
    (``tick.lane_errors``), or whose row's cells fail conversion, stops
    there, frozen at its last-good state, and is ``replay_failed`` with
    the rows fed before the fault.
    """
    S = detector.n_streams
    col = {a: j for j, a in enumerate(detector.attributes)}

    def fail(s: int, fed: int, error: str) -> None:
        outcome = loads[s].outcome
        outcome.status, outcome.replayed_ticks = "replay_failed", fed
        outcome.detail = error

    for load in loads:
        load.outcome.replayed_ticks = len(load.tail)
    for k in range(max((len(load.tail) for load in loads), default=0)):
        times = np.zeros(S)
        values = np.zeros((S, len(col)))
        active = np.zeros(S, dtype=bool)
        for s, load in enumerate(loads):
            if k >= len(load.tail) or load.outcome.status != "recovered":
                continue
            time, numeric_row, _categorical = load.tail[k]
            try:
                times[s] = time
                for a, v in numeric_row.items():
                    if a in col:
                        values[s, col[a]] = v
            except Exception as exc:
                detector.poison(s, reason=f"replay failed: {exc}")
                fail(s, k, str(exc))
            else:
                active[s] = True
        if active.any():
            tick = detector.tick(times, values, active)
            for s, error in tick.lane_errors.items():
                fail(int(s), k, error)
            for s, regions in tick.closed.items():
                for region in regions:
                    on_closed(int(s), region)
    return RecoveryReport(outcomes=[load.outcome for load in loads])
