"""Crash supervision for the streaming detector.

Real collectors die: the agent process gets OOM-killed, the DBMS drops
the stats connection, the network partitions.  :class:`StreamSupervisor`
wraps a :class:`~repro.stream.detector.StreamingDetector` and a
restartable tick source, and turns collector faults into bounded
downtime instead of a lost diagnosis session:

* every ``checkpoint_every`` ticks the detector state is checkpointed
  (:meth:`StreamingDetector.checkpoint` — JSON-able, replay-exact);
* on a fault the supervisor sleeps an exponentially-backed-off delay,
  asks the source factory for a fresh stream, restores the detector from
  the last checkpoint, and skips ticks already processed before the
  checkpoint — ticks between checkpoint and crash are re-processed,
  which is safe because restore is bit-exact and closed regions are
  de-duplicated by their end timestamp;
* the backoff delay resets once a restarted source makes progress, so a
  flapping collector is retried quickly while a hard-down one backs off
  to ``max_backoff_s``;
* with a ``wal_dir``, every tick is logged *before* the detector sees
  it (:mod:`repro.stream.wal`) and each checkpoint is persisted
  atomically, retiring log segments older than the *previous* checkpoint
  mark; a fault or a process restart restores the last durable
  checkpoint and replays the logged ticks after it
  (:mod:`repro.fleet.recovery`), so **zero ticks are re-processed** and
  the detector ends bitwise-identical to an uninterrupted run.  With no
  checkpoint yet the whole log is replayed; a checkpoint that fails
  verification in every generation raises.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.data.regions import Region
from repro.faults.injectors import CollectorFault, Tick
from repro.fleet import recovery
from repro.obs import metrics, trace
from repro.stream.detector import StreamingDetector
from repro.stream.wal import CheckpointStore, TickWAL

__all__ = ["StreamSupervisor", "SupervisorReport"]

_SUP_TICKS = metrics.REGISTRY.counter(
    "repro_supervisor_ticks_total",
    "Ticks handed to the supervised detector (incl. re-processed)",
)
_SUP_RESTARTS = metrics.REGISTRY.counter(
    "repro_supervisor_restarts_total", "Collector faults survived"
)
_SUP_CHECKPOINTS = metrics.REGISTRY.counter(
    "repro_supervisor_checkpoints_total", "Detector checkpoints taken"
)
_SUP_WAL_REPLAYED = metrics.REGISTRY.counter(
    "repro_supervisor_wal_replayed_ticks_total",
    "Ticks recovered from the write-ahead log",
)
_SUP_REPROCESSED = metrics.REGISTRY.counter(
    "repro_supervisor_reprocessed_ticks_total",
    "Source ticks handed to the detector more than once",
)
_SUP_BACKOFF_RESETS = metrics.REGISTRY.counter(
    "repro_supervisor_backoff_resets_total",
    "Backoff delays reset because a restarted source made progress",
)
_SUP_CHECKPOINT_SECONDS = metrics.REGISTRY.histogram(
    "repro_supervisor_checkpoint_seconds",
    "Wall time of one checkpoint (serialize + durable save)",
)


@dataclass
class SupervisorReport:
    """What one :meth:`StreamSupervisor.run` accomplished.

    The scalar fields are sourced from the process-wide metrics registry
    (:mod:`repro.obs.metrics`): :meth:`StreamSupervisor.run` snapshots
    the supervisor counters when it starts and reports the deltas, so
    the report and any scrape of the registry can never disagree.
    """

    #: ticks handed to the detector, including any re-processed after a
    #: checkpoint restore.
    ticks_processed: int = 0
    #: collector faults survived (each one restart).
    restarts: int = 0
    #: closed abnormal regions, de-duplicated across restarts.
    closed_regions: List[Region] = field(default_factory=list)
    #: backoff delays slept, in order.
    backoff_waits: List[float] = field(default_factory=list)
    #: checkpoints taken.
    checkpoints: int = 0
    #: ticks recovered from the write-ahead log (0 without ``wal_dir``).
    wal_replayed_ticks: int = 0
    #: source ticks handed to the detector more than once (recovery by
    #: re-pulling; always 0 with ``wal_dir``, where the WAL replays them
    #: instead).
    reprocessed_ticks: int = 0
    #: backoff delays snapped back to ``backoff_s`` because a restarted
    #: source made progress before faulting again.
    backoff_resets: int = 0

    def asdict(self) -> Dict[str, object]:
        """The report as a plain dict (dict-era call sites and tests)."""
        return dataclasses.asdict(self)


#: The registry counters each scalar report field is the delta of.
_REPORT_COUNTERS = {
    "ticks_processed": _SUP_TICKS,
    "restarts": _SUP_RESTARTS,
    "checkpoints": _SUP_CHECKPOINTS,
    "wal_replayed_ticks": _SUP_WAL_REPLAYED,
    "reprocessed_ticks": _SUP_REPROCESSED,
    "backoff_resets": _SUP_BACKOFF_RESETS,
}


class StreamSupervisor:
    """Run a detector over a restartable tick source with crash recovery.

    Parameters
    ----------
    detector:
        The streaming detector to supervise.
    source_factory:
        ``source_factory(attempt)`` returns a fresh iterable of
        ``(time, numeric_row, categorical_row)`` ticks from the beginning
        of the stream; ``attempt`` is 0 for the first run and increments
        on every restart (tests use it to stop injecting faults).
    max_retries:
        Faults beyond this many restarts re-raise to the caller.
    backoff_s / backoff_factor / max_backoff_s:
        Exponential backoff schedule; the delay resets to ``backoff_s``
        whenever a restarted source makes progress before faulting again.
    checkpoint_every:
        Ticks between detector checkpoints (0 disables periodic
        checkpoints; recovery then restarts from the beginning).
    sleep:
        Injectable sleep function (tests pass ``lambda s: None``).
    fault_types:
        Exception types treated as recoverable collector faults.
    wal_dir:
        Directory for durable recovery state (``ticks.wal`` +
        ``checkpoint.json``).  When set, every tick is write-ahead
        logged, checkpoints persist atomically, and recovery — from a
        fault or a fresh process — replays the log instead of
        re-pulling ticks from the source.  ``None`` (default) keeps the
        original in-memory checkpointing.
    fsync_every:
        WAL appends per fsync (see :class:`~repro.stream.wal.TickWAL`).
    """

    def __init__(
        self,
        detector: StreamingDetector,
        source_factory: Callable[[int], Iterable[Tick]],
        max_retries: int = 5,
        backoff_s: float = 0.1,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 30.0,
        checkpoint_every: int = 10,
        sleep: Optional[Callable[[float], None]] = None,
        fault_types: Tuple[type, ...] = (CollectorFault,),
        wal_dir: Optional[Union[str, Path]] = None,
        fsync_every: int = 8,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_s <= 0 or backoff_factor < 1.0 or max_backoff_s <= 0:
            raise ValueError("backoff schedule must be positive")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.detector = detector
        self.source_factory = source_factory
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff_s = float(max_backoff_s)
        self.checkpoint_every = int(checkpoint_every)
        self._sleep = sleep if sleep is not None else _time.sleep
        self.fault_types = tuple(fault_types)
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None
        self.fsync_every = int(fsync_every)

    def run(self) -> SupervisorReport:
        """Drive the detector until the source is exhausted.

        Returns the report; ``self.detector`` afterwards is the detector
        instance that finished the stream (it is replaced on restore).
        With ``wal_dir``, a previous process's durable checkpoint and
        write-ahead log are recovered first, so a restarted supervisor
        continues exactly where the dead one stopped; a checkpoint that
        verifies in no generation raises ``FileNotFoundError``.
        """
        marks = {
            name: counter.value for name, counter in _REPORT_COUNTERS.items()
        }
        closed_regions: List[Region] = []
        backoff_waits: List[float] = []
        detector = self.detector
        processed_until: Optional[float] = None
        seen_ends: set = set()
        span = trace.span("supervisor.run", wal=self.wal_dir is not None)

        def collect(update) -> None:
            for region in update.closed_regions:
                if region.end not in seen_ends:
                    seen_ends.add(region.end)
                    closed_regions.append(region)

        wal: Optional[TickWAL] = None
        ckpt_store: Optional[CheckpointStore] = None
        tail: List[Tick] = []  # logged ticks to replay before the source
        with span:
            if self.wal_dir is not None:
                ckpt_store = CheckpointStore(
                    self.wal_dir / recovery.CHECKPOINT_NAME
                )
                wal = TickWAL(
                    self.wal_dir / recovery.WAL_NAME,
                    fsync_every=self.fsync_every,
                )
                loaded = recovery.load_tenant(self.wal_dir, wal=wal)
                if loaded.outcome.status == "corrupt":
                    wal.close()
                    raise FileNotFoundError(
                        f"no recoverable checkpoint under {self.wal_dir}: "
                        f"{loaded.outcome.detail}"
                    )
                processed_until, tail = loaded.processed_until, loaded.tail
                if loaded.state is not None:
                    detector = StreamingDetector.from_checkpoint(loaded.state)
                else:  # nothing is retired before the first checkpoint
                    tail = recovery.read_tail(wal, None)[0]

            # the recovery baseline, (state, processed-up-to time), is
            # taken once the start-up tail is replayed
            checkpoint = None
            delay = self.backoff_s
            attempt = 0
            restarts = 0
            ticks_processed = 0  # this run's source ticks (checkpoint cadence)
            try:
                while True:
                    for time, numeric_row, categorical_row in tail:
                        collect(
                            detector.tick(time, numeric_row, categorical_row)
                        )
                        _SUP_WAL_REPLAYED.inc()
                        processed_until = float(time)
                    if checkpoint is None:
                        checkpoint = (detector.checkpoint(), processed_until)
                        high_water = processed_until
                    progressed = False
                    try:
                        for tick in self.source_factory(attempt):
                            time, numeric_row, categorical_row = tick
                            if (
                                processed_until is not None
                                and time <= processed_until
                            ):
                                continue
                            if wal is not None:
                                # write-ahead: the tick is durable before the
                                # detector ever sees it
                                wal.append(time, numeric_row, categorical_row)
                            update = detector.tick(
                                time, numeric_row, categorical_row
                            )
                            if high_water is not None and time <= high_water:
                                _SUP_REPROCESSED.inc()
                            else:
                                high_water = float(time)
                            processed_until = float(time)
                            progressed = True
                            ticks_processed += 1
                            _SUP_TICKS.inc()
                            collect(update)
                            if (
                                self.checkpoint_every
                                and ticks_processed % self.checkpoint_every
                                == 0
                            ):
                                t0 = _time.perf_counter()
                                state = detector.checkpoint()
                                checkpoint = (state, processed_until)
                                if ckpt_store is not None and wal is not None:
                                    ckpt_store.save(
                                        recovery.envelope(
                                            state, processed_until
                                        )
                                    )
                                    # retains segments back to the
                                    # previous checkpoint generation
                                    wal.mark_checkpoint()
                                _SUP_CHECKPOINT_SECONDS.observe(
                                    _time.perf_counter() - t0
                                )
                                _SUP_CHECKPOINTS.inc()
                        break  # source exhausted: done
                    except self.fault_types:
                        restarts += 1
                        _SUP_RESTARTS.inc()
                        if restarts > self.max_retries:
                            self.detector = detector
                            raise
                        if progressed and delay != self.backoff_s:
                            _SUP_BACKOFF_RESETS.inc()
                        if progressed:
                            delay = self.backoff_s
                        backoff_waits.append(delay)
                        self._sleep(delay)
                        delay = min(
                            delay * self.backoff_factor, self.max_backoff_s
                        )
                        attempt += 1
                        detector = StreamingDetector.from_checkpoint(
                            checkpoint[0]
                        )
                        processed_until = checkpoint[1]
                        if wal is not None:
                            # recover the post-checkpoint ticks from the log
                            # instead of re-pulling them from the source
                            tail = recovery.read_tail(wal, processed_until)[0]
            finally:
                if wal is not None:
                    wal.close()
            self.detector = detector
            report = SupervisorReport(
                closed_regions=closed_regions,
                backoff_waits=backoff_waits,
                **{
                    name: int(counter.value - marks[name])
                    for name, counter in _REPORT_COUNTERS.items()
                },
            )
            span.set(
                ticks=report.ticks_processed,
                restarts=report.restarts,
                closed_regions=len(report.closed_regions),
            )
        return report
