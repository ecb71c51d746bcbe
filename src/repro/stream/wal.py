"""Segmented, checksummed write-ahead tick log + generational checkpoints.

The in-memory checkpoints of :class:`~repro.stream.supervisor.StreamSupervisor`
bound *detector-state* loss, but ticks that arrived between the last
checkpoint and a crash must be re-pulled from the source — acceptable for
a replayable source, wrong for a live collector whose ticks are gone the
moment they are consumed.  This module closes that gap with the classic
database recipe, hardened for a hostile filesystem:

* :class:`TickWAL` — an append-only log of raw ticks, split into
  fixed-size **segments** (``seg-%08d.wal`` files under a directory).
  Each record carries a CRC32 of its JSON payload
  (``"%08x %s\\n" % (crc32(payload), payload)``), so replay *verifies*
  every record and skips corrupt ones with a report instead of dying —
  a rotted middle record no longer silences everything after it.  Ticks
  are appended *before* they are handed to the detector (write-ahead),
  with fsyncs batched every ``fsync_every`` appends; a crash can lose at
  most the ``fsync_every - 1`` most recent *un-fsynced* appends (the
  acknowledged-durability window documented in docs/ROBUSTNESS.md).
  Segment rotation gives retention a unit: :meth:`mark_checkpoint`
  retains segments back to the *previous* checkpoint generation (so a
  checkpoint-generation fallback still finds its ticks), and
  :meth:`compact` bounds a quarantined lane's kept-for-replay bytes by
  dropping whole oldest segments.
* :class:`CheckpointStore` — atomically persisted detector checkpoints
  wrapped in a CRC32 envelope, keeping ``GENERATIONS = 2`` generations
  (``checkpoint.json`` + ``checkpoint.json.1``).  ``load`` verifies the
  checksum and falls back to the previous good generation rather than
  returning garbage.

All I/O routes through the fault-injectable storage shim
(:mod:`repro.faults.fs`); with no faults installed the shim is a direct
passthrough and behavior is bitwise-identical to the unsegmented WAL
this module replaces (asserted by ``bench_storage_chaos.py``).

Recovery — restore the checkpoint, then replay the log tail after it —
lives in :mod:`repro.fleet.recovery`.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.faults import fs as _fs
from repro.obs import metrics

__all__ = [
    "CheckpointStore",
    "TickWAL",
    "WALReplayReport",
]

#: fsync after this many appends by default (batched durability).
DEFAULT_FSYNC_EVERY = 8

#: rotate to a fresh segment once the active one exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 256 * 1024

RawTick = Tuple[float, Dict[str, float], Dict[str, str]]

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.wal$")

_WAL_CORRUPT = metrics.REGISTRY.counter(
    "repro_storage_wal_corrupt_records_total",
    "WAL records skipped during replay because their checksum or shape "
    "failed verification",
)
_CKPT_FALLBACKS = metrics.REGISTRY.counter(
    "repro_storage_checkpoint_fallbacks_total",
    "Checkpoint loads that fell back to the previous generation after "
    "the newest failed integrity checks",
)


def _segment_name(index: int) -> str:
    return f"seg-{index:08d}.wal"


def _segment_index(path: Path) -> Optional[int]:
    match = _SEGMENT_RE.match(path.name)
    return int(match.group(1)) if match else None


@dataclass
class WALReplayReport:
    """What replay found: how much was trusted, how much was rotted."""

    #: complete records that passed verification and were returned.
    records: int = 0
    #: records skipped because CRC or shape verification failed.
    corrupt_records: int = 0
    #: True when the final segment ended in an unterminated line — the
    #: expected signature of a crash mid-append, not corruption.
    torn_tail: bool = False
    #: segment files scanned, oldest first.
    segments: int = 0
    #: segment file names that contained at least one corrupt record.
    corrupt_segments: List[str] = field(default_factory=list)


class TickWAL:
    """Segmented append-only write-ahead log of raw telemetry ticks.

    Parameters
    ----------
    path:
        Log *directory* location; created (with parents) when absent.  A
        pre-segmentation single-file log at this path is migrated in
        place: the file becomes segment 0 and its CRC-less legacy
        records remain replayable.
    fsync_every:
        Number of appends per fsync.  1 makes every tick durable
        immediately; larger values batch the cost and risk losing at
        most ``fsync_every - 1`` trailing ticks on an OS crash (a
        process crash loses nothing — the data is already in the page
        cache).
    segment_bytes:
        Target segment size; an append that would push the active
        segment past it triggers rotation (the finished segment is
        fsynced before close, so every non-active segment is durable).
    fs:
        Storage shim override; defaults to the process-wide shim from
        :func:`repro.faults.fs.get_fs`, resolved per operation so
        ``scoped_fs`` applies.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fs: Optional[_fs.StorageShim] = None,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be at least 1")
        self.path = Path(path)
        self.fsync_every = int(fsync_every)
        self.segment_bytes = int(segment_bytes)
        self._fs = fs
        self._pending = 0
        #: ticks appended over this handle's lifetime.
        self.appended = 0
        #: appends known to have reached disk (fsynced) this lifetime.
        self.durable_appended = 0
        #: True when opening found (and truncated away) an unterminated
        #: final line left by a crash mid-append; surfaced as
        #: ``torn_tail`` by :meth:`replay_report`.
        self._sealed_torn_tail = False
        self._migrate_legacy_file()
        self.path.mkdir(parents=True, exist_ok=True)
        existing = self.segments()
        self._seg_index = _segment_index(existing[-1]) if existing else 0
        #: segment indices recorded by :meth:`mark_checkpoint` (≤ 2),
        #: seeded with the oldest on-disk segment so the *first* mark of
        #: this handle's lifetime never deletes anything: after a
        #: restart the surviving previous checkpoint generation may
        #: still need those segments for replay.
        self._marks: List[int] = (
            [_segment_index(existing[0])] if existing else [0]
        )
        self._open_segment()

    # ------------------------------------------------------------------
    @property
    def _fsio(self) -> _fs.StorageShim:
        return self._fs if self._fs is not None else _fs.get_fs()

    def _migrate_legacy_file(self) -> None:
        """Turn a pre-segmentation single-file log into segment 0.

        The two renames are not atomic together: a crash between them
        parks the entire pre-migration log at ``<name>.legacy-migrate``.
        Startup therefore also adopts such an orphan, completing the
        interrupted migration instead of silently abandoning it.
        """
        legacy = self.path.with_name(self.path.name + ".legacy-migrate")
        if self.path.is_file():
            self.path.rename(legacy)
        if legacy.is_file():
            self.path.mkdir(parents=True, exist_ok=True)
            target = self.path / _segment_name(0)
            if not target.exists():
                legacy.rename(target)

    def _open_segment(self) -> None:
        seg = self.path / _segment_name(self._seg_index)
        self._seal_torn_tail(seg)
        self._fh = open(seg, "a", encoding="utf-8")
        self._seg_written = seg.stat().st_size
        #: bytes of the active segment known to be on disk.
        self._durable_offset = self._seg_written

    def _seal_torn_tail(self, seg: Path) -> None:
        """Truncate an unterminated final line before appending to *seg*.

        A crash mid-append leaves a partial record with no newline.  Its
        tick was never acknowledged (the write did not complete), so the
        bytes carry no durability promise — but appending *after* them
        would merge the torn tail with the next record into one line
        whose CRC fails, silently losing that later, acknowledged tick
        on replay.  Sealing uses the real ``os`` primitives, not the
        fault shim: this is a structural repair of byte offsets, and an
        injected read corruption must not misplace the cut.
        """
        try:
            with open(seg, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when the whole file is torn
        with open(seg, "r+b") as fh:
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        self._sealed_torn_tail = True

    def segments(self) -> List[Path]:
        """All segment files on disk, oldest first."""
        if not self.path.is_dir():
            return []
        segs = [p for p in self.path.iterdir() if _segment_index(p) is not None]
        return sorted(segs, key=lambda p: _segment_index(p))

    def active_segment(self) -> Path:
        """The segment currently receiving appends."""
        return self.path / _segment_name(self._seg_index)

    # ------------------------------------------------------------------
    def append(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Log one raw tick (call *before* processing it).

        Raises ``OSError`` when the storage layer refuses the write or a
        batch-boundary fsync fails.  After a *write* failure, retrying
        the append cannot duplicate the tick — any partial line fails
        its CRC on replay.  After a failure with :attr:`appended`
        advanced, the record itself landed and only the fsync is owed:
        retry :meth:`flush`, not the append (as
        :class:`~repro.stream.durability.TenantDurability` does).
        """
        record = [
            float(time),
            {a: float(v) for a, v in numeric_row.items()},
            {a: str(v) for a, v in (categorical_row or {}).items()},
        ]
        payload = json.dumps(record)
        line = f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"
        if (
            self._seg_written > 0
            and self._seg_written + len(line) > self.segment_bytes
        ):
            self._rotate()
        self._fsio.write(self._fh, line)
        self._seg_written += len(line.encode("utf-8"))
        self.appended += 1
        self._pending += 1
        if self._pending >= self.fsync_every:
            self.flush()

    def flush(self) -> None:
        """Flush buffered appends and fsync the active segment."""
        self._fsio.fsync(self._fh)
        self._pending = 0
        self.durable_appended = self.appended
        self._durable_offset = self._seg_written

    def _rotate(self) -> None:
        """Seal the active segment (durably) and open the next one."""
        self.flush()  # full segments are always durable
        self._fh.close()
        self._seg_index += 1
        self._open_segment()

    # ------------------------------------------------------------------
    def replay(self) -> List[RawTick]:
        """All verified logged ticks, oldest first (see replay_report)."""
        return self.replay_report()[0]

    def replay_report(self) -> Tuple[List[RawTick], WALReplayReport]:
        """Verified ticks plus an account of what had to be skipped.

        Per-record CRCs let replay *continue past* a rotted record —
        corrupt records are counted (and the
        ``repro_storage_wal_corrupt_records_total`` counter bumped),
        never raised.  A torn tail — a final unterminated line in the
        last segment — is the expected signature of a crash mid-append
        and is reported separately from corruption.  Legacy CRC-less
        records (lines starting with ``[``) are parsed unverified.

        Replay needs *visibility*, not durability: buffered appends are
        flushed to the page cache with a plain ``flush()`` so a
        full-disk fault on the fsync path cannot break recovery reads.
        """
        if not self._fh.closed:
            try:
                self._fh.flush()
            except OSError:
                pass
        ticks: List[RawTick] = []
        report = WALReplayReport()
        # a tail sealed (truncated) at open is still a crash signature
        report.torn_tail = self._sealed_torn_tail
        segs = self.segments()
        report.segments = len(segs)
        for seg_pos, seg in enumerate(segs):
            try:
                payload = self._fsio.read_text(seg)
            except OSError:
                report.corrupt_records += 1
                report.corrupt_segments.append(seg.name)
                _WAL_CORRUPT.inc()
                continue
            lines = payload.split("\n")
            tail = lines.pop()  # "" when newline-terminated
            if tail:
                if seg_pos == len(segs) - 1:
                    report.torn_tail = True
                else:
                    report.corrupt_records += 1
                    _WAL_CORRUPT.inc()
                    if seg.name not in report.corrupt_segments:
                        report.corrupt_segments.append(seg.name)
            for line in lines:
                if not line:
                    continue
                tick = self._parse_record(line)
                if tick is None:
                    report.corrupt_records += 1
                    _WAL_CORRUPT.inc()
                    if seg.name not in report.corrupt_segments:
                        report.corrupt_segments.append(seg.name)
                    continue
                ticks.append(tick)
                report.records += 1
        return ticks, report

    @staticmethod
    def _parse_record(line: str) -> Optional[RawTick]:
        if line.startswith("["):  # legacy CRC-less record
            body = line
        else:
            if len(line) < 10 or line[8] != " ":
                return None
            crc_text, body = line[:8], line[9:]
            try:
                expected = int(crc_text, 16)
            except ValueError:
                return None
            if zlib.crc32(body.encode("utf-8")) != expected:
                return None
        try:
            time, numeric, categorical = json.loads(body)
            return (
                float(time),
                {a: float(v) for a, v in numeric.items()},
                {a: str(v) for a, v in categorical.items()},
            )
        except (ValueError, TypeError, AttributeError):
            return None

    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Drop all logged ticks and start a fresh segment."""
        if not self._fh.closed:
            try:
                self._fh.flush()
            except OSError:
                pass
            self._fh.close()
        for seg in self.segments():
            seg.unlink()
        self._seg_index += 1
        self._marks = [self._seg_index]
        self._pending = 0
        self._sealed_torn_tail = False
        self._open_segment()

    def mark_checkpoint(self) -> None:
        """Record a durable checkpoint and retire pre-previous segments.

        Rotates so the checkpoint boundary is a segment boundary, then
        keeps segments back to the *previous* checkpoint mark: if the
        newest checkpoint generation is later found corrupt and load
        falls back a generation, the ticks processed since that older
        checkpoint are still on disk for replay.  The mark list is
        seeded at open with the oldest on-disk segment, so the first
        mark of a handle's lifetime deletes nothing — after a restart
        the previous mark is unknown (it lived in the dead process's
        memory), and the surviving older checkpoint generation may
        still need every retained segment.  Deletion starts only from
        the second mark recorded by *this* handle.
        """
        if self._seg_written > 0:
            self._rotate()
        if not self._marks or self._marks[-1] != self._seg_index:
            self._marks.append(self._seg_index)
        if len(self._marks) > 2:
            self._marks = self._marks[-2:]
        floor = self._marks[0]
        for seg in self.segments():
            idx = _segment_index(seg)
            if idx is not None and idx < floor:
                seg.unlink()

    def compact(self, max_bytes: int) -> int:
        """Drop whole oldest segments until ≤ ``max_bytes`` retained.

        The active segment is never dropped.  Returns the number of
        bytes released.  This is the bound for quarantined lanes whose
        kept-for-replay log would otherwise grow without limit.
        """
        dropped = 0
        segs = self.segments()
        sizes = {seg: seg.stat().st_size for seg in segs}
        total = sum(sizes.values())
        active = self.active_segment()
        for seg in segs:
            if total <= max_bytes:
                break
            if seg == active:
                break
            seg.unlink()
            total -= sizes[seg]
            dropped += sizes[seg]
        return dropped

    def bytes_retained(self) -> int:
        """Total on-disk bytes across all retained segments."""
        if not self._fh.closed:
            try:
                self._fh.flush()
            except OSError:
                pass
        return sum(seg.stat().st_size for seg in self.segments())

    def durable_position(self) -> Tuple[Path, int]:
        """The active segment and its last fsynced byte offset.

        Everything in earlier segments is durable (rotation fsyncs
        before sealing); within the active segment, bytes past this
        offset may still be sitting in the OS page cache.
        """
        return self.active_segment(), self._durable_offset

    def close(self) -> None:
        """Flush and release the file handle.

        A refused final fsync is swallowed (and counted): close runs on
        teardown and recovery paths where raising would mask the real
        work — callers that need a durability guarantee call
        :meth:`flush` themselves and handle its ``OSError``.
        :attr:`durable_appended` stays honest either way.
        """
        if not self._fh.closed:
            try:
                self.flush()
            except OSError:
                _fs.count_write_error()
            self._fh.close()

    def __enter__(self) -> "TickWAL":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CheckpointStore:
    """Atomic, checksummed, generational JSON checkpoints.

    ``save`` wraps the state in a CRC32 envelope, writes it to a sibling
    temp file, fsyncs, rotates the current checkpoint to the previous
    generation (``<name>.1``), and renames the temp file into place — a
    crash at any point leaves at least one intact generation on disk.
    ``load`` verifies the envelope checksum and falls back to the
    previous generation when the newest is missing, torn, or rotted.
    """

    #: checkpoint generations kept on disk (current + previous).
    GENERATIONS = 2

    def __init__(
        self,
        path: Union[str, Path],
        fs: Optional[_fs.StorageShim] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fs = fs

    @property
    def _fsio(self) -> _fs.StorageShim:
        return self._fs if self._fs is not None else _fs.get_fs()

    @property
    def previous_path(self) -> Path:
        """Location of the previous (fallback) checkpoint generation."""
        return self.path.with_name(self.path.name + ".1")

    def save(self, state: Mapping[str, object]) -> None:
        """Durably replace the stored checkpoint with *state*.

        Raises ``OSError`` when the storage layer refuses any step; the
        on-disk generations are never left torn without a good fallback.
        """
        body = json.dumps(state, sort_keys=True)
        envelope = {"crc32": zlib.crc32(body.encode("utf-8")), "state": state}
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        fsio = self._fsio
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fsio.write(fh, json.dumps(envelope))
                fsio.fsync(fh)
            if self.path.exists():
                fsio.replace(self.path, self.previous_path)
            fsio.replace(tmp, self.path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def load(self) -> Optional[Dict[str, object]]:
        """The newest checkpoint that passes integrity verification.

        Tries the current generation first; on checksum mismatch, torn
        JSON, or a read error it falls back to the previous generation
        (counted in ``repro_storage_checkpoint_fallbacks_total``).
        Returns ``None`` only when no generation is trustworthy.
        """
        state = self._load_one(self.path)
        if state is not None:
            return state
        state = self._load_one(self.previous_path)
        if state is not None:
            _CKPT_FALLBACKS.inc()
            return state
        return None

    def _load_one(self, path: Path) -> Optional[Dict[str, object]]:
        try:
            text = self._fsio.read_text(path)
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            _fs.count_read_error()
            return None
        if (
            isinstance(payload, dict)
            and set(payload) == {"crc32", "state"}
        ):
            body = json.dumps(payload["state"], sort_keys=True)
            if zlib.crc32(body.encode("utf-8")) != payload["crc32"]:
                _fs.count_read_error()
                return None
            return payload["state"]
        # legacy envelope-less checkpoint: accepted unverified.
        return payload if isinstance(payload, dict) else None
