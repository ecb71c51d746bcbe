"""Storage durability under a hostile filesystem.

Three layers under test, bottom-up:

* the fault-injecting storage shim itself (:mod:`repro.faults.fs`) —
  each injector is deterministic, targetable, and a passthrough when
  idle;
* crash-point properties of the persistence primitives — killing
  ``CheckpointStore.save`` at *every* fault site (temp write, fsync,
  either rename, torn renames) must leave a loadable consistent prior
  generation, and truncating the WAL's active segment at *every* byte
  offset must replay to a clean prefix;
* the durability policy (:mod:`repro.stream.durability`) — transient
  errors are retried, full-disk/fatal errors degrade the tenant into
  acknowledged-but-volatile mode, and a healed disk drains the buffer
  and re-promotes without losing or duplicating a tick — also under
  random fault, checkpoint and crash schedules (a hypothesis state
  machine).

Plus the two "sick disk must not abort the diagnosis" paths: the alias
table and the health journal swallow write faults, keep their in-memory
state, and report through ``repro_storage_write_errors_total``.
"""

import errno
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.faults import fs as fsmod
from repro.faults.fs import (
    FlakyIO,
    FullDisk,
    ReadCorruption,
    StorageShim,
    TornRename,
)
from repro.fleet import recovery
from repro.fleet.engine import FleetDetector
from repro.fleet.health import HealthTracker, read_health_journal
from repro.schema.aliases import AliasStore
from repro.stream.durability import (
    DEGRADED,
    DURABLE,
    TenantDurability,
    classify_storage_error,
)
from repro.stream.wal import CheckpointStore, TickWAL


class FailOp(fsmod.FSFault):
    """Test fault: fail exactly the nth matching call of one primitive."""

    kind = "fail_op"

    def __init__(self, op, nth=1, err=errno.EIO, path_filter=None):
        super().__init__(path_filter)
        self.op = op
        self.nth = int(nth)
        self.err = int(err)
        self._seen = 0

    def _hit(self, path):
        self._seen += 1
        if self._seen == self.nth:
            self._fire()
            raise OSError(
                self.err, f"injected: {self.op} #{self.nth} failed", path
            )

    def on_write(self, path, data):
        if self.op == "write":
            self._hit(path)

    def on_fsync(self, path):
        if self.op == "fsync":
            self._hit(path)

    def on_replace(self, src, dst):
        if self.op == "replace":
            self._hit(dst)


def ticks_upto(n):
    return [
        (float(i), {"cpu": 1.0 + i, "io": 0.5 * i}, {"state": "ok"})
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# The shim and its injectors
# ---------------------------------------------------------------------------
class TestStorageShim:
    def test_idle_shim_is_a_passthrough(self, tmp_path):
        shim = StorageShim()
        target = tmp_path / "direct.txt"
        with open(target, "w") as fh:
            shim.write(fh, "payload\n")
            shim.fsync(fh)
        moved = tmp_path / "moved.txt"
        shim.replace(target, moved)
        assert not target.exists()
        assert shim.read_text(moved) == "payload\n"
        assert shim.read_bytes(moved) == b"payload\n"

    def test_path_filter_targets_one_tenant(self, tmp_path):
        fault = FullDisk(path_filter=str(tmp_path / "sick"))
        shim = StorageShim([fault])
        sick = tmp_path / "sick" / "f.txt"
        healthy = tmp_path / "healthy" / "f.txt"
        for p in (sick, healthy):
            p.parent.mkdir()
        with open(healthy, "w") as fh:
            shim.write(fh, "fine")  # filter does not match: no fault
        with open(sick, "w") as fh:
            with pytest.raises(OSError) as excinfo:
                shim.write(fh, "doomed")
        assert excinfo.value.errno == errno.ENOSPC
        assert fault.fired == 1

    def test_sequence_path_filter_matches_any(self):
        fault = fsmod.FSFault(path_filter=["ticks.wal", "checkpoint.json"])
        assert fault.matches("/x/t0/ticks.wal/seg-00000000.wal")
        assert fault.matches("/x/t0/checkpoint.json.tmp")
        assert not fault.matches("/x/t0/health.log")
        fault.active = False
        assert not fault.matches("/x/t0/ticks.wal")

    def test_scoped_fs_installs_and_restores(self):
        before = fsmod.get_fs()
        inner = StorageShim()
        with fsmod.scoped_fs(inner) as active:
            assert fsmod.get_fs() is inner is active
        assert fsmod.get_fs() is before

    def test_full_disk_heals(self, tmp_path):
        fault = FullDisk(after_writes=2)
        shim = StorageShim([fault])
        target = tmp_path / "f.txt"
        with open(target, "w") as fh:
            shim.write(fh, "a")
            shim.write(fh, "b")
            with pytest.raises(OSError):
                shim.write(fh, "c")
            with pytest.raises(OSError):
                shim.fsync(fh)
            fault.heal()
            shim.write(fh, "d")
            shim.fsync(fh)
        assert target.read_text() == "abd"

    def test_flaky_io_is_seed_deterministic(self, tmp_path):
        def pattern(seed):
            fault = FlakyIO(rate=0.4, seed=seed)
            shim = StorageShim([fault])
            hits = []
            with open(tmp_path / f"s{seed}.txt", "w") as fh:
                for _ in range(40):
                    try:
                        shim.write(fh, "x")
                        hits.append(0)
                    except OSError as exc:
                        assert exc.errno == errno.EIO
                        hits.append(1)
            return hits

        first = pattern(7)
        assert first == pattern(7)
        assert sum(first) > 0
        assert first != pattern(8)

    def test_torn_rename_tears_the_nth_replace(self, tmp_path):
        fault = TornRename(nth=2, keep_fraction=0.5)
        shim = StorageShim([fault])
        src = tmp_path / "src.txt"
        src.write_text("0123456789")
        shim.replace(src, tmp_path / "ok.txt")  # first replace: untouched
        src2 = tmp_path / "src2.txt"
        src2.write_text("0123456789")
        with pytest.raises(OSError):
            shim.replace(src2, tmp_path / "torn.txt")
        assert (tmp_path / "torn.txt").read_text() == "01234"
        assert src2.exists()  # the source survives the failed rename

    def test_read_corruption_modes(self, tmp_path):
        target = tmp_path / "payload.json"
        target.write_bytes(b'{"k": "v", "pad": "' + b"x" * 200 + b'"}')
        clean = target.read_bytes()
        flipped = StorageShim([ReadCorruption("bitflip", seed=3)]).read_bytes(
            target
        )
        assert flipped != clean and len(flipped) == len(clean)
        # deterministic: same seed corrupts identically
        again = StorageShim([ReadCorruption("bitflip", seed=3)]).read_bytes(
            target
        )
        assert again == flipped
        cut = StorageShim([ReadCorruption("truncate", seed=3)]).read_bytes(
            target
        )
        assert len(cut) < len(clean) and clean.startswith(cut)

    def test_injector_parameter_validation(self):
        with pytest.raises(ValueError):
            FlakyIO(rate=1.5)
        with pytest.raises(ValueError):
            TornRename(nth=0)
        with pytest.raises(ValueError):
            ReadCorruption(mode="scramble")


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
class TestClassifyStorageError:
    @pytest.mark.parametrize(
        "code,expected",
        [
            (errno.ENOSPC, "full_disk"),
            (errno.EDQUOT, "full_disk"),
            (errno.EIO, "transient"),
            (errno.EAGAIN, "transient"),
            (errno.EINTR, "transient"),
            (errno.ETIMEDOUT, "transient"),
            (errno.EBUSY, "transient"),
            (errno.EACCES, "fatal"),
            (errno.EROFS, "fatal"),
            (None, "fatal"),
        ],
    )
    def test_taxonomy(self, code, expected):
        exc = OSError(code, "x") if code is not None else OSError("x")
        assert classify_storage_error(exc) == expected


# ---------------------------------------------------------------------------
# Crash-point properties of the checkpoint store
# ---------------------------------------------------------------------------
class TestCheckpointCrashPoints:
    STATE1 = {"generation": 1, "detector": {"tick_count": 10}}
    STATE2 = {"generation": 2, "detector": {"tick_count": 20}}

    # every fault site inside a save() that updates an existing
    # checkpoint: the temp-file write, its fsync, the current→previous
    # rotation (replace #1), and the temp→current landing (replace #2)
    # — each as a clean failure and, for the renames, as a *torn*
    # rename leaving truncated bytes on the destination.
    @pytest.mark.parametrize(
        "fault_factory",
        [
            lambda: FailOp("write", nth=1, err=errno.ENOSPC),
            lambda: FailOp("fsync", nth=1, err=errno.EIO),
            lambda: FailOp("replace", nth=1, err=errno.EIO),
            lambda: FailOp("replace", nth=2, err=errno.EIO),
            lambda: TornRename(nth=1),
            lambda: TornRename(nth=2),
        ],
        ids=[
            "write-fails",
            "fsync-fails",
            "rotation-rename-fails",
            "landing-rename-fails",
            "rotation-rename-torn",
            "landing-rename-torn",
        ],
    )
    def test_crash_mid_save_preserves_previous_generation(
        self, tmp_path, fault_factory
    ):
        path = tmp_path / "checkpoint.json"
        shim = StorageShim()
        store = CheckpointStore(path, fs=shim)
        store.save(self.STATE1)  # good generation laid down fault-free

        fault = shim.add(fault_factory())
        with pytest.raises(OSError):
            store.save(self.STATE2)
        assert fault.fired == 1
        # the crash site never costs the prior consistent state
        assert store.load() == self.STATE1
        # no temp-file litter survives the failed save
        assert not list(tmp_path.glob("*.tmp"))

        # the disk heals: the next save completes the interrupted update
        shim.remove(fault)
        store.save(self.STATE2)
        assert store.load() == self.STATE2

    def test_bitflip_read_corruption_is_caught_by_crc(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        store = CheckpointStore(path, fs=StorageShim())
        store.save(self.STATE1)
        rotten = CheckpointStore(
            path, fs=StorageShim([ReadCorruption("bitflip", seed=11)])
        )
        # one generation on disk, and its read is rotten: load refuses
        # to return unverified bytes rather than guessing
        assert rotten.load() is None

    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        store = CheckpointStore(path, fs=StorageShim())
        store.save(self.STATE1)
        store.save(self.STATE2)

        class RotCurrentGeneration(fsmod.FSFault):
            kind = "rot_current"

            def on_read(self, p, data):
                if p.endswith("checkpoint.json"):
                    self._fire()
                    return data[: len(data) // 2]
                return data

        rotten = CheckpointStore(
            path, fs=StorageShim([RotCurrentGeneration()])
        )
        assert rotten.load() == self.STATE1


# ---------------------------------------------------------------------------
# Crash-point property of the WAL: truncate the tail anywhere, replay
# a clean prefix
# ---------------------------------------------------------------------------
class TestWALCrashPoints:
    def test_any_tail_truncation_replays_a_clean_prefix(self, tmp_path):
        path = tmp_path / "ticks.wal"
        ticks = ticks_upto(4)
        with TickWAL(path, fsync_every=1) as wal:
            for t, num, cat in ticks:
                wal.append(t, num, cat)
        seg = sorted(path.glob("seg-*.wal"))[-1]
        pristine = seg.read_bytes()
        assert pristine.count(b"\n") == len(ticks)

        for cut in range(len(pristine) + 1):
            seg.write_bytes(pristine[:cut])
            reader = TickWAL(path)
            replayed, report = reader.replay_report()
            reader.close()
            complete = pristine[:cut].count(b"\n")
            assert replayed == ticks[:complete], f"cut at byte {cut}"
            # an uncorrupted prefix never reports corrupt records; a
            # trailing partial line is a torn tail, not corruption
            assert report.corrupt_records == 0, f"cut at byte {cut}"
            assert report.torn_tail == (
                cut > 0 and not pristine[:cut].endswith(b"\n")
            ), f"cut at byte {cut}"
        seg.write_bytes(pristine)

    def test_corrupt_middle_segment_is_skipped_and_named(self, tmp_path):
        path = tmp_path / "ticks.wal"
        with TickWAL(path, fsync_every=1, segment_bytes=128) as wal:
            for t, num, cat in ticks_upto(12):
                wal.append(t, num, cat)
            segments = wal.segments()
        assert len(segments) >= 3
        victim = segments[1]
        raw = victim.read_bytes()
        rotten = bytearray(raw)
        # flip one byte safely inside the first record's payload (past
        # the 9-byte CRC prefix, well before the line's newline)
        rotten[raw.index(b"\n") // 2 + 9] ^= 0xFF
        victim.write_bytes(bytes(rotten))

        reader = TickWAL(path)
        replayed, report = reader.replay_report()
        reader.close()
        assert report.corrupt_records == 1
        assert victim.name in report.corrupt_segments
        assert not report.torn_tail  # mid-log rot is not a torn tail
        # every intact record survives, in order
        times = [t for t, _, _ in replayed]
        assert times == sorted(times)
        assert len(times) == 11

    def test_replay_under_read_corruption_never_raises(self, tmp_path):
        path = tmp_path / "ticks.wal"
        with TickWAL(path, fsync_every=1) as wal:
            for t, num, cat in ticks_upto(10):
                wal.append(t, num, cat)
        rotten = TickWAL(
            path, fs=StorageShim([ReadCorruption("bitflip", seed=2)])
        )
        replayed, report = rotten.replay_report()
        rotten.close()
        # the CRC gate turns silent corruption into counted skips
        assert report.corrupt_records + len(replayed) <= 10
        assert report.corrupt_records >= 1
        for t, num, cat in replayed:  # survivors parsed fully typed
            assert isinstance(t, float) and isinstance(num, dict)

    def test_compact_bounds_a_quarantined_lane(self, tmp_path):
        path = tmp_path / "ticks.wal"
        wal = TickWAL(path, fsync_every=1, segment_bytes=128)
        for t, num, cat in ticks_upto(40):
            wal.append(t, num, cat)
        grown = wal.bytes_retained()
        assert grown > 512
        dropped = wal.compact(512)
        assert dropped > 0
        assert wal.bytes_retained() <= 512
        assert wal.bytes_retained() == grown - dropped
        # the active segment is never compacted away
        assert wal.active_segment().exists()
        wal.close()


# ---------------------------------------------------------------------------
# The durability policy: retry, degrade, buffer, re-promote
# ---------------------------------------------------------------------------
class TestTenantDurability:
    def _managed(self, tmp_path, shim, transitions=None, **kw):
        wal = TickWAL(tmp_path / "ticks.wal", fsync_every=1, fs=shim)
        ckpt = CheckpointStore(tmp_path / "checkpoint.json", fs=shim)
        kw.setdefault("backoff_s", 0.0)
        kw.setdefault("sleep", lambda s: None)
        if transitions is not None:
            kw["on_transition"] = lambda mode, why: transitions.append(
                (mode, why)
            )
        return TenantDurability("t0", wal, ckpt, **kw)

    def test_transient_error_is_retried_not_degraded(self, tmp_path):
        shim = StorageShim([FailOp("write", nth=1, err=errno.EIO)])
        managed = self._managed(tmp_path, shim, max_retries=2)
        assert managed.append(0.0, {"cpu": 1.0}) is True
        assert managed.mode == DURABLE
        assert [t for t, _, _ in managed.wal.replay_report()[0]] == [0.0]

    def test_fatal_error_degrades_without_retrying(self, tmp_path):
        fault = FailOp("write", nth=1, err=errno.EACCES)
        managed = self._managed(
            tmp_path, StorageShim([fault]), max_retries=5
        )
        assert managed.append(0.0, {"cpu": 1.0}) is False
        assert managed.mode == DEGRADED
        assert managed.degraded_reason.startswith("fatal")
        assert fault.fired == 1  # fatal: no retry burned the budget

    def test_full_disk_degrade_heal_repromote_loses_nothing(self, tmp_path):
        fault = FullDisk(path_filter="ticks.wal")
        shim = StorageShim([fault])
        transitions = []
        managed = self._managed(
            tmp_path,
            shim,
            transitions,
            max_retries=1,
            probe_every=3,
        )
        fault.active = False
        assert managed.append(0.0, {"cpu": 1.0}) is True
        fault.active = True

        # the disk fills: acknowledged-but-volatile from here on
        assert managed.append(1.0, {"cpu": 2.0}) is False
        assert managed.mode == DEGRADED
        assert managed.degraded_reason.startswith("full_disk")
        for i in range(2, 5):
            managed.append(float(i), {"cpu": 1.0})
        assert len(managed.buffer) == 4
        assert managed.degraded_count == 1  # probes failed, no flapping

        # the disk heals: the next probe drains and re-promotes
        fault.heal()
        for i in range(5, 8):
            managed.append(float(i), {"cpu": 1.0})
        assert managed.mode == DURABLE
        assert len(managed.buffer) == 0  # drained
        assert managed.repromoted_count == 1
        assert transitions[0][0] == DEGRADED
        assert transitions[-1] == (DURABLE, "disk healed")
        # conservation: every acknowledged tick is in the WAL exactly once
        times = [t for t, _, _ in managed.wal.replay_report()[0]]
        assert times == [float(i) for i in range(8)]

    def test_fsync_boundary_failure_never_duplicates_a_tick(self, tmp_path):
        # the write lands, the batch fsync fails: the tick is *in* the
        # log (volatile), so neither the retry, the degrade buffer, nor
        # the healed probe may append it a second time
        fault = FlakyIO(rate=1.0, ops=("fsync",), path_filter="ticks.wal")
        fault.active = False
        shim = StorageShim([fault])
        wal = TickWAL(tmp_path / "ticks.wal", fsync_every=2, fs=shim)
        managed = TenantDurability(
            "t0",
            wal,
            CheckpointStore(tmp_path / "checkpoint.json", fs=shim),
            max_retries=1,
            backoff_s=0.0,
            sleep=lambda s: None,
            probe_every=2,
        )
        assert managed.append(0.0, {"cpu": 1.0}) is True
        fault.active = True
        assert managed.append(1.0, {"cpu": 1.0}) is False
        assert managed.mode == DEGRADED
        assert len(managed.buffer) == 0  # already written, only fsync owed
        managed.append(2.0, {"cpu": 1.0})
        managed.append(3.0, {"cpu": 1.0})  # probe fires, fsync still sick
        assert managed.mode == DEGRADED
        fault.active = False
        managed.append(4.0, {"cpu": 1.0})
        managed.append(5.0, {"cpu": 1.0})  # probe drains and re-promotes
        assert managed.mode == DURABLE
        times = [t for t, _, _ in wal.replay_report()[0]]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_retire_wal_survives_a_refused_rotation_fsync(self, tmp_path):
        # Retention maintenance is not a durability promise: a sick
        # rotation fsync must neither raise nor degrade the tenant —
        # the mark just stays put until the next checkpoint.
        fault = FullDisk(path_filter="ticks.wal")
        shim = StorageShim([fault])
        managed = self._managed(tmp_path, shim, max_retries=1)
        fault.active = False
        for i in range(4):
            assert managed.append(float(i), {"cpu": 1.0}) is True
        fault.active = True
        assert managed.retire_wal(mark=True, max_bytes=1 << 20) is False
        assert managed.mode == DURABLE
        assert fault.fired >= 1
        # nothing was retired on the failed attempt: all ticks replayable
        assert [t for t, _, _ in managed.wal.replay_report()[0]] == [
            0.0,
            1.0,
            2.0,
            3.0,
        ]
        fault.active = False
        assert managed.retire_wal(mark=True, max_bytes=1 << 20) is True

    def test_volatile_buffer_is_bounded(self, tmp_path):
        fault = FullDisk()
        managed = self._managed(
            tmp_path,
            StorageShim([fault]),
            max_retries=0,
            probe_every=1000,
            max_volatile_ticks=4,
        )
        for i in range(9):
            managed.append(float(i), {"cpu": 1.0})
        assert managed.mode == DEGRADED
        assert len(managed.buffer) == 4
        assert managed.volatile_dropped == 9 - 4
        # the survivors are the *newest* ticks
        assert [t for t, _, _ in managed.buffer] == [5.0, 6.0, 7.0, 8.0]

    def test_checkpoint_declines_while_degraded(self, tmp_path):
        fault = FullDisk()
        managed = self._managed(
            tmp_path, StorageShim([fault]), max_retries=0, probe_every=1000
        )
        managed.append(0.0, {"cpu": 1.0})
        assert managed.mode == DEGRADED
        assert managed.save_checkpoint({"generation": 1}) is False
        assert managed.checkpoints.load() is None  # nothing torn on disk

        # a checkpoint attempt is exactly when a healed disk is noticed
        fault.heal()
        assert managed.save_checkpoint({"generation": 1}) is True
        assert managed.mode == DURABLE
        assert managed.checkpoints.load() == {"generation": 1}
        assert [t for t, _, _ in managed.wal.replay_report()[0]] == [0.0]

    def test_flush_volatile_reports_stranded_ticks(self, tmp_path):
        fault = FullDisk()
        managed = self._managed(
            tmp_path, StorageShim([fault]), max_retries=0, probe_every=1000
        )
        for i in range(3):
            managed.append(float(i), {"cpu": 1.0})
        assert managed.flush_volatile() == 3  # disk still sick: stranded
        fault.heal()
        assert managed.flush_volatile() == 0
        assert len(managed.wal.replay_report()[0]) == 3


# ---------------------------------------------------------------------------
# Random schedules: at-most-once appends, no acknowledged tick lost
# ---------------------------------------------------------------------------
class DurableWALMachine(RuleBasedStateMachine):
    """One tenant's durability manager under random faults and crashes.

    The model knows only what the API acknowledged: an append that
    returned True with ``fsync_every=1``, a ``flush()`` that returned
    True, or a degraded → durable re-promotion (the probe ends in an
    fsync) makes every tick acknowledged so far durable.  A crash drops
    the page cache (the active segment is cut back to its last fsynced
    offset) and reloads through ``recovery.load_tenant``.
    """

    @initialize(
        fsync_every=st.integers(1, 3),
        # the retry paths hold the at-most-once logic; 0 is listed last
        # so that generation does not spend half its examples without them
        max_retries=st.sampled_from([2, 1, 0]),
        probe_every=st.integers(1, 3),
        segment_bytes=st.sampled_from([256, 1 << 20]),
        flaky_rate=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def build(
        self,
        fsync_every,
        max_retries,
        probe_every,
        segment_bytes,
        flaky_rate,
        seed,
    ):
        self.root = Path(tempfile.mkdtemp(prefix="wal-machine-"))
        self.faults = {
            "full_disk": FullDisk(),
            "flaky_write": FlakyIO(flaky_rate, seed=seed, ops=("write",)),
            "flaky_fsync": FlakyIO(flaky_rate, seed=seed, ops=("fsync",)),
        }
        for fault in self.faults.values():
            fault.active = False
        self.previous_fs = fsmod.set_fs(StorageShim(self.faults.values()))
        self.wal_kw = dict(
            fsync_every=fsync_every, segment_bytes=segment_bytes
        )
        self.policy_kw = dict(
            max_retries=max_retries,
            backoff_s=0.0,
            sleep=lambda s: None,
            probe_every=probe_every,
        )
        self.next_time = 0.0
        #: acknowledged ticks, split by whether a barrier has covered them.
        self.durable, self.unsure = [], []
        #: the detector clock the next checkpoint records.
        self.processed = None
        #: ``processed_until`` of the last checkpoint known durable, and of
        #: every attempt since (a refused save may still have landed).
        self.checkpointed = None
        self.attempted = {None}
        self._manage(self._open_wal())
        assert self.managed.save_checkpoint(recovery.envelope(_STATE, None))

    def _open_wal(self):
        return TickWAL(self.root / recovery.WAL_NAME, **self.wal_kw)

    def _manage(self, wal):
        self.managed = TenantDurability(
            "t0",
            wal,
            CheckpointStore(self.root / recovery.CHECKPOINT_NAME),
            **self.policy_kw,
        )

    def _barrier(self):
        self.durable += self.unsure
        self.unsure = []

    @rule(n=st.integers(1, 8))
    def append(self, n):
        for _ in range(n):
            t, self.next_time = self.next_time, self.next_time + 1.0
            was_degraded = self.managed.mode == DEGRADED
            landed = self.managed.append(t, {"cpu": t})
            self.unsure.append(t)
            self.processed = t
            if (was_degraded and self.managed.mode == DURABLE) or (
                landed and self.wal_kw["fsync_every"] == 1
            ):
                self._barrier()

    @rule()
    def flush(self):
        if self.managed.flush():
            self._barrier()

    @rule()
    def fill_the_disk(self):
        self.faults["full_disk"].active = True

    @rule()
    def flake_writes(self):
        self.faults["flaky_write"].active = True

    @rule()
    def flake_fsyncs(self):
        self.faults["flaky_fsync"].active = True

    @rule()
    def heal(self):
        for fault in self.faults.values():
            fault.active = False

    @rule()
    def checkpoint(self):
        was_degraded = self.managed.mode == DEGRADED
        until = self.processed
        self.attempted.add(until)
        if self.managed.save_checkpoint(recovery.envelope(_STATE, until)):
            self.checkpointed = until
            self.managed.retire_wal(mark=True, max_bytes=1 << 20)
        elif was_degraded and self.managed.mode == DURABLE:
            self._barrier()

    @rule()
    def crash_and_reload(self):
        wal = self.managed.wal
        segment, durable_offset = wal.durable_position()
        wal._fh.close()  # the process dies: no final fsync
        os.truncate(segment, durable_offset)  # ... and the page cache

        wal = self._open_wal()
        load = recovery.load_tenant(self.root, "t0", wal=wal)
        assert load.outcome.status == "recovered", load.outcome
        assert load.wal_note == ""
        until = load.processed_until
        # never an older checkpoint than the last acknowledged one
        assert until in self.attempted
        assert _after(until, self.checkpointed) or until == self.checkpointed
        times = [tick[0] for tick in load.tail]
        self._assert_holds(times, until)

        self._manage(wal)
        self.durable, self.unsure = times, []
        self.processed = times[-1] if times else until
        self.checkpointed = until
        self.attempted = {until}

    @invariant()
    def the_log_holds_each_durable_tick_once(self):
        times = [tick[0] for tick in self.managed.wal.replay_report()[0]]
        self._assert_holds(times, self.checkpointed)

    def _assert_holds(self, times, until):
        """*times*, a replayed log, never repeats a tick and holds every
        tick acknowledged durable after *until*."""
        assert all(a < b for a, b in zip(times, times[1:])), times
        lost = [t for t in self.durable if _after(t, until) and t not in times]
        assert not lost, (lost, times)

    def teardown(self):
        if hasattr(self, "managed"):
            self.managed.wal.close()
        if hasattr(self, "previous_fs"):
            fsmod.set_fs(self.previous_fs)
        shutil.rmtree(getattr(self, "root", ""), ignore_errors=True)


#: the smallest detector state ``load_tenant`` accepts.
_STATE = {"version": FleetDetector.CHECKPOINT_VERSION}


def _after(t, until):
    return until is None or (t is not None and t > until)


def test_durable_wal_appends_are_at_most_once_and_lose_no_acked_tick():
    run_state_machine_as_test(
        DurableWALMachine,
        settings=settings(
            max_examples=200, stateful_step_count=50, deadline=None
        ),
    )


# ---------------------------------------------------------------------------
# Non-fatal persistence paths: alias table and health journal
# ---------------------------------------------------------------------------
class TestSickDiskDoesNotAbort:
    def test_alias_save_failure_is_non_fatal(self, tmp_path, caplog):
        path = tmp_path / "models.aliases.json"
        store = AliasStore(path)
        store.record("cpu0", "cpu_usage", score=0.9)
        with fsmod.scoped_fs(StorageShim([FullDisk()])):
            with caplog.at_level("WARNING", logger="repro.schema.aliases"):
                assert store.save() is False
        assert "retained in memory" in caplog.text
        assert store.get("cpu0") == "cpu_usage"  # knowledge survives
        assert not path.exists()
        assert not list(tmp_path.glob("*.tmp"))  # no temp litter either

        # healed disk: the same in-memory table lands durably
        assert store.save() is True
        assert AliasStore(path).get("cpu0") == "cpu_usage"

    def test_health_journal_write_fault_never_loses_the_transition(
        self, tmp_path
    ):
        tracker = HealthTracker(
            ["alpha"],
            root_dir=tmp_path,
            durable=["alpha"],
            label_metrics=False,
        )
        with fsmod.scoped_fs(
            StorageShim([FullDisk(path_filter="health.log")])
        ):
            assert tracker.set_state(
                "alpha", "degraded", reason="storage: full_disk"
            )
        # the in-memory authoritative state changed even though the
        # journal line was swallowed by the full disk
        assert tracker.state("alpha") == "degraded"
        assert tracker.set_state("alpha", "healthy", reason="healed")
        tracker.close()
        journaled = read_health_journal(tmp_path, "alpha")
        assert [r["to"] for r in journaled] == ["healthy"]


# ---------------------------------------------------------------------------
# Observability of injected faults
# ---------------------------------------------------------------------------
class TestStorageMetrics:
    def test_fault_and_error_counters_advance(self, tmp_path):
        from repro.obs import metrics

        fired = metrics.REGISTRY.counter(
            "repro_storage_faults_injected_total", labelnames=("kind",)
        ).labels(kind="full_disk")
        write_errors = metrics.REGISTRY.counter(
            "repro_storage_write_errors_total"
        )
        degraded = metrics.REGISTRY.counter(
            "repro_storage_degraded_transitions_total"
        )
        fired_before = fired.value
        write_before = write_errors.value
        degraded_before = degraded.value

        shim = StorageShim([FullDisk()])
        managed = TenantDurability(
            "t0",
            TickWAL(tmp_path / "ticks.wal", fsync_every=1, fs=shim),
            CheckpointStore(tmp_path / "checkpoint.json", fs=shim),
            max_retries=0,
            backoff_s=0.0,
            probe_every=1000,
        )
        managed.append(0.0, {"cpu": 1.0})
        assert fired.value > fired_before
        assert write_errors.value > write_before
        assert degraded.value == degraded_before + 1
