"""Tests for the write-ahead tick log and durable supervisor recovery.

The contract: with a ``wal_dir``, every tick is logged before the
detector sees it, recovery replays the log through a bit-exact restored
detector, and the source is never asked to re-deliver a tick —
``reprocessed_ticks == 0`` and the final region output is identical to
an uninterrupted run.
"""

import numpy as np
import pytest

from repro.eval.harness import replay_rows, simulate_run
from repro.faults import CollectorCrash, FaultPlan
from repro.stream import StreamingDetector, StreamSupervisor
from repro.stream.wal import CheckpointStore, TickWAL


def scenario_rows(n_ticks=140):
    dataset, _, _ = simulate_run(
        "cpu_saturation", duration_s=20, seed=17, normal_s=120
    )
    return list(replay_rows(dataset))[:n_ticks]


def make_detector(**kwargs):
    return StreamingDetector(capacity=120, min_region_s=5.0, **kwargs)


def region_bounds(regions):
    return [(r.start, r.end) for r in regions]


# ---------------------------------------------------------------------------
# TickWAL
# ---------------------------------------------------------------------------
class TestTickWAL:
    def test_append_replay_round_trip(self, tmp_path):
        wal = TickWAL(tmp_path / "ticks.wal")
        ticks = [
            (0.0, {"a": 1.0, "b": 2.5}, {"state": "ok"}),
            (1.0, {"a": 1.5, "b": -3.0}, {"state": "warn"}),
            (2.0, {"a": float(np.float64(7.25)), "b": 0.0}, {}),
        ]
        for t, num, cat in ticks:
            wal.append(t, num, cat)
        assert wal.replay_report()[0] == ticks
        wal.close()

    def test_replay_survives_reopen(self, tmp_path):
        path = tmp_path / "ticks.wal"
        with TickWAL(path) as wal:
            wal.append(0.0, {"a": 1.0}, {})
            wal.append(1.0, {"a": 2.0}, {})
        reopened = TickWAL(path)
        assert [t for t, _, _ in reopened.replay_report()[0]] == [0.0, 1.0]
        reopened.close()

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "ticks.wal"
        with TickWAL(path) as wal:
            wal.append(0.0, {"a": 1.0}, {})
            wal.append(1.0, {"a": 2.0}, {})
        # crash mid-append: a final record cut off without its newline
        active = sorted(path.glob("seg-*.wal"))[-1]
        with open(active, "a") as fh:
            fh.write('[2.0, {"a": 3.')
        reopened = TickWAL(path)
        ticks, report = reopened.replay_report()
        assert [t for t, _, _ in ticks] == [0.0, 1.0]
        assert report.torn_tail
        assert report.corrupt_records == 0
        reopened.close()

    def test_torn_record_with_newline_is_skipped(self, tmp_path):
        path = tmp_path / "ticks.wal"
        with TickWAL(path) as wal:
            wal.append(0.0, {"a": 1.0}, {})
        active = sorted(path.glob("seg-*.wal"))[-1]
        with open(active, "a") as fh:
            fh.write('[1.0, {"a": \n')
        reopened = TickWAL(path)
        ticks, report = reopened.replay_report()
        assert [t for t, _, _ in ticks] == [0.0]
        assert report.corrupt_records == 1
        reopened.close()

    def test_append_after_torn_tail_does_not_merge_records(self, tmp_path):
        """Crash → recover → append → crash: opening seals the torn
        tail, so the post-recovery append starts a fresh line instead
        of merging with the torn bytes into one CRC-failing record."""
        path = tmp_path / "ticks.wal"
        with TickWAL(path, fsync_every=1) as wal:
            wal.append(0.0, {"a": 1.0}, {})
        active = sorted(path.glob("seg-*.wal"))[-1]
        with open(active, "a") as fh:
            fh.write('deadbeef [1.0, {"a": 2.')  # crash mid-append
        recovered = TickWAL(path, fsync_every=1)
        recovered.append(2.0, {"a": 3.0}, {})  # fsynced: acked-durable
        recovered.close()
        reader = TickWAL(path)
        ticks, report = reader.replay_report()
        reader.close()
        assert [t for t, _, _ in ticks] == [0.0, 2.0]
        assert report.corrupt_records == 0

    def test_sealed_torn_tail_still_reported(self, tmp_path):
        """The seal truncates the torn bytes but replay still reports
        the crash signature (and the clean prefix survives on disk)."""
        path = tmp_path / "ticks.wal"
        with TickWAL(path) as wal:
            wal.append(0.0, {"a": 1.0}, {})
        active = sorted(path.glob("seg-*.wal"))[-1]
        with open(active, "a") as fh:
            fh.write('[1.0, {"a": 2.')
        reopened = TickWAL(path)
        ticks, report = reopened.replay_report()
        reopened.close()
        assert [t for t, _, _ in ticks] == [0.0]
        assert report.torn_tail
        assert report.corrupt_records == 0
        assert active.read_bytes().endswith(b"\n")  # tail gone from disk

    def test_first_checkpoint_mark_deletes_nothing(self, tmp_path):
        """A single mark must not retire pre-checkpoint segments: the
        floor only advances from the second mark of a handle's life."""
        path = tmp_path / "ticks.wal"
        wal = TickWAL(path, fsync_every=1)
        wal.append(0.0, {"a": 1.0}, {})
        wal.mark_checkpoint()
        assert [t for t, _, _ in wal.replay_report()[0]] == [0.0]
        wal.append(1.0, {"a": 2.0}, {})
        wal.mark_checkpoint()  # second mark: now pre-first-mark goes
        assert [t for t, _, _ in wal.replay_report()[0]] == [1.0]
        wal.close()

    def test_first_checkpoint_after_reopen_retains_fallback_segments(
        self, tmp_path
    ):
        """Marks do not survive the process: after a restart the first
        mark must keep every on-disk segment, because the surviving
        previous checkpoint generation may still need them."""
        path = tmp_path / "ticks.wal"
        with TickWAL(path, fsync_every=1) as wal:
            wal.append(0.0, {"a": 1.0}, {})
            wal.mark_checkpoint()
            wal.append(1.0, {"a": 2.0}, {})
        reopened = TickWAL(path, fsync_every=1)
        reopened.mark_checkpoint()  # first mark of this lifetime
        assert [t for t, _, _ in reopened.replay_report()[0]] == [0.0, 1.0]
        reopened.append(2.0, {"a": 3.0}, {})
        reopened.mark_checkpoint()  # second mark: retention resumes
        assert [t for t, _, _ in reopened.replay_report()[0]] == [2.0]
        reopened.close()

    def test_interrupted_legacy_migration_is_completed(self, tmp_path):
        """A crash between the migration's two renames parks the legacy
        log at '<name>.legacy-migrate'; the next open adopts it as
        segment 0 instead of abandoning it."""
        path = tmp_path / "ticks.wal"
        orphan = tmp_path / "ticks.wal.legacy-migrate"
        orphan.write_text('[0.0, {"a": 1.0}, {}]\n')
        wal = TickWAL(path)
        assert wal.replay_report()[0] == [(0.0, {"a": 1.0}, {})]
        assert not orphan.exists()
        wal.append(1.0, {"a": 2.0}, {})
        assert [t for t, _, _ in wal.replay_report()[0]] == [0.0, 1.0]
        wal.close()

    def test_fsync_batching_still_replays_everything(self, tmp_path):
        wal = TickWAL(tmp_path / "ticks.wal", fsync_every=50)
        for i in range(7):  # fewer than one fsync batch
            wal.append(float(i), {"a": float(i)}, {})
        assert len(wal.replay_report()[0]) == 7
        wal.close()

    def test_invalid_fsync_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TickWAL(tmp_path / "ticks.wal", fsync_every=0)


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        store.save({"detector": {"x": 1}, "processed_until": 42.0})
        assert store.load() == {"detector": {"x": 1}, "processed_until": 42.0}

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.json").load() is None

    def test_corrupt_checkpoint_is_none(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"torn":')
        assert CheckpointStore(path).load() is None

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.save({"generation": 1})
        store.save({"generation": 2})
        assert store.load() == {"generation": 2}
        assert not path.with_suffix(".json.tmp").exists()

    def test_previous_generation_survives_save(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        store.save({"generation": 1})
        store.save({"generation": 2})
        assert store.previous_path.exists()
        # rot the newest generation: load falls back to the previous
        store.path.write_text('{"crc32": 0, "state": {"generation": 9}}')
        assert store.load() == {"generation": 1}


# ---------------------------------------------------------------------------
# Supervisor + WAL: crash recovery with zero re-processed ticks
# ---------------------------------------------------------------------------
class TestSupervisorWithWAL:
    @pytest.mark.parametrize("crash_at", [13, 45, 95, 101])
    def test_crash_recovery_reprocesses_nothing(self, tmp_path, crash_at):
        """Crash at arbitrary offsets relative to the checkpoint cadence:
        the WAL covers the post-checkpoint gap, so recovery never
        re-pulls a tick and the regions match the uninterrupted run
        bitwise."""
        rows = scenario_rows()

        baseline = make_detector()
        expected = []
        for t, num, cat in rows:
            expected.extend(baseline.tick(t, num, cat).closed_regions)

        crash = FaultPlan([CollectorCrash(at_tick=crash_at)], seed=29)

        def source_factory(attempt):
            return crash.wrap(iter(rows)) if attempt == 0 else iter(rows)

        supervisor = StreamSupervisor(
            make_detector(),
            source_factory,
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        report = supervisor.run()
        assert report.restarts == 1
        assert report.reprocessed_ticks == 0
        assert report.wal_replayed_ticks == crash_at % 10
        assert region_bounds(report.closed_regions) == region_bounds(expected)

    def test_durable_recovery_across_supervisor_instances(self, tmp_path):
        """A dead process's checkpoint + WAL restore into a fresh
        supervisor: the second run continues exactly where the first
        stopped, re-processing zero ticks, and the union of the two
        runs' regions matches an uninterrupted run."""
        rows = scenario_rows()
        half = len(rows) // 2 + 3  # not on the checkpoint cadence

        baseline = make_detector()
        expected = []
        for t, num, cat in rows:
            expected.extend(baseline.tick(t, num, cat).closed_regions)

        first = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows[:half]),  # "process dies" mid-stream
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        report_a = first.run()
        assert report_a.ticks_processed == half

        second = StreamSupervisor(
            make_detector(),  # a fresh detector: state must come from disk
            lambda attempt: iter(rows),  # the full stream again
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        report_b = second.run()
        assert report_b.reprocessed_ticks == 0
        # everything after the first run's last durable checkpoint came
        # back from the WAL, the rest from the (skipped-forward) source
        assert report_b.wal_replayed_ticks == half % 10
        assert report_b.ticks_processed == len(rows) - half
        combined = region_bounds(report_a.closed_regions) + [
            b
            for b in region_bounds(report_b.closed_regions)
            if b not in region_bounds(report_a.closed_regions)
        ]
        assert combined == region_bounds(expected)

    def test_every_rotten_checkpoint_generation_raises(self, tmp_path):
        """A checkpoint that exists but of which no generation verifies
        must not restart silently from an empty detector: the retained
        WAL holds only the ticks since the previous checkpoint mark."""
        rows = scenario_rows()
        first = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows[:73]),  # "process dies" mid-stream
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        first.run()
        store = CheckpointStore(tmp_path / "checkpoint.json")
        for path in (store.path, store.previous_path):
            assert path.exists()
            path.write_text("rotten")
        second = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows),
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        with pytest.raises(FileNotFoundError, match="checkpoint corrupt"):
            second.run()

    def test_missing_checkpoint_replays_the_whole_log(self, tmp_path):
        """Before the first checkpoint nothing is retired, so a restart
        with no checkpoint replays the whole log exactly."""
        rows = scenario_rows(60)
        baseline = make_detector()
        for t, num, cat in rows:
            baseline.tick(t, num, cat)
        first = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows[:7]),  # dies before checkpointing
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        first.run()
        assert not (tmp_path / "checkpoint.json").exists()
        second = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows),
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        report = second.run()
        assert report.wal_replayed_ticks == 7
        assert report.reprocessed_ticks == 0
        assert second.detector.checkpoint() == baseline.checkpoint()

    def test_recovered_detector_is_bitwise_identical(self, tmp_path):
        """After WAL recovery the detector's window state equals the
        uninterrupted detector's, value for value."""
        rows = scenario_rows(120)
        crash = FaultPlan([CollectorCrash(at_tick=57)], seed=3)

        baseline = make_detector()
        for t, num, cat in rows:
            baseline.tick(t, num, cat)

        def source_factory(attempt):
            return crash.wrap(iter(rows)) if attempt == 0 else iter(rows)

        supervisor = StreamSupervisor(
            make_detector(),
            source_factory,
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        supervisor.run()
        recovered = supervisor.detector
        assert recovered.window.n_rows == baseline.window.n_rows
        for attr in baseline.window.numeric_attributes:
            assert np.array_equal(
                recovered.window.column(attr), baseline.window.column(attr)
            )
        assert np.array_equal(
            recovered.window.timestamps, baseline.window.timestamps
        )

    def test_wal_retained_after_checkpoint(self, tmp_path):
        rows = scenario_rows(25)
        supervisor = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows),
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path,
        )
        supervisor.run()
        # 25 ticks, checkpoints at 10 and 20: segments older than the
        # *previous* checkpoint mark are retired, so ticks 11-25 stay on
        # disk (generation-fallback replay needs 11-20) ...
        leftover = TickWAL(tmp_path / "ticks.wal")
        raw = leftover.replay_report()[0]
        assert len(raw) == 15
        leftover.close()
        # ... but only the 5 post-checkpoint ticks are *effective*:
        # replay filters by the stored processed_until watermark
        stored = CheckpointStore(tmp_path / "checkpoint.json").load()
        until = float(stored["processed_until"])
        assert sum(1 for t, _, _ in raw if t > until) == 5

    def test_no_wal_dir_keeps_legacy_behaviour(self):
        rows = scenario_rows(30)
        supervisor = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows),
            checkpoint_every=10,
            sleep=lambda s: None,
        )
        report = supervisor.run()
        assert report.wal_replayed_ticks == 0
        assert report.reprocessed_ticks == 0
