"""Fleet engine: bitwise equivalence, scheduling, durability.

The load-bearing claim of :mod:`repro.fleet` is that every lane of the
vectorized engine computes exactly what an independent per-stream
reference computes on the same rows: the test-only ingest oracle
(:mod:`tests.ingest_oracle`) repairs the rows, the batch
:class:`~repro.core.anomaly.AnomalyDetector` detects on a window cut
from them, and :func:`~repro.fleet.fallout.close_regions` closes the
regions — same verdicts, masks, ε, quarantines, counters and closed
regions, including under the ``moderate`` chaos profile's degraded
telemetry.  Everything else (scheduler backpressure, WAL recovery,
status rendering) is built on that invariant.
"""

from __future__ import annotations

import bisect
import json
import tempfile
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.anomaly import AnomalyDetector
from repro.core.explain import DBSherlock
from repro.core.separation import normalize_values
from repro.eval.chaos import PROFILES
from repro.fleet import (
    FleetDetector,
    FleetScheduler,
    FleetSimSource,
    SortedWindowBank,
)
from repro.fleet.arena import FleetArena
import repro.fleet.engine as fleet_engine
from repro.fleet.recovery import TenantLoad, TenantRecovery, replay_lockstep
from repro.fleet.fallout import close_regions, cluster_windows_batch
from repro.fleet.status import render_fleet_status
from repro.obs.metrics import MetricsRegistry
from repro.stream.detector import StreamingDetector
from tests.fixtures.make_arena_digest import run_digest as run_arena_digest
from tests.ingest_oracle import IngestOracle

ARENA_DIGEST = Path(__file__).parent / "fixtures" / "arena_digest.json"


# ----------------------------------------------------------------------
# Rank-indexed bank: exact order statistics under one-in/one-out
# ----------------------------------------------------------------------
def _rank_ordered(bank):
    """``(capacity, lanes)`` lane contents in rank order (pads last)."""
    order = np.argsort(bank._ranks, axis=0, kind="stable")
    return np.take_along_axis(bank._values, order, axis=0)


def _assert_ranks_are_permutations(bank):
    want = np.arange(bank.capacity)[:, None]
    assert np.array_equal(
        np.sort(bank._ranks, axis=0), np.broadcast_to(want, bank._ranks.shape)
    )


class TestSortedWindowBank:
    def test_matches_numpy_under_fuzz(self):
        rng = np.random.default_rng(11)
        lanes, cap = 7, 9
        bank = SortedWindowBank(lanes, cap)
        appended = np.zeros(lanes, dtype=np.int64)
        buffers = [[] for _ in range(lanes)]
        for _ in range(400):
            # duplicates, and np.round yields -0.0 next to 0.0
            values = np.round(rng.normal(size=lanes) * 4.0)
            active = rng.random(lanes) < 0.8
            for lane in range(lanes):
                if active[lane]:
                    if len(buffers[lane]) >= cap:
                        buffers[lane].pop(0)
                    buffers[lane].append(values[lane])
            bank.replace(values, active, appended % cap)
            appended += active
            assert bank.counts.tolist() == [len(b) for b in buffers]
            meds = bank.medians()
            mins = bank.mins()
            maxs = bank.maxs()
            ordered = _rank_ordered(bank)
            for lane in range(lanes):
                buf = np.asarray(buffers[lane])
                if buf.size == 0:
                    assert np.isnan(meds[lane])
                    continue
                # by value: 0.0 == -0.0
                assert meds[lane] == np.median(buf)
                assert mins[lane] == buf.min()
                assert maxs[lane] == buf.max()
                assert np.array_equal(ordered[: len(buf), lane], np.sort(buf))
                k = int(rng.integers(0, len(buf)))
                assert bank.lane_value(lane, k) == np.sort(buf)[k]

    def test_empty_and_inactive_lanes_are_noops(self):
        bank = SortedWindowBank(3, 4)
        bank.replace(
            np.array([1.0, 2.0, 3.0]),
            np.array([True, False, True]),
            np.zeros(3, dtype=np.intp),
        )
        assert bank.counts.tolist() == [1, 0, 1]
        assert np.isnan(bank.medians()[1])
        assert bank.medians()[0] == 1.0
        assert bank.mins()[1] == np.inf
        assert bank.maxs()[1] == np.inf

    @pytest.mark.parametrize("capacity", [1, 5, 130])
    def test_all_inactive_replace_is_byte_identical(self, capacity):
        rng = np.random.default_rng(capacity)
        lanes = 6
        bank = SortedWindowBank(lanes, capacity)
        appended = np.zeros(lanes, dtype=np.int64)
        # growing, full and never-fed lanes, with ties and signed zeros
        for t in range(capacity + 3):
            values = _TIE_POOL[rng.integers(0, _TIE_POOL.size, lanes)]
            active = np.array([True, True, t < capacity // 2, False,
                               rng.random() < 0.5, True])
            bank.replace(values, active, appended % capacity)
            appended += active
        def state():
            return [
                a.tobytes() for a in (bank._values, bank._ranks, bank.counts)
            ]

        before = state()
        for _ in range(3):
            # an inactive lane ignores its slot as well as its value
            bank.replace(
                rng.normal(size=lanes),
                np.zeros(lanes, bool),
                rng.integers(0, capacity, lanes),
            )
        assert state() == before


class _ReferenceBank:
    """Pure-Python sorted lanes: ``bisect_left`` insert (a new value
    lands before the equal values already present) and removal of the
    exact sample that leaves the FIFO, tracked by arrival number — so
    the order of ``-0.0``/``0.0`` ties is defined, which ``np.sort``
    does not fix."""

    def __init__(self, lanes, capacity):
        self.capacity = capacity
        self.sorted = [[] for _ in range(lanes)]
        self.arrivals = [[] for _ in range(lanes)]
        self.fifo = [deque() for _ in range(lanes)]
        self.seq = 0

    def replace(self, values, active):
        for lane in np.nonzero(active)[0]:
            lane_sorted, arrivals = self.sorted[lane], self.arrivals[lane]
            fifo = self.fifo[lane]
            if len(fifo) == self.capacity:
                gone = arrivals.index(fifo.popleft()[0])
                del lane_sorted[gone], arrivals[gone]
            value = float(values[lane])
            at = bisect.bisect_left(lane_sorted, value)
            lane_sorted.insert(at, value)
            arrivals.insert(at, self.seq)
            fifo.append((self.seq, value))
            self.seq += 1

    def window(self, lane):
        return [value for _, value in self.fifo[lane]]


_TIE_POOL = np.array([-0.0, 0.0, -1.5, 1.5, 2.0, -3.0, 7.25])


class TestSortedWindowBankProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.integers(0, 40),
        capacity=st.one_of(st.integers(1, 70), st.integers(128, 140)),
        p_active=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        p_idle_tick=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(lanes=5, capacity=1, p_active=0.9, p_idle_tick=0.1, seed=3)
    @example(lanes=9, capacity=129, p_active=0.9, p_idle_tick=0.1, seed=4)
    def test_matches_bisect_reference_bitwise(
        self, lanes, capacity, p_active, p_idle_tick, seed
    ):
        rng = np.random.default_rng(seed)
        bank = SortedWindowBank(lanes, capacity)
        assert bank._ranks.dtype == (np.int8 if capacity <= 127 else np.int16)
        ref = _ReferenceBank(lanes, capacity)
        # any sequence start: a restored lane resumes mid-ring
        appended = rng.integers(0, 3 * capacity, lanes)
        # 2C + 5 ticks take every often-active lane through
        # grow -> full -> steady
        for _ in range(2 * capacity + 5):
            values = _TIE_POOL[rng.integers(0, _TIE_POOL.size, lanes)]
            active = rng.random(lanes) < p_active
            if rng.random() < p_idle_tick:
                active[:] = False
            bank.replace(values, active, appended % capacity)
            appended += active
            ref.replace(values, active)
            counts = [len(lane) for lane in ref.sorted]
            assert bank.counts.tolist() == counts
            _assert_ranks_are_permutations(bank)
            meds, mins, maxs = bank.medians(), bank.mins(), bank.maxs()
            ordered = _rank_ordered(bank)
            for lane, want in enumerate(ref.sorted):
                n = len(want)
                row = ordered[:, lane]
                assert np.array_equal(
                    row[:n].view(np.int64),
                    np.array(want, dtype=np.float64).view(np.int64),
                )
                assert np.all(row[n:] == np.inf)
                if n == 0:
                    assert np.isnan(meds[lane])
                    continue
                # the independent definitions, by value (0.0 == -0.0)
                window = ref.window(lane)
                assert meds[lane] == np.median(window)
                assert mins[lane] == min(window)
                assert maxs[lane] == max(window)
                assert mins[lane].tobytes() == row[0].tobytes()
                assert maxs[lane].tobytes() == row[n - 1].tobytes()


# ----------------------------------------------------------------------
# Arena: Equation 4 statistics against the naive definition
# ----------------------------------------------------------------------
class TestFleetArena:
    def test_stats_match_naive_definition(self):
        rng = np.random.default_rng(5)
        S, attrs, cap, w = 4, ["x", "y"], 12, 4
        arena = FleetArena(S, attrs, cap, w)
        history = [[] for _ in range(S)]
        for t in range(40):
            values = rng.normal(size=(S, len(attrs))) * 10.0
            active = rng.random(S) < 0.85
            times = np.full(S, float(t + 1))
            arena.append(times, values, active)
            for s in range(S):
                if active[s]:
                    history[s].append(values[s])
            stats = arena.stats()
            for s in range(S):
                rows = np.asarray(history[s][-cap:])
                if rows.size == 0:
                    continue
                matrix = rows.T  # (attrs, n)
                assert np.array_equal(stats.mins[s], matrix.min(axis=1))
                assert np.array_equal(stats.maxs[s], matrix.max(axis=1))
                n = matrix.shape[1]
                for j in range(len(attrs)):
                    col = matrix[j]
                    span = col.max() - col.min()
                    if n <= w or span <= 0:
                        assert stats.powers[s, j] == 0.0
                        continue
                    wm = np.array(
                        [
                            np.median(col[i : i + w])
                            for i in range(n - w + 1)
                        ]
                    )
                    expect = (
                        max(
                            abs(np.median(col) - wm.min()),
                            abs(np.median(col) - wm.max()),
                        )
                        / span
                    )
                    assert stats.powers[s, j] == expect

    def test_view_exposes_retained_rows_in_order(self):
        arena = FleetArena(2, ["a"], 3, 2)
        for t in range(5):
            arena.append(
                np.array([t + 1.0, t + 1.0]),
                np.array([[float(t)], [float(10 + t)]]),
                np.array([True, t % 2 == 0]),
            )
        v0 = arena.view(0)
        assert v0.timestamps.tolist() == [3.0, 4.0, 5.0]
        assert v0.column("a").tolist() == [2.0, 3.0, 4.0]
        assert v0.bounds("a") == (2.0, 4.0)
        assert v0.oldest_seq == 2

    def test_append_rejects_bad_rows_before_any_write(self):
        # a 4-slot lane fed 3, 1, NaN, 2, 5, 4, 6 used to report median
        # 3.5 and min 4.0 for the window 2, 5, 4, 6 once the NaN had left
        arena = FleetArena(2, ["a"], 4, 2)
        both = np.ones(2, dtype=bool)
        for t, v in ((1.0, 3.0), (2.0, 1.0)):
            arena.append(np.full(2, t), np.full((2, 1), v), both)

        def state():
            return [
                arena.appended.copy(),
                arena.sizes.copy(),
                arena._overall.medians(),
                arena._trailing.medians(),
                arena._medring.copy(),
                arena._ts.copy(),
            ]

        before = state()
        bad_rows = [
            ([3.0, 3.0], [[np.nan], [2.0]]),  # the NaN
            ([3.0, 3.0], [[2.0], [np.inf]]),  # ±inf on another stream
            ([2.0, 3.0], [[2.0], [2.0]]),  # a repeated timestamp
            ([3.0, 1.5], [[2.0], [2.0]]),  # time going back
            ([np.nan, 3.0], [[2.0], [2.0]]),  # a NaN timestamp
        ]
        for times, values in bad_rows:
            with pytest.raises(ValueError):
                arena.append(np.array(times), np.array(values), both)
            for got, want in zip(state(), before):
                assert np.array_equal(got, want, equal_nan=True)
        # an inactive stream's row is never read
        first = np.array([True, False])
        arena.append(np.array([3.0, 0.0]), np.array([[2.0], [np.nan]]), first)
        for t, v in ((4.0, 5.0), (5.0, 4.0), (6.0, 6.0)):
            arena.append(np.array([t, 0.0]), np.array([[v], [0.0]]), first)
        assert arena.view(0).column("a").tolist() == [2.0, 5.0, 4.0, 6.0]
        assert arena._overall.medians()[0] == 4.5
        assert arena.stats().mins[0, 0] == 2.0

    def test_engine_reproduces_frozen_digest(self):
        """Powers, selections and closed regions of a chaotic 64 × 8 run
        with a mid-run checkpoint restore match the digest frozen from
        the sorted-shift bank the rank-indexed bank replaced."""
        want = json.loads(ARENA_DIGEST.read_text())
        got = run_arena_digest()
        diverged = [
            t for t, (a, b) in enumerate(zip(got["ticks"], want["ticks"]))
            if a != b
        ]
        assert not diverged, f"first diverging tick: {diverged[0]}"
        assert got == want

    # -- window reads against a deque-of-rows reference ----------------
    @staticmethod
    def _assert_window(arena, s, rows):
        """Stream *s*'s reads equal the retained *rows* byte for byte,
        and row ``k`` sits at slot ``k % capacity`` of the one store."""
        A, cap = len(arena.attributes), arena.capacity
        stamps = np.array([t for t, _ in rows], dtype=np.float64)
        want = np.array([v for _, v in rows], dtype=np.float64).reshape(-1, A)
        view = arena.view(s)
        assert view.n_rows == len(rows)
        assert view.timestamps.tobytes() == stamps.tobytes()
        order = list(range(A))[::-1]
        picked = [arena.attributes[j] for j in order]
        got = view.matrix(picked)
        assert got.flags.c_contiguous
        assert got.tobytes() == want[:, order].tobytes()
        ds = view.to_dataset()
        assert ds.timestamps.tobytes() == stamps.tobytes()
        for j, a in enumerate(arena.attributes):
            col = np.ascontiguousarray(want[:, j])
            assert view.column(a).tobytes() == col.tobytes()
            assert ds.column(a).tobytes() == col.tobytes()
        values = arena._overall._values
        for k, (t, row) in enumerate(rows, start=view.oldest_seq):
            assert arena._ts[s, k % cap].tobytes() == np.float64(t).tobytes()
            assert (
                values[k % cap, s * A : (s + 1) * A].tobytes() == row.tobytes()
            )

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.one_of(st.integers(2, 20), st.integers(125, 130)),
        n_streams=st.integers(1, 4),
        n_attrs=st.integers(1, 3),
        p_active=st.sampled_from([0.3, 0.8, 1.0]),
        restore_at=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(
        capacity=12, n_streams=4, n_attrs=2, p_active=0.8,
        restore_at=0.6, seed=1,
    )
    @example(
        capacity=129, n_streams=2, n_attrs=1, p_active=0.8,
        restore_at=0.7, seed=2,
    )
    def test_windows_match_row_reference_across_restore(
        self, capacity, n_streams, n_attrs, p_active, restore_at, seed
    ):
        rng = np.random.default_rng(seed)
        S, A = n_streams, n_attrs
        attrs = [f"x{j}" for j in range(A)]
        fleet = FleetDetector(S, attrs, capacity=capacity, window=2)
        ref = [deque(maxlen=capacity) for _ in range(S)]
        ticks = 2 * capacity + 5
        for t in range(ticks):
            if t == int(restore_at * ticks):
                states = [
                    json.loads(json.dumps(fleet.stream_checkpoint(s)))
                    for s in range(S)
                ]
                for s in range(1, S):
                    if rng.random() < 0.25:  # this lane restarts empty
                        states[s] = None
                        ref[s].clear()
                fleet = FleetDetector.from_checkpoints(states, attributes=attrs)
                for s in range(S):
                    self._assert_window(fleet.arena, s, ref[s])
            values = _TIE_POOL[rng.integers(0, _TIE_POOL.size, (S, A))]
            active = rng.random(S) < p_active
            times = t + rng.random(S)
            fleet.ingest(times, values, active)
            for s in np.nonzero(active)[0]:
                ref[s].append((times[s], values[s].copy()))
            for s in range(S):
                self._assert_window(fleet.arena, s, ref[s])

    @settings(max_examples=15, deadline=None)
    @given(
        capacity=st.one_of(st.integers(2, 20), st.integers(125, 130)),
        restore_at=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(capacity=7, restore_at=0.6, seed=3)
    def test_stream_window_categoricals_match_row_reference(
        self, capacity, restore_at, seed
    ):
        rng = np.random.default_rng(seed)
        detector = StreamingDetector(capacity=capacity, window=2)
        ref = deque(maxlen=capacity)
        ticks = 2 * capacity + 5
        for t in range(ticks):
            if t == int(restore_at * ticks) and detector.window is not None:
                detector = StreamingDetector.from_checkpoint(
                    json.loads(json.dumps(detector.checkpoint()))
                )
            value = float(_TIE_POOL[rng.integers(0, _TIE_POOL.size)])
            label = f"c{rng.integers(0, 3)}"
            detector.observe(float(t), {"a": value}, {"c": label})
            ref.append((float(t), value, label))
            window = detector.window
            labels = [label for _, _, label in ref]
            assert list(window.column("c")) == labels
            ds = window.to_dataset()
            assert list(ds.column("c")) == labels
            assert ds.column("a").tobytes() == np.array(
                [v for _, v, _ in ref]
            ).tobytes()
            buf = detector._categorical["c"]
            assert buf.shape == (capacity,)
            for k, want in enumerate(labels, start=window.oldest_seq):
                assert buf[k % capacity] == want


# ----------------------------------------------------------------------
# Bitwise equivalence with an independent per-stream reference
# ----------------------------------------------------------------------
DETECTOR_KW = dict(
    capacity=40,
    window=8,
    pp_threshold=0.45,
    min_pts=3,
    cluster_fraction=0.2,
    min_region_s=2.0,
    gap_fill_s=3.0,
)


class _Reference:
    """One stream: oracle-repaired rows → batch detect → close_regions."""

    def __init__(self, attrs, **quarantine_kw):
        kw = dict(DETECTOR_KW)
        self.oracle = IngestOracle(attrs, kw.pop("capacity"), **quarantine_kw)
        self.batch = AnomalyDetector(**kw)
        self.emitted = set()
        self.ticks = 0
        self.reclusters = 0

    def tick(self, time, row):
        self.oracle.observe(time, row)
        self.ticks += 1
        window = self.oracle.window()
        result = self.batch.detect(window, self.oracle.candidates())
        closed, self.emitted = close_regions(
            result.regions,
            window.timestamps,
            self.batch.gap_fill_s,
            self.emitted,
        )
        reclustered = bool(result.selected_attributes)
        self.reclusters += reclustered
        return result, closed, reclustered


def _references(n, attrs, **quarantine_kw):
    return [_Reference(attrs, **quarantine_kw) for _ in range(n)]


def _run_equivalence(rounds, fleet, refs, attrs):
    """Feed identical rows to the fleet and the references, asserting
    every lane on every tick, then every lane's counters and state."""
    for times, values, active in rounds:
        tick = fleet.tick(times, values, active)
        for s, ref in enumerate(refs):
            if not active[s]:
                continue
            row = {a: values[s, j] for j, a in enumerate(attrs)}
            want, closed, reclustered = ref.tick(times[s], row)
            got = tick.result(s)
            assert got.selected_attributes == want.selected_attributes
            assert np.array_equal(got.mask, want.mask)
            assert got.regions == want.regions
            assert got.eps == want.eps
            assert tick.closed.get(s, []) == closed
            assert bool(tick.reclustered[s]) == reclustered
            quarantined = set(fleet.quarantined_attributes(s))
            assert quarantined == ref.oracle.quarantined
    for s, ref in enumerate(refs):
        oracle = ref.oracle
        assert fleet.dropped_counts[s] == oracle.dropped
        assert fleet.sanitized_counts[s] == oracle.sanitized
        assert fleet.tick_counts[s] == ref.ticks
        assert fleet.recluster_counts[s] == ref.reclusters
        state = fleet.stream_checkpoint(s)
        window = oracle.window()
        assert state["window"]["timestamps"] == window.timestamps.tolist()
        for a in attrs:
            assert state["window"]["numeric"][a] == window.column(a).tolist()
        oldest = float(window.timestamps[0])
        assert state["emitted_ends"] == sorted(
            e for e in ref.emitted if e >= oldest
        )


class TestFleetEquivalence:
    def test_clean_stream_bitwise_equal(self):
        S, attrs = 5, ["a", "b", "c"]
        src = FleetSimSource(
            S,
            attrs,
            seed=21,
            anomaly_fraction=0.4,
            anomaly_period=25,
            anomaly_duration=12,
            anomaly_scale=10.0,
        )
        fleet = FleetDetector(S, attrs, **DETECTOR_KW)
        refs = _references(S, attrs)
        _run_equivalence(src.take(90), fleet, refs, attrs)

    def test_moderate_chaos_bitwise_equal(self):
        """Identical verdicts/quarantines/counters under `moderate`.

        Per-tenant tick streams go through the real `moderate` fault
        plan (5% dropped ticks, 2% NaN cells, one stuck-at attribute),
        then the *delivered* rows feed both the fleet engine and the
        per-stream references with stuck-at quarantine on.
        """
        S, attrs = 4, ["a", "b", "c"]
        profile = PROFILES["moderate"]
        base_rng = np.random.default_rng(99)
        delivered = []
        for s in range(S):
            ticks = []
            for t in range(110):
                row = {
                    a: float(
                        50.0
                        + 10 * base_rng.standard_normal()
                        + (40.0 if s < 2 and 60 <= t < 75 and a != "c" else 0)
                    )
                    for a in attrs
                }
                ticks.append((float(t + 1), row, {}))
            plan = profile.plan(seed=1000 + s)
            delivered.append(list(plan.wrap(iter(ticks))))

        def rounds():
            n_rounds = max(len(d) for d in delivered)
            for r in range(n_rounds):
                times = np.zeros(S)
                values = np.zeros((S, len(attrs)))
                active = np.zeros(S, dtype=bool)
                for s in range(S):
                    if r < len(delivered[s]):
                        t, row, _ = delivered[s][r]
                        times[s] = t
                        values[s] = [
                            row.get(a, float("nan")) for a in attrs
                        ]
                        active[s] = True
                yield times, values, active

        fleet = FleetDetector(S, attrs, quarantine_after=5, **DETECTOR_KW)
        refs = _references(S, attrs, quarantine_after=5)
        _run_equivalence(rounds(), fleet, refs, attrs)
        assert fleet.sanitized_counts.sum() > 0
        assert fleet.quarantined.any()

    def test_variance_quarantine_bitwise_equal(self):
        S, attrs = 3, ["a", "b"]
        src = FleetSimSource(
            S,
            attrs,
            seed=4,
            anomaly_fraction=0.5,
            anomaly_period=20,
            anomaly_duration=10,
            anomaly_scale=9.0,
            stuck_streams=[1],
            stuck_attr="b",
        )
        kw = dict(quarantine_after=6, quarantine_rel_epsilon=1e-3)
        fleet = FleetDetector(S, attrs, **DETECTOR_KW, **kw)
        refs = _references(S, attrs, **kw)
        _run_equivalence(src.take(70), fleet, refs, attrs)
        assert fleet.quarantined[1, 1]  # the stuck lane was caught

    def test_non_monotone_rows_dropped(self):
        S, attrs = 3, ["a", "b"]
        src = FleetSimSource(
            S, attrs, seed=8, anomaly_fraction=0.7, anomaly_scale=10.0,
            anomaly_period=20, anomaly_duration=10,
        )

        def rounds():
            for r, (times, values, active) in enumerate(src.take(80)):
                times = times.copy()
                if r % 7 == 3:
                    times[r % S] -= 2.0  # a late row
                elif r % 7 == 5:
                    times[r % S] -= 1.0  # a repeated timestamp
                yield times, values, active

        fleet = FleetDetector(S, attrs, **DETECTOR_KW)
        refs = _references(S, attrs)
        _run_equivalence(rounds(), fleet, refs, attrs)
        assert fleet.dropped_counts.sum() > 0

    def test_nonfinite_cells_bitwise_equal(self):
        """±inf cells are repaired like NaN: last finite value."""
        S, attrs = 3, ["a", "b"]
        src = FleetSimSource(
            S, attrs, seed=12, anomaly_fraction=0.7, anomaly_scale=10.0,
            anomaly_period=20, anomaly_duration=10,
        )
        bad = [np.inf, -np.inf, np.nan]

        def rounds():
            for r, (times, values, active) in enumerate(src.take(80)):
                values = values.copy()
                if r % 5 == 2:
                    values[r % S, r % len(attrs)] = bad[r % 3]
                yield times, values, active

        fleet = FleetDetector(S, attrs, **DETECTOR_KW)
        refs = _references(S, attrs)
        _run_equivalence(rounds(), fleet, refs, attrs)
        assert fleet.sanitized_counts.sum() == 16
        for s in range(S):
            assert np.isfinite(fleet.arena.view(s).matrix(attrs)).all()

    def test_checkpoint_restore_is_bitwise(self):
        S, attrs = 3, ["a", "b"]
        src = FleetSimSource(
            S, attrs, seed=13, anomaly_fraction=0.5, anomaly_scale=10.0,
            anomaly_period=20, anomaly_duration=10,
        )
        fleet = FleetDetector(S, attrs, quarantine_after=5, **DETECTOR_KW)
        batches = list(src.take(120))
        for times, values, active in batches[:50]:
            fleet.tick(times, values, active)
        states = [fleet.stream_checkpoint(s) for s in range(S)]
        # a single-stream detector accepts the same checkpoint unchanged
        solo = StreamingDetector.from_checkpoint(states[0])
        assert solo.checkpoint() == states[0]
        restored = FleetDetector.from_checkpoints(states)
        for s in range(S):
            assert restored.stream_checkpoint(s) == states[s]
        for times, values, active in batches[50:]:
            a = fleet.tick(times, values, active)
            b = restored.tick(times, values, active)
            assert np.array_equal(a.selected, b.selected)
            assert np.array_equal(a.powers, b.powers)
            assert sorted(a.results) == sorted(b.results)
        for s in range(S):
            assert fleet.stream_checkpoint(s) == restored.stream_checkpoint(
                s
            )


# ----------------------------------------------------------------------
# Scheduler: backpressure, shedding, durability
# ----------------------------------------------------------------------
def _busy_source(S, attrs, seed=7):
    return FleetSimSource(
        S,
        attrs,
        seed=seed,
        anomaly_fraction=0.6,
        anomaly_period=25,
        anomaly_duration=16,
        anomaly_scale=14.0,
    )


_BUSY_KW = dict(DETECTOR_KW, pp_threshold=0.3)


class TestFleetScheduler:
    ATTRS = ["a", "b", "c"]

    def _detector(self, S, **extra):
        return FleetDetector(S, self.ATTRS, **_BUSY_KW, **extra)

    def test_block_policy_diagnoses_everything(self):
        S = 8
        sched = FleetScheduler(
            self._detector(S),
            sherlock=DBSherlock(),
            max_pending=1,
            diagnose_jobs=1,
            shed_policy="block",
            label_metrics=False,
        )
        report = sched.run(_busy_source(S, self.ATTRS).take(120))
        sched.close()
        assert report.shed == 0
        assert report.diagnoses == report.closed_regions > 0
        assert all(
            exp.predicates is not None for _, _, exp in sched.diagnoses
        )

    def test_shedding_policies_bound_the_queue(self):
        for policy in ("drop_oldest", "reject_new"):
            S = 8
            sched = FleetScheduler(
                self._detector(S),
                sherlock=DBSherlock(),
                max_pending=1,
                diagnose_jobs=1,
                shed_policy=policy,
                label_metrics=False,
            )
            report = sched.run(_busy_source(S, self.ATTRS).take(120))
            sched.close()
            assert report.diagnoses + report.shed == report.closed_regions
            if report.shed:
                assert sum(report.shed_by_tenant.values()) == report.shed

    def test_rejects_bad_configuration(self):
        det = self._detector(2)
        with pytest.raises(ValueError):
            FleetScheduler(det, shed_policy="nope")
        with pytest.raises(ValueError):
            FleetScheduler(det, tenants=["only-one"])
        with pytest.raises(ValueError):
            FleetScheduler(det, tenants=["x", "x"])
        with pytest.raises(ValueError):
            FleetScheduler(det, durable=["x"], tenants=["x", "y"])

    def test_wal_crash_recovery_is_bitwise(self, tmp_path):
        S = 3
        tenants = ["alpha", "beta", "gamma"]
        src = _busy_source(S, self.ATTRS, seed=17)
        batches = list(src.take(70))
        sched = FleetScheduler(
            self._detector(S, quarantine_after=5),
            tenants=tenants,
            root_dir=tmp_path,
            durable=tenants,
            checkpoint_every=20,
            label_metrics=False,
        )
        for times, values, active in batches:
            sched.run_round(times, values, active)
        # crash: drop the scheduler without a final checkpoint — the
        # rows after round 60 live only in the WALs
        live_states = [
            sched.detector.stream_checkpoint(s) for s in range(S)
        ]
        sched.close()

        recovered = FleetScheduler.recover(
            tmp_path, tenants, label_metrics=False
        )
        for s in range(S):
            assert (
                recovered.detector.stream_checkpoint(s) == live_states[s]
            )
        # and the recovered fleet keeps ticking identically
        src2 = FleetSimSource(S, self.ATTRS, seed=555)
        for times, values, active in src2.take(5):
            a = sched.detector.tick(times, values, active)
            b = recovered.detector.tick(times, values, active)
            assert np.array_equal(a.selected, b.selected)
            assert np.array_equal(a.powers, b.powers)
        recovered.close()

    def test_latency_percentiles_and_verdict_latency(self):
        S = 4
        det = self._detector(S)
        sched = FleetScheduler(det, label_metrics=False)
        src = _busy_source(S, self.ATTRS)
        for times, values, active in src.take(30):
            tick = sched.run_round(times, values, active)
            lat = tick.verdict_latency
            assert lat is not None
            assert np.isfinite(lat[active]).all()
            assert (lat[active] > 0).all()
        pcts = sched.latency_percentiles()
        assert pcts["p50"] <= pcts["p90"] <= pcts["p99"]
        sched.close()


# ----------------------------------------------------------------------
# Lockstep recovery: one engine tick per tail row index, not per row
# ----------------------------------------------------------------------
def _crash_durable_fleet(root, tenants, attrs, batches, checkpoint_every):
    """Drive a durable fleet through *batches* and crash it without a
    final checkpoint.  Returns the live lane states, each tenant's WAL
    tail length (its rows after the last checkpoint) and the live
    ``(stream, region)`` closes of those rows, in submission order."""
    S = len(tenants)
    sched = FleetScheduler(
        FleetDetector(S, attrs, **_BUSY_KW),
        tenants=tenants,
        root_dir=root,
        durable=tenants,
        checkpoint_every=checkpoint_every,
        label_metrics=False,
    )
    first_tail_round = len(batches) // checkpoint_every * checkpoint_every
    tails = np.zeros(S, dtype=np.int64)
    closes = []
    for r, (times, values, active) in enumerate(batches):
        tick = sched.run_round(times, values, active)
        if r >= first_tail_round:
            tails += active
            closes += [
                (s, region)
                for s, regions in tick.closed.items()
                for region in regions
            ]
    live = [sched.detector.stream_checkpoint(s) for s in range(S)]
    sched.close()  # no final checkpoint: the tails live in the WALs
    return live, [int(n) for n in tails], closes


def _recover_counting(root, tenants, attrs):
    """``FleetScheduler.recover`` with a counting double on
    ``FleetDetector.tick`` (active lanes per call) and a recorder on
    the diagnosis submissions."""
    calls, submitted = [], []
    real_tick = FleetDetector.tick

    def counting_tick(self, times, values, active=None):
        calls.append(int(np.count_nonzero(active)))
        return real_tick(self, times, values, active)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetDetector, "tick", counting_tick)
        patch.setattr(
            FleetScheduler,
            "submit_diagnosis",
            lambda self, stream, region, dataset=None: submitted.append(
                (stream, region)
            ),
        )
        recovered = FleetScheduler.recover(
            root, tenants, attributes=attrs, label_metrics=False
        )
    return recovered, calls, submitted


class TestLockstepRecovery:
    ATTRS = ["a", "b", "c"]

    def test_one_tick_per_tail_row_index(self, tmp_path):
        """Uneven tails (0, 1, 7, 5, 6 rows) recover in 7 engine ticks,
        each ticking the lanes that still have a row; closed regions go
        out per round in stream order, exactly as the live rounds
        submitted them; every lane matches the live fleet bitwise."""
        tenants = [f"ls{i}" for i in range(5)]
        S = len(tenants)
        want_tails = [0, 1, 7, 5, 6]
        batches = []
        for r, (times, values, _) in enumerate(
            _busy_source(S, self.ATTRS, seed=31).take(23)
        ):
            # the last checkpoint lands after round 15; lanes 2-4 close
            # regions in round 20, the 5th row of their tails
            active = np.array([r < 16 + n for n in want_tails])
            batches.append((times, values, active))
        live, tails, closes = _crash_durable_fleet(
            tmp_path, tenants, self.ATTRS, batches, checkpoint_every=8
        )
        assert tails == want_tails
        recovered, calls, submitted = _recover_counting(
            tmp_path, tenants, self.ATTRS
        )
        assert calls == [sum(n > k for n in tails) for k in range(max(tails))]
        assert submitted == closes
        # replayed closes count like live ones: conservation holds
        assert recovered.report.closed_regions == len(closes)
        assert len({s for s, _ in closes}) > 1  # the order is exercised
        report = recovered.recovery_report
        assert report.recovered == tenants
        for s, name in enumerate(tenants):
            assert report.outcome(name).replayed_ticks == tails[s]
            assert recovered.detector.stream_checkpoint(s) == live[s]
        recovered.close()

    def test_attributes_come_from_the_tail_without_a_window(self, tmp_path):
        """Lanes idle through their only checkpoint leave window-less
        states; ``recover`` without ``attributes=`` takes the names from
        the first WAL tail row."""
        tenants = ["idle0", "idle1"]
        batches = [
            (times, values, np.full(2, r >= 5))
            for r, (times, values, _) in enumerate(
                _busy_source(2, self.ATTRS, seed=3).take(8)
            )
        ]
        live, tails, _ = _crash_durable_fleet(
            tmp_path, tenants, self.ATTRS, batches, checkpoint_every=5
        )
        assert tails == [3, 3]
        recovered = FleetScheduler.recover(
            tmp_path, tenants, label_metrics=False
        )
        assert recovered.detector.attributes == self.ATTRS
        assert recovered.recovery_report.recovered == tenants
        for s in range(2):
            assert recovered.detector.stream_checkpoint(s) == live[s]
        recovered.close()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        checkpoint_every=st.integers(3, 12),
        rounds=st.integers(12, 40),
        quiet_from=st.lists(st.integers(0, 40), min_size=4, max_size=4),
        absent=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_lockstep_matches_live_fleet(
        self, seed, checkpoint_every, rounds, quiet_from, absent
    ):
        """Any crash round, checkpoint cadence and activity pattern
        (tenants going quiet early leave short or empty tails; random
        absences leave gaps): recovery ticks max(tail) times and every
        lane's state equals the live fleet's."""
        tenants = [f"hx{i}" for i in range(4)]
        S = len(tenants)
        rng = np.random.default_rng(seed)
        batches = []
        for r, (times, values, _) in enumerate(
            _busy_source(S, self.ATTRS, seed=seed).take(rounds)
        ):
            active = (np.array(quiet_from) > r) & (rng.random(S) >= absent)
            batches.append((times, values, active))
        # hypothesis reruns the body, so no function-scoped fixtures
        with tempfile.TemporaryDirectory() as root:
            live, tails, _ = _crash_durable_fleet(
                root, tenants, self.ATTRS, batches, checkpoint_every
            )
            recovered, calls, _ = _recover_counting(
                root, tenants, self.ATTRS
            )
            assert len(calls) == max(tails)
            for s, name in enumerate(tenants):
                outcome = recovered.recovery_report.outcome(name)
                assert outcome.status == "recovered"
                assert outcome.replayed_ticks == tails[s]
                assert recovered.detector.stream_checkpoint(s) == live[s]
            recovered.close()

    def test_unconvertible_row_fails_only_its_own_lane(self):
        rows = [
            (float(t), {"a": t * 1.5, "b": 2.0 - t, "c": t % 3}, {})
            for t in range(1, 6)
        ]
        bad = [rows[0], (2.0, {"a": "not a number", "b": 0.0}, {}), rows[2]]
        detector = FleetDetector(2, self.ATTRS, **_BUSY_KW)
        twin = FleetDetector(1, self.ATTRS, **_BUSY_KW)
        loads = [
            TenantLoad(TenantRecovery(name, "recovered"), {}, None, tail)
            for name, tail in (("bad", bad), ("good", rows))
        ]
        report = replay_lockstep(detector, loads, lambda s, region: None)
        failed, ok = report.outcomes
        assert (failed.status, failed.replayed_ticks) == ("replay_failed", 1)
        assert "not a number" in failed.detail
        assert detector.poisoned[0] and not detector.poisoned[1]
        assert (ok.status, ok.replayed_ticks) == ("recovered", len(rows))
        for t, row, _ in rows:
            twin.tick(np.array([t]), np.array([[row[a] for a in self.ATTRS]]))
        assert detector.stream_checkpoint(1) == twin.stream_checkpoint(0)


# ----------------------------------------------------------------------
# Status rendering
# ----------------------------------------------------------------------
class TestFleetStatus:
    def test_renders_per_tenant_rows_from_registry(self):
        registry = MetricsRegistry()
        lag = registry.gauge(
            "repro_fleet_tenant_lag", "lag", labelnames=("tenant",)
        )
        verdicts = registry.counter(
            "repro_fleet_tenant_verdicts_total",
            "verdicts",
            labelnames=("tenant", "verdict"),
        )
        lag.labels(tenant="t1").set(3)
        verdicts.labels(tenant="t1", verdict="abnormal").inc(2)
        verdicts.labels(tenant="t1", verdict="normal").inc(5)
        rounds = registry.counter("repro_fleet_rounds_total", "rounds")
        rounds.inc(7)
        text = render_fleet_status(registry.snapshot())
        assert "rounds 7" in text
        assert "t1" in text
        lines = [l for l in text.splitlines() if l.strip().startswith("t1")]
        assert len(lines) == 1
        fields = lines[0].split()
        # columns: tenant  health  breaker  durable  lag  shed  normal  abnormal
        assert fields[1] == "healthy" and fields[2] == "closed"
        assert fields[3] == "-"  # durability: not a durable tenant
        assert fields[4] == "3"  # lag
        assert fields[6] == "5" and fields[7] == "2"  # normal, abnormal

    def test_empty_snapshot_degrades_gracefully(self):
        text = render_fleet_status({})
        assert "no fleet metrics" in text
        assert "label_metrics=True" in text


# ----------------------------------------------------------------------
# Batched fallout: the fused storm call vs one-lane calls
# ----------------------------------------------------------------------
def _assert_fleet_ticks_match(a, b):
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.powers, b.powers)
    assert np.array_equal(a.reclustered, b.reclustered)
    assert sorted(a.results) == sorted(b.results)
    for s in a.results:
        ra, rb = a.result(s), b.result(s)
        assert ra.selected_attributes == rb.selected_attributes
        assert np.array_equal(ra.mask, rb.mask)
        assert ra.regions == rb.regions
        assert ra.eps == rb.eps
    assert a.closed == b.closed


def _assert_same_result(a, b):
    assert a.selected_attributes == b.selected_attributes
    assert a.mask.dtype == b.mask.dtype
    assert np.array_equal(a.mask, b.mask)
    assert a.regions == b.regions
    assert np.float64(a.eps).tobytes() == np.float64(b.eps).tobytes()


def _one_lane(detector, window, selected):
    """The batch detector's one-lane clustering of *window*'s columns."""
    matrix = np.column_stack(
        [normalize_values(window.column(a)) for a in selected]
    )
    return detector._cluster_and_mask(
        matrix, window.timestamps, list(selected)
    )


def _assert_fallout_is_one_lane_calls(det, tick, active, emitted_before):
    """Every lane of *tick*'s fused fallout equals one-lane calls on its
    window: the batch detector's clustering, then ``close_regions``."""
    assert np.array_equal(tick.reclustered, active & tick.selected.any(axis=1))
    assert sorted(tick.results) == np.flatnonzero(tick.reclustered).tolist()
    for s, got in tick.results.items():
        view = det.arena.view(s)
        names = [a for a, on in zip(det.attributes, tick.selected[s]) if on]
        want = _one_lane(det.batch, view, names)
        _assert_same_result(got, want)
        closed, emitted = close_regions(
            want.regions, view.timestamps, det.batch.gap_fill_s,
            emitted_before[s],
        )
        assert tick.closed.get(s, []) == closed
        assert det._emitted[s] == emitted


class TestBatchedFalloutEquivalence:
    """The fleet's fused fallout is lane by lane the one-lane call.

    The fleet engine re-clusters every fallout stream of a tick in one
    ``cluster_windows_batch``/``close_regions_batch`` call; these tests
    drive a fleet over storm rounds — clean, under chaos-degraded
    telemetry, and across a checkpoint/restore boundary — and check each
    tick's fallout lanes against the batch detector's one-lane
    clustering and ``close_regions`` on the same window.
    """

    def _run(self, det, rounds):
        """Tick *det* through *rounds*, checking every tick's fallout."""
        ticks = []
        for times, values, active in rounds:
            emitted_before = [set(e) for e in det._emitted]
            ticks.append(det.tick(times, values, active))
            _assert_fallout_is_one_lane_calls(
                det, ticks[-1], np.asarray(active, dtype=bool), emitted_before
            )
        return ticks

    def test_storm_source_bitwise_equal(self):
        S, attrs = 6, ["a", "b", "c"]
        rounds = list(_busy_source(S, attrs, seed=29).take(100))
        fleet = FleetDetector(S, attrs, **_BUSY_KW)
        self._run(fleet, rounds)
        # the source must actually have produced fallout work
        assert fleet.recluster_counts.sum() > 0

    def test_moderate_chaos_bitwise_equal(self):
        S, attrs = 4, ["a", "b", "c"]
        profile = PROFILES["moderate"]
        base_rng = np.random.default_rng(31)
        delivered = []
        for s in range(S):
            ticks = []
            for t in range(110):
                row = {
                    a: float(
                        50.0
                        + 10 * base_rng.standard_normal()
                        + (40.0 if s < 2 and 60 <= t < 75 and a != "c" else 0)
                    )
                    for a in attrs
                }
                ticks.append((float(t + 1), row, {}))
            plan = profile.plan(seed=2000 + s)
            delivered.append(list(plan.wrap(iter(ticks))))

        rounds = []
        n_rounds = max(len(d) for d in delivered)
        for r in range(n_rounds):
            times = np.zeros(S)
            values = np.zeros((S, len(attrs)))
            active = np.zeros(S, dtype=bool)
            for s in range(S):
                if r < len(delivered[s]):
                    t, row, _ = delivered[s][r]
                    times[s] = t
                    values[s] = [row.get(a, float("nan")) for a in attrs]
                    active[s] = True
            rounds.append((times, values, active))
        fleet = FleetDetector(S, attrs, quarantine_after=5, **_BUSY_KW)
        self._run(fleet, rounds)
        assert fleet.recluster_counts.sum() > 0

    def test_checkpoint_restore_continues_bitwise(self):
        S, attrs = 4, ["a", "b"]
        batches = list(_busy_source(S, attrs, seed=43).take(110))
        live = FleetDetector(S, attrs, **_BUSY_KW)
        self._run(live, batches[:60])
        states = [live.stream_checkpoint(s) for s in range(S)]
        restored = FleetDetector.from_checkpoints(states)
        for s in range(S):
            assert restored.stream_checkpoint(s) == states[s]
        for times, values, active in batches[60:]:
            emitted_before = [set(e) for e in restored._emitted]
            a = live.tick(times, values, active)
            b = restored.tick(times, values, active)
            _assert_fleet_ticks_match(a, b)
            _assert_fallout_is_one_lane_calls(
                restored, b, np.asarray(active, dtype=bool), emitted_before
            )
        for s in range(S):
            assert live.stream_checkpoint(s) == restored.stream_checkpoint(s)

    def test_wide_schema_mixed_widths_bitwise_equal(self, monkeypatch):
        # 36 attributes; anomalous streams spike a different number of
        # them, so lanes sharing a row count select different widths in
        # the same tick (the batch groups them into one labelling pass)
        S, attrs = 8, [f"m{j}" for j in range(36)]
        rng = np.random.default_rng(47)
        base = rng.uniform(10.0, 100.0, (S, len(attrs)))
        spread = rng.uniform(0.5, 3.0, (S, len(attrs)))
        widths = [0, 0, 3, 9, 17, 26, 36, 12]
        rounds = []
        for t in range(110):
            values = base + rng.standard_normal(base.shape) * spread
            if t >= 12 and t % 25 < 10:
                for s, w in enumerate(widths):
                    values[s, :w] += 14.0 * spread[s, :w]
            rounds.append((np.full(S, t + 1.0), values, np.ones(S, bool)))

        calls = []
        real = fleet_engine.cluster_windows_batch

        def recording(batch, windows, selections):
            out = real(batch, windows, selections)
            calls.append(
                [(w.n_rows, len(sel)) for w, sel in zip(windows, selections)]
            )
            return out

        monkeypatch.setattr(fleet_engine, "cluster_windows_batch", recording)
        fleet = FleetDetector(S, attrs, **dict(_BUSY_KW, capacity=70))
        ticks = self._run(fleet, rounds)
        # one fused call per tick with fallout, and none raised
        assert len(calls) == sum(bool(t.reclustered.any()) for t in ticks) > 0
        # some tick really mixed widths within one row count
        assert any(
            len({k for n2, k in call if n2 == n}) > 1
            for call in calls
            for n, _k in call
        )

    def test_a_raising_fused_call_reruns_each_lane_alone(self, monkeypatch):
        S, attrs = 6, ["a", "b", "c"]
        rounds = list(_busy_source(S, attrs, seed=29).take(100))
        twin = FleetDetector(S, attrs, **_BUSY_KW)
        want = [twin.tick(*r) for r in rounds]
        bad = int(np.argmax(twin.recluster_counts))
        real = fleet_engine.cluster_windows_batch

        def sinks_with_lane(batch, windows, selections):
            if any(w._stream == bad for w in windows):
                raise FloatingPointError("pathological window")
            return real(batch, windows, selections)

        monkeypatch.setattr(
            fleet_engine, "cluster_windows_batch", sinks_with_lane
        )
        fleet = FleetDetector(S, attrs, **_BUSY_KW)
        for r, ref in zip(rounds, want):
            tick = fleet.tick(*r)
            for s in range(S):
                if s != bad:
                    _assert_same_result(tick.result(s), ref.result(s))
                    assert tick.closed.get(s) == ref.closed.get(s)
        assert fleet.poisoned.tolist() == [s == bad for s in range(S)]
        assert "FloatingPointError" in fleet.poison_reason(bad)


class TestFalloutKernelProperty:
    """Each lane of ``cluster_windows_batch`` is the one-lane call alone.

    Windows come from a real arena with mixed row counts (empty, at most
    ``min_pts``, partly filled, wrapped rings) and per-lane selections
    of mixed widths; quantized values give constant columns and
    duplicate rows.  The reference for a lane is the batch detector's
    one-lane ``_cluster_and_mask`` on its ``normalize_values`` matrix.
    Rows with NaN cells or timestamps that go back never get that far:
    the arena refuses them.  A lane's result must not depend on its
    batch-mates, so permuted subsets of the batch must reproduce it too.
    """

    ATTRS = [f"m{j}" for j in range(6)]

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.sampled_from([12, 70]),
        rows=st.lists(st.integers(0, 80), min_size=1, max_size=7),
        levels=st.sampled_from([0, 2, 3]),
        nan_lane=st.booleans(),
        nonmono_lane=st.booleans(),
        include_noise=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_lanes_match_serial_and_ignore_batch_mates(
        self,
        capacity,
        rows,
        levels,
        nan_lane,
        nonmono_lane,
        include_noise,
        seed,
    ):
        rng = np.random.default_rng(seed)
        S, A = len(rows), len(self.ATTRS)
        arena = FleetArena(S, self.ATTRS, capacity=capacity, window=3)
        for r in range(max(rows)):
            times = np.full(S, r + 1.0)
            if levels:
                values = rng.integers(0, levels, (S, A)).astype(float)
            else:
                values = rng.normal(50.0, 10.0, (S, A))
            values[:, 0] = 5.0  # a constant column in every lane
            active = np.asarray(rows) > r
            bad = None
            if nonmono_lane and r % 7 == 3 and active[0]:
                bad = times.copy(), values
                bad[0][0] = 0.5 * r  # lane 0 going back in time
            if nan_lane and r == rows[-1] - 1:
                bad = times, values.copy()
                bad[1][-1, 1] = np.nan  # the last lane's newest row
            if bad is not None:
                appended = arena.appended.copy()
                with pytest.raises(ValueError):
                    arena.append(bad[0], bad[1], active)
                assert np.array_equal(arena.appended, appended)
            arena.append(times, values, active)
        windows = [arena.view(s) for s in range(S)]
        selections = [
            [str(a) for a in rng.permutation(self.ATTRS)[:width]]
            for width in rng.integers(1, A + 1, S)
        ]
        detector = AnomalyDetector(
            min_pts=3,
            cluster_fraction=0.2,
            include_noise=include_noise,
            min_region_s=2.0,
            gap_fill_s=3.0,
        )
        full = cluster_windows_batch(detector, windows, selections)
        assert len(full) == S
        for s in range(S):
            _assert_same_result(
                full[s], _one_lane(detector, windows[s], selections[s])
            )
        subset = rng.permutation(S)[: rng.integers(0, S + 1)]
        part = cluster_windows_batch(
            detector,
            [windows[j] for j in subset],
            [selections[j] for j in subset],
        )
        for k, j in enumerate(subset):
            _assert_same_result(part[k], full[j])

    def test_nan_row_is_refused_and_the_lane_still_clusters(self):
        """A row with a NaN cell is refused by the arena before any
        write; the lane's window stays finite and its burst is found."""
        S, rows = 3, 75
        rng = np.random.default_rng(19)
        arena = FleetArena(S, self.ATTRS, capacity=80, window=5)
        for r in range(rows):
            values = rng.normal(50.0, 10.0, (S, len(self.ATTRS)))
            if 40 <= r < 55:
                values[:, :3] += 80.0
            active = np.ones(S, bool)
            if r in (10, 47):
                values[1, 2] = np.nan
                with pytest.raises(ValueError, match="stream 1"):
                    arena.append(np.full(S, r + 1.0), values, active)
                active[1] = False
            arena.append(np.full(S, r + 1.0), values, active)
        windows = [arena.view(s) for s in range(S)]
        assert windows[1].n_rows == rows - 2
        selections = [self.ATTRS[:4]] * S
        detector = AnomalyDetector(min_pts=3, min_region_s=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cluster_windows_batch(detector, windows, selections)
        want = _one_lane(detector, windows[1], selections[1])
        _assert_same_result(got[1], want)
        assert want.regions  # the burst is found


# ----------------------------------------------------------------------
# Scheduler under storm: fused batches, striped locks, shed policies
# ----------------------------------------------------------------------
class TestSchedulerStormStress:
    """All three shed policies at ``diagnose_jobs=8``: no diagnosis is
    lost or duplicated, and per-tenant verdict order stays monotone even
    though batches complete on a thread pool."""

    ATTRS = ["a", "b", "c"]

    def _drive(self, policy, max_pending):
        S = 8
        sched = FleetScheduler(
            FleetDetector(S, self.ATTRS, **_BUSY_KW),
            sherlock=DBSherlock(),
            diagnose_jobs=8,
            max_pending=max_pending,
            shed_policy=policy,
            label_metrics=False,
        )
        closed = {t: [] for t in sched.tenants}
        for times, values, active in _busy_source(S, self.ATTRS).take(120):
            tick = sched.run_round(times, values, active)
            for s in sorted(tick.closed):
                for region in tick.closed[s]:
                    closed[sched.tenants[s]].append(region)
        sched.drain()
        diagnosed = {t: [] for t in sched.tenants}
        for tenant, region, explanation in sched.diagnoses:
            assert explanation is not None
            assert explanation.predicates is not None
            diagnosed[tenant].append(region)
        report = sched.report
        sched.close()
        return report, closed, diagnosed

    @staticmethod
    def _is_subsequence(sub, full):
        it = iter(full)
        return all(any(x == y for y in it) for x in sub)

    @pytest.mark.parametrize(
        "policy,max_pending",
        [("block", 4), ("drop_oldest", 4), ("reject_new", 4)],
    )
    def test_no_lost_or_duplicated_diagnoses(self, policy, max_pending):
        report, closed, diagnosed = self._drive(policy, max_pending)
        assert report.closed_regions > 0
        # conservation: every closed region was diagnosed or shed, never both
        assert report.diagnoses + report.shed == report.closed_regions
        assert sum(len(v) for v in diagnosed.values()) == report.diagnoses
        for tenant in closed:
            shed_t = report.shed_by_tenant.get(tenant, 0)
            assert len(diagnosed[tenant]) + shed_t == len(closed[tenant]), (
                policy,
                tenant,
            )
            # monotone verdict order: diagnoses arrive in closed order
            assert self._is_subsequence(
                diagnosed[tenant], closed[tenant]
            ), (policy, tenant)
        if policy == "block":
            assert report.shed == 0
            for tenant in closed:
                assert diagnosed[tenant] == closed[tenant]


# ----------------------------------------------------------------------
# Shutdown races: close()/drain() while diagnosis work is in flight
# ----------------------------------------------------------------------
class TestSchedulerShutdownRaces:
    """Tearing the scheduler down mid-storm must not lose, duplicate, or
    leak work: ``close()`` called with fused batches still executing on
    the pool settles every job exactly once, under all three shed
    policies."""

    ATTRS = ["a", "b", "c"]

    def _storm_scheduler(self, policy, **extra):
        S = 8
        return FleetScheduler(
            FleetDetector(S, self.ATTRS, **_BUSY_KW),
            sherlock=DBSherlock(),
            diagnose_jobs=8,
            max_pending=4,
            shed_policy=policy,
            label_metrics=False,
            **extra,
        )

    @pytest.mark.parametrize("policy", ("block", "drop_oldest", "reject_new"))
    def test_close_with_batches_in_flight(self, policy):
        sched = self._storm_scheduler(policy)
        closed = {t: [] for t in sched.tenants}
        for times, values, active in _busy_source(8, self.ATTRS).take(60):
            tick = sched.run_round(times, values, active)
            for s in sorted(tick.closed):
                closed[sched.tenants[s]].extend(tick.closed[s])
        # no drain(): batches are still buffered and executing when the
        # shutdown starts — close() must settle them, not strand them
        assert sched.executor.queued() or sched.report.diagnoses
        sched.close()
        report = sched.report
        assert report.closed_regions > 0
        assert (
            report.diagnoses + report.shed + report.diagnosis_failures
            == report.closed_regions
        )
        assert report.diagnosis_failures == 0
        diagnosed = {t: [] for t in sched.tenants}
        for tenant, region, explanation in sched.diagnoses:
            assert explanation is not None
            diagnosed[tenant].append(region)
        for tenant in closed:
            shed_t = report.shed_by_tenant.get(tenant, 0)
            assert len(diagnosed[tenant]) + shed_t == len(closed[tenant]), (
                policy,
                tenant,
            )

    @pytest.mark.parametrize("policy", ("block", "drop_oldest", "reject_new"))
    def test_drain_midflight_then_resume(self, policy):
        sched = self._storm_scheduler(policy)
        src = _busy_source(8, self.ATTRS)
        batches = list(src.take(90))
        for times, values, active in batches[:45]:
            sched.run_round(times, values, active)
        sched.drain()  # barrier mid-storm, work still arriving after
        mid = sched.report.diagnoses + sched.report.shed
        assert mid == sched.report.closed_regions
        for times, values, active in batches[45:]:
            sched.run_round(times, values, active)
        sched.close()
        report = sched.report
        assert report.diagnoses + report.shed == report.closed_regions
        assert report.diagnoses + report.shed > mid

    def test_double_close_is_idempotent(self):
        sched = self._storm_scheduler("drop_oldest")
        for times, values, active in _busy_source(8, self.ATTRS).take(20):
            sched.run_round(times, values, active)
        sched.close()
        first = (sched.report.diagnoses, sched.report.shed)
        sched.close()  # second close: no new work, no exception
        assert (sched.report.diagnoses, sched.report.shed) == first

    def test_midstorm_checkpoint_restores_bitwise(self, tmp_path):
        """An explicit checkpoint taken while anomalies are open (regions
        growing, diagnosis batches in flight) restores bitwise."""
        S = 4
        tenants = [f"mid{i}" for i in range(S)]
        batches = list(_busy_source(S, self.ATTRS, seed=23).take(55))
        sched = FleetScheduler(
            FleetDetector(S, self.ATTRS, **_BUSY_KW),
            sherlock=DBSherlock(),
            tenants=tenants,
            root_dir=tmp_path,
            durable=tenants,
            diagnose_jobs=4,
            label_metrics=False,
        )
        for i, (times, values, active) in enumerate(batches):
            sched.run_round(times, values, active)
            if i == 34:  # inside the second anomaly window (25..40)
                sched.checkpoint()
        live = [sched.detector.stream_checkpoint(s) for s in range(S)]
        # crash without a final checkpoint: rounds 36..55 live in WALs
        sched.close()

        recovered = FleetScheduler.recover(tmp_path, tenants, label_metrics=False)
        for s in range(S):
            assert recovered.detector.stream_checkpoint(s) == live[s], s
        report = recovered.recovery_report
        assert report is not None and report.recovered == tenants
        assert all(
            report.outcome(t).replayed_ticks > 0 for t in tenants
        )
        # and it keeps ticking in lockstep with the crashed live fleet
        for times, values, active in FleetSimSource(
            S, self.ATTRS, seed=777
        ).take(5):
            a = sched.detector.tick(times, values, active)
            b = recovered.detector.tick(times, values, active)
            assert np.array_equal(a.selected, b.selected)
            assert np.array_equal(a.powers, b.powers, equal_nan=True)
            for s in range(S):
                assert a.closed.get(s, []) == b.closed.get(s, [])
        recovered.close()
