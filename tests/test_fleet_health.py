"""Failure containment: bulkheads, breakers, deadline tiers, recovery.

The robustness claim layered on top of the fleet engine: one hostile
tenant — a detection lane that raises, a diagnosis that hangs or fails,
durable state that rots on disk — loses service *itself* while every
other tenant's outputs stay bitwise-equal to a fault-free run.  The
full-fleet blast-radius assertion lives in
``benchmarks/bench_fleet_chaos.py``; these tests pin the individual
mechanisms.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.explain import DBSherlock
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec
from repro.faults import (
    CorruptTenantState,
    DiagnosisHang,
    LaneExceptionFault,
)
from repro.fleet import FleetDetector, FleetScheduler, FleetSimSource
from repro.fleet.health import (
    CircuitBreaker,
    HealthTracker,
    read_health_journal,
)

ATTRS = ["a", "b", "c"]

#: Hot-fleet detector: every anomalous tenant reliably falls out.
DET_KW = dict(
    capacity=40,
    window=8,
    pp_threshold=0.3,
    min_pts=3,
    cluster_fraction=0.2,
    min_region_s=2.0,
    gap_fill_s=3.0,
)


def _storm_source(S, seed=7):
    return FleetSimSource(
        S,
        ATTRS,
        seed=seed,
        anomaly_fraction=1.0,
        anomaly_period=25,
        anomaly_duration=16,
        anomaly_scale=14.0,
    )


def _job_dataset(tenant: str, seed: int = 0):
    rows, lo, hi = 60, 20, 35
    rng = np.random.default_rng(100 + seed)
    cols = {}
    for i, a in enumerate(ATTRS):
        base = rng.normal(50.0 + 3 * i, 2.0, size=rows)
        base[lo : hi + 1] += 14.0
        cols[a] = base
    ds = Dataset(
        np.arange(rows, dtype=np.float64),
        numeric=cols,
        name=f"fleet:{tenant}",
    )
    return ds, Region(float(lo), float(hi))


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        br = CircuitBreaker(failure_threshold=3, cooldown_rounds=5)
        assert br.admit(0) == "admit"
        assert not br.record_failure(0)
        assert not br.record_failure(0)
        assert br.record_failure(0)  # third consecutive -> open
        assert br.state == "open"
        assert br.opens == 1
        assert br.admit(1) == "reject"

    def test_success_resets_the_consecutive_count(self):
        br = CircuitBreaker(failure_threshold=2, cooldown_rounds=5)
        br.record_failure(0)
        br.record_success()
        br.record_failure(1)
        assert br.state == "closed"  # never reached 2 consecutive

    def test_half_open_admits_exactly_one_probe(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_rounds=3)
        br.record_failure(0)
        assert br.state == "open"
        assert br.admit(2) == "reject"  # cooldown not elapsed
        assert br.admit(3) == "probe"
        assert br.state == "half_open"
        assert br.admit(3) == "reject"  # probe already in flight

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_rounds=3)
        br.record_failure(0)
        assert br.admit(3) == "probe"
        assert br.record_failure(7)
        assert br.state == "open"
        assert br.opens == 2
        assert br.admit(9) == "reject"
        assert br.admit(10) == "probe"

    def test_probe_success_closes_and_readmits(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_rounds=3)
        br.record_failure(0)
        assert br.admit(3) == "probe"
        assert br.record_success()
        assert br.state == "closed"
        assert br.admit(4) == "admit"


# ----------------------------------------------------------------------
# Health tracker and its durable journal
# ----------------------------------------------------------------------
class TestHealthTracker:
    def test_transitions_are_journaled_for_durable_tenants(self, tmp_path):
        tracker = HealthTracker(
            ["alpha", "beta"],
            root_dir=tmp_path,
            durable=["alpha"],
            label_metrics=False,
        )
        assert tracker.state("alpha") == "healthy"
        assert tracker.set_state("alpha", "degraded", reason="slow", round_no=3)
        assert not tracker.set_state("alpha", "degraded")  # no-op repeat
        assert tracker.set_state("alpha", "healthy", reason="recovered")
        tracker.set_state("beta", "quarantined", reason="lane poisoned")
        tracker.close()

        entries = read_health_journal(tmp_path, "alpha")
        assert [(e["from"], e["to"]) for e in entries] == [
            ("healthy", "degraded"),
            ("degraded", "healthy"),
        ]
        assert entries[0]["reason"] == "slow"
        assert entries[0]["round"] == 3
        # beta is not durable: no journal on disk
        assert read_health_journal(tmp_path, "beta") == []
        counts = tracker.counts()
        assert counts["healthy"] == 1 and counts["quarantined"] == 1

    def test_journal_tolerates_a_torn_tail(self, tmp_path):
        tracker = HealthTracker(
            ["alpha"], root_dir=tmp_path, durable=["alpha"], label_metrics=False
        )
        tracker.set_state("alpha", "ejected", reason="breaker open")
        tracker.close()
        path = tmp_path / "alpha" / HealthTracker.JOURNAL_NAME
        with path.open("a") as handle:
            handle.write('{"tenant": "alpha", "from": "ejec')  # torn write
        entries = read_health_journal(tmp_path, "alpha")
        assert len(entries) == 1
        assert entries[0]["to"] == "ejected"

    def test_rejects_unknown_states(self):
        tracker = HealthTracker(["alpha"], label_metrics=False)
        with pytest.raises(ValueError):
            tracker.set_state("alpha", "on-fire")


class TestJournalUnderInjectedFaults:
    """``read_health_journal`` reads through the storage shim, so the
    same hostile-disk faults the WAL survives must not crash it."""

    def _journal(self, root, transitions=3):
        tracker = HealthTracker(
            ["alpha"], root_dir=root, durable=["alpha"], label_metrics=False
        )
        states = ["degraded", "healthy"] * transitions
        for round_no, state in enumerate(states[:transitions]):
            tracker.set_state(
                "alpha", state, reason=f"r{round_no}", round_no=round_no
            )
        tracker.close()
        return tracker

    def test_truncating_read_yields_intact_prefix(self, tmp_path):
        from repro.faults import fs as fsmod
        from repro.faults.fs import ReadCorruption, StorageShim

        self._journal(tmp_path, transitions=3)
        clean = read_health_journal(tmp_path, "alpha")
        assert len(clean) == 3
        shim = StorageShim([ReadCorruption(mode="truncate", seed=11)])
        with fsmod.scoped_fs(shim):
            torn = read_health_journal(tmp_path, "alpha")
        # never raises; whatever parses is an exact prefix of the truth
        assert torn == clean[: len(torn)]
        assert len(torn) < len(clean)

    def test_bitflipped_read_never_raises(self, tmp_path):
        from repro.faults import fs as fsmod
        from repro.faults.fs import ReadCorruption, StorageShim

        self._journal(tmp_path, transitions=3)
        clean = read_health_journal(tmp_path, "alpha")
        for seed in range(8):
            shim = StorageShim([ReadCorruption(mode="bitflip", seed=seed)])
            with fsmod.scoped_fs(shim):
                records = read_health_journal(tmp_path, "alpha")
            # a flipped bit may land inside a value: any surviving
            # record must still be a dict with the journal's shape
            assert len(records) <= len(clean)
            for record in records:
                assert isinstance(record, dict)

    def test_failing_read_reports_empty_and_counts(self, tmp_path):
        import errno

        from repro.faults import fs as fsmod
        from repro.faults.fs import FSFault, StorageShim
        from repro.obs import metrics

        class DeadRead(FSFault):
            kind = "dead_read"

            def on_read(self, path, data):
                self._fire()
                raise OSError(errno.EIO, "injected: read failed", path)

        self._journal(tmp_path, transitions=2)
        errors = metrics.REGISTRY.get("repro_storage_read_errors_total")
        before = errors.value if errors is not None else 0
        with fsmod.scoped_fs(StorageShim([DeadRead(path_filter="health")])):
            assert read_health_journal(tmp_path, "alpha") == []
        errors = metrics.REGISTRY.get("repro_storage_read_errors_total")
        assert errors is not None and errors.value >= before + 1

    def test_flaky_writes_keep_journal_parsable(self, tmp_path):
        from repro.faults import fs as fsmod
        from repro.faults.fs import FlakyIO, StorageShim

        shim = StorageShim(
            [FlakyIO(rate=0.5, seed=7, path_filter="health.log")]
        )
        with fsmod.scoped_fs(shim):
            tracker = HealthTracker(
                ["alpha"],
                root_dir=tmp_path,
                durable=["alpha"],
                label_metrics=False,
            )
            for round_no in range(8):
                state = "degraded" if round_no % 2 == 0 else "healthy"
                tracker.set_state(
                    "alpha", state, reason=f"r{round_no}", round_no=round_no
                )
            tracker.close()
        # some appends were eaten, but what landed must replay cleanly
        records = read_health_journal(tmp_path, "alpha")
        assert all(
            rec["tenant"] == "alpha" and rec["to"] in ("degraded", "healthy")
            for rec in records
        )


# ----------------------------------------------------------------------
# Lane bulkhead: one raising lane never poisons the rest
# ----------------------------------------------------------------------
class TestLaneBulkhead:
    def test_poisoned_lane_is_contained_and_readmittable(self):
        S, bad = 6, 2
        rounds = list(_storm_source(S).take(70))
        clean = FleetDetector(S, ATTRS, **DET_KW)
        faulted = FleetDetector(S, ATTRS, **DET_KW)
        fault = LaneExceptionFault([bad], after_fallouts=1)
        faulted.install_lane_fault(fault)

        lane_errors = {}
        for times, values, active in rounds:
            a = clean.tick(times, values, active)
            b = faulted.tick(times, values, active)
            lane_errors.update(b.lane_errors)
            for s in range(S):
                if s == bad:
                    continue
                ra, rb = a.result(s), b.result(s)
                assert np.array_equal(ra.mask, rb.mask), s
                assert ra.regions == rb.regions, s
                assert ra.eps == rb.eps, s
                assert a.closed.get(s, []) == b.closed.get(s, []), s

        assert fault.raised.get(bad, 0) >= 1
        assert set(np.nonzero(faulted.poisoned)[0]) == {bad}
        assert bad in lane_errors and "injected lane fault" in lane_errors[bad]
        for s in range(S):
            if s != bad:
                assert faulted.stream_checkpoint(
                    s
                ) == clean.stream_checkpoint(s), s

        # readmission: the lane resumes from its frozen last-good state
        fault.active = False
        faulted.unpoison(bad)
        assert not bool(faulted.poisoned[bad])
        for times, values, active in _storm_source(S, seed=99).take(5):
            tick = faulted.tick(times, values, active)
            assert not tick.lane_errors

    def test_scheduler_quarantines_poisoned_tenants(self):
        S = 4
        det = FleetDetector(S, ATTRS, **DET_KW)
        sched = FleetScheduler(det, label_metrics=False)
        det.install_lane_fault(LaneExceptionFault([1], after_fallouts=0))
        for times, values, active in _storm_source(S).take(40):
            sched.run_round(times, values, active)
        assert sched.health.state(sched.tenants[1]) == "quarantined"
        assert "lane poisoned" in sched.health.reason(sched.tenants[1])
        sched.readmit(sched.tenants[1])
        assert sched.health.state(sched.tenants[1]) == "healthy"
        sched.close()


    def test_readmit_replays_rows_skipped_while_poisoned(self, tmp_path):
        """A durable tenant poisoned at round 10 and readmitted at round
        20 replays the rows it skipped from its WAL (kept across the
        checkpoints in between): at round 30 its lane equals a
        never-poisoned twin's, and the replay's closes are counted."""
        tenants = ["p0", "p1"]
        batches = list(_storm_source(2, seed=5).take(30))

        def run(root, poisoned):
            sched = FleetScheduler(
                FleetDetector(2, ATTRS, **DET_KW),
                tenants=tenants,
                root_dir=root,
                durable=tenants,
                checkpoint_every=5,
                label_metrics=False,
            )
            for r, (times, values, active) in enumerate(batches):
                if poisoned and r == 10:
                    sched.detector.poison(0, "operator")
                if poisoned and r == 20:
                    sched.readmit("p0")
                sched.run_round(times, values, active)
            sched.close()
            return sched

        twin = run(tmp_path / "twin", False)
        sched = run(tmp_path / "readmitted", True)
        assert sched.detector.poison_skipped.tolist() == [10, 0]
        assert sched.detector.tick_counts.tolist() == [30, 30]
        for s in range(2):
            assert sched.detector.stream_checkpoint(
                s
            ) == twin.detector.stream_checkpoint(s), s
        assert sched.report.closed_regions == twin.report.closed_regions > 0
        assert sched.health.state("p0") == "healthy"

    def test_readmit_replay_that_faults_requarantines(self, tmp_path):
        tenants = ["q0", "q1"]
        det = FleetDetector(2, ATTRS, **DET_KW)
        sched = FleetScheduler(
            det,
            tenants=tenants,
            root_dir=tmp_path,
            durable=tenants,
            label_metrics=False,
        )
        det.install_lane_fault(LaneExceptionFault([0], after_fallouts=0))
        for times, values, active in _storm_source(2).take(60):
            sched.run_round(times, values, active)
        assert det.poison_skipped[0] > 0
        # the fault is still installed: replaying the skipped rows hits it
        sched.readmit("q0")
        assert bool(det.poisoned[0])
        assert sched.health.state("q0") == "quarantined"
        assert sched.health.reason("q0").startswith("readmission replay:")
        sched.close()


# ----------------------------------------------------------------------
# Diagnosis failures surface; retries isolate; the breaker ejects
# ----------------------------------------------------------------------
class _FlakySherlock:
    """Delegates to a real DBSherlock but raises for targeted tenants."""

    def __init__(self, tenants):
        self._inner = DBSherlock()
        self._bad = {f"fleet:{t}" for t in tenants}

    def explain(self, dataset, spec=None, **kwargs):
        if getattr(dataset, "name", None) in self._bad:
            raise RuntimeError("injected diagnosis fault")
        return self._inner.explain(dataset, spec, **kwargs)


class TestDiagnosisFailures:
    def test_failures_are_counted_retried_and_confined(self):
        S = 6
        sched = FleetScheduler(
            FleetDetector(S, ATTRS, **DET_KW),
            sherlock=_FlakySherlock(["t0001"]),
            diagnose_jobs=4,
            max_pending=64,
            label_metrics=False,
            breaker_threshold=1,
            breaker_cooldown_rounds=1000,  # stays open for this run
        )
        for times, values, active in _storm_source(S).take(120):
            sched.run_round(times, values, active)
        sched.drain()
        report = sched.report

        # the silent-swallow fix: failed futures surface in the report
        assert report.diagnosis_failures > 0
        assert set(report.failures_by_tenant) == {"t0001"}
        # a failed fused batch is retried as singletons, so healthy jobs
        # fused with the poison job still get real explanations
        assert report.retries >= report.diagnosis_failures
        assert (
            report.diagnoses + report.shed + report.diagnosis_failures
            == report.closed_regions
        )
        diagnosed_tenants = {t for t, _, _ in sched.diagnoses}
        assert "t0001" not in diagnosed_tenants
        assert diagnosed_tenants  # everyone else still got answers
        for _, _, explanation in sched.diagnoses:
            assert explanation.predicates is not None

        # the failure tripped t0001's breaker and ejected it
        assert report.failures_by_tenant["t0001"] >= 1
        assert sched.health.breakers["t0001"].state == "open"
        assert sched.health.state("t0001") == "ejected"
        for t in sched.tenants:
            if t != "t0001":
                assert sched.health.breakers[t].state == "closed"
        sched.close()


# ----------------------------------------------------------------------
# Deadline tiers: degraded fallback, hard abandon, probe readmission
# ----------------------------------------------------------------------
class TestDeadlineTiers:
    def _seeded_sherlock(self):
        sherlock = DBSherlock()
        ds, region = _job_dataset("seed")
        explanation = sherlock.explain(
            ds, RegionSpec(abnormal=[region], normal=None)
        )
        sherlock.feedback("storm overload", explanation, ds)
        return sherlock

    def test_soft_deadline_publishes_degraded_ranking(self):
        hang = DiagnosisHang(["t0000"], hang_s=0.4)
        sched = FleetScheduler(
            FleetDetector(2, ATTRS, **DET_KW),
            sherlock=hang.wrap(self._seeded_sherlock()),
            diagnose_jobs=1,
            max_pending=64,
            label_metrics=False,
            soft_deadline_s=0.05,
        )
        ds, region = _job_dataset("t0000")
        sched.submit_diagnosis(0, region, dataset=ds)
        sched.drain()
        assert sched.report.deadline_misses == 1
        assert sched.report.degraded_rankings == 1
        assert len(sched.diagnoses) == 1
        _, _, explanation = sched.diagnoses[0]
        assert getattr(explanation, "degraded", False)
        assert len(explanation.predicates) == 0
        # the cached-models-only ranking still names the stored cause
        assert explanation.all_cause_scores
        assert explanation.all_cause_scores[0][0] == "storm overload"
        # soft tier alone is not hostile enough to trip the breaker
        time.sleep(0.6)
        assert sched.health.breakers["t0000"].state == "closed"
        sched.close()

    def test_hard_deadline_ejects_and_probe_readmits(self):
        hang = DiagnosisHang(["t0000"], hang_s=0.5)
        sched = FleetScheduler(
            FleetDetector(
                2, ATTRS, capacity=40, window=8, pp_threshold=0.9
            ),
            sherlock=hang.wrap(self._seeded_sherlock()),
            diagnose_jobs=1,
            max_pending=64,
            label_metrics=False,
            soft_deadline_s=0.1,
            hard_deadline_s=0.2,
            breaker_threshold=2,
            breaker_cooldown_rounds=3,
        )
        for j in range(2):
            ds, region = _job_dataset("t0000", seed=j)
            sched.submit_diagnosis(0, region, dataset=ds)
            sched.drain()
            time.sleep(0.7)  # let the zombie worker report its overrun

        assert sched.report.deadline_misses >= 2
        assert sched.report.breaker_opens == 1
        assert sched.health.breakers["t0000"].state == "open"
        assert sched.health.state("t0000") == "ejected"
        assert sched.health.breakers["t0001"].state == "closed"

        # open breaker: shed at admission
        shed_before = sched.report.shed
        ds, region = _job_dataset("t0000", seed=9)
        sched.submit_diagnosis(0, region, dataset=ds)
        sched.drain()
        assert sched.report.shed == shed_before + 1

        # recovery: hang cleared, cooldown elapsed, probe succeeds
        hang.active = False
        rng = np.random.default_rng(3)
        for k in range(5):  # advance rounds past the cooldown, quietly
            times = np.full(2, 1.0 + k)
            values = rng.normal(50.0, 1.0, size=(2, len(ATTRS)))
            sched.run_round(times, values)
        ds, region = _job_dataset("t0000", seed=10)
        sched.submit_diagnosis(0, region, dataset=ds)
        sched.drain()
        assert sched.report.breaker_readmits == 1
        assert sched.health.breakers["t0000"].state == "closed"
        assert sched.health.state("t0000") == "healthy"
        sched.close()


# ----------------------------------------------------------------------
# Partial recovery: skip-and-report, never abort the fleet
# ----------------------------------------------------------------------
class TestPartialRecovery:
    TENANTS = ["alpha", "beta", "gamma", "delta"]

    def _run_durable_fleet(self, tmp_path):
        S = len(self.TENANTS)
        sched = FleetScheduler(
            FleetDetector(S, ATTRS, **DET_KW),
            tenants=self.TENANTS,
            root_dir=tmp_path,
            durable=self.TENANTS,
            checkpoint_every=20,
            label_metrics=False,
        )
        for times, values, active in _storm_source(S, seed=17).take(70):
            sched.run_round(times, values, active)
        states = {
            t: sched.detector.stream_checkpoint(s)
            for s, t in enumerate(self.TENANTS)
        }
        # crash without a final checkpoint: the tail lives in the WALs
        sched.close()
        return states

    def test_skip_and_report_names_exactly_the_rotten_tenants(
        self, tmp_path
    ):
        states = self._run_durable_fleet(tmp_path)
        CorruptTenantState(["beta"], mode="checkpoint").apply(tmp_path)
        CorruptTenantState(["gamma"], mode="missing").apply(tmp_path)
        # a torn WAL tail alone is survivable (the reader is tolerant)
        CorruptTenantState(["delta"], mode="wal").apply(tmp_path)

        recovered = FleetScheduler.recover(
            tmp_path, self.TENANTS, label_metrics=False
        )
        report = recovered.recovery_report
        assert report is not None
        assert report.recovered == ["alpha", "delta"]
        assert report.corrupt == ["beta"]
        assert report.missing == ["gamma"]
        assert report.outcome("beta").detail  # says why
        for name in ("alpha", "delta"):
            outcome = report.outcome(name)
            assert outcome.replayed_ticks > 0
            s = self.TENANTS.index(name)
            assert recovered.detector.stream_checkpoint(s) == states[name]
        # skipped tenants come back quarantined on a fresh empty lane
        fresh = FleetDetector(1, ATTRS, **DET_KW).stream_checkpoint(0)
        for name in ("beta", "gamma"):
            assert recovered.health.state(name) == "quarantined"
            assert "recovery" in recovered.health.reason(name)
            s = self.TENANTS.index(name)
            assert recovered.detector.stream_checkpoint(s) == fresh
        # and the partially recovered fleet still ticks all lanes
        src = FleetSimSource(len(self.TENANTS), ATTRS, seed=555)
        for times, values, active in src.take(5):
            tick = recovered.detector.tick(times, values, active)
            assert not tick.lane_errors
        recovered.close()

    def test_lane_poisoned_during_replay_is_reported_failed(
        self, tmp_path, monkeypatch
    ):
        """A lane fault the engine contains mid-replay must not pass as
        a clean recovery: the tenant is ``replay_failed`` with the rows
        fed before the fault, stays poisoned and quarantined, and the
        other tenants still recover bitwise."""
        states = self._run_durable_fleet(tmp_path)
        victim = self.TENANTS.index("beta")
        faults = []
        restore = FleetDetector.from_checkpoints.__func__

        def restore_with_fault(cls, lanes, attributes=None):
            detector = restore(cls, lanes, attributes=attributes)
            base = detector.tick_counts.copy()

            def hook(stream, view):
                if stream == victim:
                    # tick_counts already includes the faulting row
                    fed = int(detector.tick_counts[stream] - base[stream])
                    faults.append(fed - 1)
                    raise RuntimeError("pathological window")

            detector.install_lane_fault(hook)
            return detector

        monkeypatch.setattr(
            FleetDetector, "from_checkpoints", classmethod(restore_with_fault)
        )
        recovered = FleetScheduler.recover(
            tmp_path, self.TENANTS, label_metrics=False
        )
        report = recovered.recovery_report
        assert faults, "the victim lane never reached fallout in replay"
        assert report.failed == ["beta"]
        outcome = report.outcome("beta")
        assert outcome.replayed_ticks == faults[0]
        assert "pathological window" in outcome.detail
        assert recovered.detector.poisoned[victim]
        assert recovered.health.state("beta") == "quarantined"
        for name in ("alpha", "gamma", "delta"):
            assert report.outcome(name).status == "recovered"
            s = self.TENANTS.index(name)
            assert recovered.detector.stream_checkpoint(s) == states[name]
        recovered.close()

    def test_zero_recoverable_tenants_still_raises(self, tmp_path):
        self._run_durable_fleet(tmp_path)
        CorruptTenantState(self.TENANTS, mode="missing").apply(tmp_path)
        with pytest.raises(FileNotFoundError):
            FleetScheduler.recover(tmp_path, self.TENANTS, label_metrics=False)

    def test_recovery_report_serializes(self, tmp_path):
        self._run_durable_fleet(tmp_path)
        CorruptTenantState(["beta"], mode="checkpoint").apply(tmp_path)
        recovered = FleetScheduler.recover(
            tmp_path, self.TENANTS, label_metrics=False
        )
        payload = recovered.recovery_report.to_dict()
        assert payload["corrupt"] == ["beta"]
        assert len(payload["outcomes"]) == len(self.TENANTS)
        recovered.close()
