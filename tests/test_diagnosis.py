"""Diagnosis executor under random schedules (a hypothesis state machine).

Random steps drive a durable four-tenant :class:`FleetScheduler`: rounds
that close regions, tenants whose diagnoses fail, stall past the soft
deadline or hang past the hard one, lanes poisoned and readmitted (the
readmission replays the skipped rows from the WAL), and drains.  Each
shed policy gets its own run; one to four diagnosis workers are drawn.  After each
drain two invariants must hold:

* conservation — ``diagnoses + shed + diagnosis_failures ==
  closed_regions``: no job vanishes or counts twice;
* order — each tenant's full results are published in submission
  order.  A retried job is resubmitted (it runs again, later, as a
  singleton) and a soft-deadline fallback is published when the
  deadline is enforced, so the check covers the results explained once
  and not degraded.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.fleet import FleetDetector, FleetScheduler, FleetSimSource
from repro.fleet.diagnosis import SHED_POLICIES

ATTRS = ["a", "b", "c"]
TENANTS = ["d0", "d1", "d2", "d3"]
SOFT_S, HARD_S = 0.03, 0.08
#: stall lengths per mode: past the soft tier, and past the hard one.
STALL_S = {"slow": 0.05, "hang": 0.12}


def _detector():
    return FleetDetector(
        len(TENANTS),
        ATTRS,
        capacity=24,
        window=4,
        pp_threshold=0.3,
        min_pts=3,
        cluster_fraction=0.3,
        min_region_s=2.0,
        gap_fill_s=3.0,
    )


def _source(seed):
    """Every tenant bursts for 3 of every 8 rounds: ~1 close per tenant
    per 16 rounds."""
    return FleetSimSource(
        len(TENANTS),
        ATTRS,
        seed=seed,
        anomaly_fraction=1.0,
        anomaly_period=8,
        anomaly_duration=3,
        anomaly_scale=14.0,
    )


class _ScriptedSherlock:
    """Explains at once, or fails or stalls while a tenant is set to.

    A fused batch takes the worst mode among its tenants, as a real
    ``explain_batch`` that raises or hangs on one job would.
    """

    def __init__(self) -> None:
        self.mode = {t: "ok" for t in TENANTS}
        #: ``(tenant, start, end)`` → explain attempts.
        self.attempts: Counter = Counter()
        self._lock = threading.Lock()

    def explain_batch(self, pairs):
        tenants = [ds.name.split(":", 1)[1] for ds, _spec in pairs]
        with self._lock:
            for tenant, (_ds, spec) in zip(tenants, pairs):
                region = spec.abnormal[0]
                self.attempts[(tenant, region.start, region.end)] += 1
            modes = {self.mode[t] for t in tenants}
        if "fail" in modes:
            raise RuntimeError("scripted diagnosis failure")
        stall = max((STALL_S.get(m, 0.0) for m in modes), default=0.0)
        if stall:
            time.sleep(stall)
        return [("explained", tenant) for tenant in tenants]


class DiagnosisMachine(RuleBasedStateMachine):
    #: the shed policy under test (each policy gets its own run).
    POLICY = "drop_oldest"

    @initialize(
        jobs=st.integers(1, 4),
        max_pending=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def build(self, jobs, max_pending, seed):
        self.root = tempfile.mkdtemp(prefix="diag-machine-")
        self.sherlock = _ScriptedSherlock()
        self.source = iter(_source(seed))
        self.sched = FleetScheduler(
            _detector(),
            tenants=TENANTS,
            sherlock=self.sherlock,
            root_dir=self.root,
            durable=TENANTS,
            checkpoint_every=5,
            diagnose_jobs=jobs,
            max_pending=max_pending,
            shed_policy=self.POLICY,
            soft_deadline_s=SOFT_S,
            hard_deadline_s=HARD_S,
            breaker_cooldown_rounds=4,
            label_metrics=False,
        )
        #: tenant → ``(start, end)`` of each region, in submission order
        #: (live closes and readmission replays alike).
        self.submitted = {t: [] for t in TENANTS}
        submit = self.sched.executor.submit

        def recording_submit(stream, region, dataset=None):
            self.submitted[TENANTS[stream]].append((region.start, region.end))
            submit(stream, region, dataset)

        self.sched.executor.submit = recording_submit

    @rule(n=st.integers(4, 24))
    def run_rounds(self, n):
        for _ in range(n):
            self.sched.run_round(*next(self.source))

    @rule(tenant=st.sampled_from(TENANTS), mode=st.sampled_from(
        ["ok", "ok", "fail", "slow", "hang"]
    ))
    def set_mode(self, tenant, mode):
        self.sherlock.mode[tenant] = mode

    @precondition(lambda self: not self.sched.detector.poisoned.any())
    @rule(tenant=st.sampled_from(TENANTS))
    def poison(self, tenant):
        self.sched.detector.poison(TENANTS.index(tenant), "scripted")

    @precondition(lambda self: bool(self.sched.detector.poisoned.any()))
    @rule(data=st.data())
    def readmit(self, data):
        poisoned = [
            t for s, t in enumerate(TENANTS) if self.sched.detector.poisoned[s]
        ]
        self.sched.readmit(data.draw(st.sampled_from(poisoned)))

    @rule()
    def drain(self):
        self.sched.drain()
        self.check_drained()

    @invariant()
    def counts_never_overrun(self):
        report = self.sched.report
        assert (
            report.diagnoses + report.shed + report.diagnosis_failures
            <= report.closed_regions
        )

    def check_drained(self):
        report = self.sched.report
        assert self.sched.executor.queued() == 0
        assert (
            report.diagnoses + report.shed + report.diagnosis_failures
            == report.closed_regions
        ), report
        with self.sherlock._lock:
            attempts = dict(self.sherlock.attempts)
        # each tenant's once-explained full results must be a
        # subsequence of its submissions
        cursor = {t: iter(self.submitted[t]) for t in TENANTS}
        for tenant, region, explanation in list(self.sched.diagnoses):
            key = (region.start, region.end)
            if getattr(explanation, "degraded", False) or (
                attempts.get((tenant, *key), 0) != 1
            ):
                continue
            assert key in cursor[tenant], (tenant, key, self.submitted[tenant])

    def teardown(self):
        sched = getattr(self, "sched", None)
        if sched is not None:
            sched.close()
            self.check_drained()
        shutil.rmtree(getattr(self, "root", ""), ignore_errors=True)


@pytest.mark.parametrize("policy", SHED_POLICIES)
def test_random_schedules_conserve_and_order(policy):
    machine = type(
        f"DiagnosisMachine_{policy}", (DiagnosisMachine,), {"POLICY": policy}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=10, stateful_step_count=20, deadline=None
        ),
    )


def test_scripted_fleet_closes_regions():
    """The machine's fleet closes regions within a few rounds, so the
    random schedules exercise the executor rather than an idle queue."""
    sched = FleetScheduler(_detector(), tenants=TENANTS, label_metrics=False)
    for times, values, active in _source(1).take(40):
        sched.run_round(times, values, active)
    sched.close()
    assert sched.report.closed_regions >= len(TENANTS)
    assert np.all(sched.detector.tick_counts == 40)
