"""Fleet workloads: ``FleetScheduler.run_round`` to ranked causes.

``fleet_steady``
    A few thousand synthetic tenants (:class:`FleetSimSource`) with a
    small anomalous share; a handful of durable tenants write WAL and
    checkpoints.  The dense engine stages, the WAL write path and the
    flight recorder's discard path carry the load.
``fleet_incident``
    64 tenants replay a seeded pool of TPC-C incident datasets (135
    attributes, all ten Table 1 causes) back to back at staggered
    offsets.  Fallout clustering, the diagnosis queue and cold-cache
    diagnosis carry the load.

Both are closed loops on one thread: the next round is handed over when
``run_round`` returns.  Diagnosis runs on the scheduler's own worker
pool (``diagnose_jobs=2``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.fleet.engine as fleet_engine
from repro.anomalies.library import ANOMALY_CAUSES
from repro.core.explain import DBSherlock
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec
from repro.eval.harness import simulate_run
from repro.fleet import FleetDetector, FleetSimSource
from repro.fleet.scheduler import FleetScheduler
from repro.obs import metrics
from repro.obs.flight import FlightRecorder
from repro.stream.detector import StreamingDetector
from repro.stream.durability import TenantDurability
from repro.stream.wal import CheckpointStore, TickWAL

from common import (
    LAYERS,
    MAX_EXTEND,
    TRACE_BLOCK,
    DiagnosisProbe,
    Metric,
    Result,
    add_percentiles,
    cache_delta,
    counter,
    histogram,
    job_key,
    map_cause_latency,
    set_layers,
    spread,
    store_predicates,
    setup_metric,
    timed_setups,
    trace_sherlock,
)
from env import peak_rss_mb
from measure import (
    durations_ms,
    join_tick_to_cause,
    min_samples,
    self_time_by_layer,
)
from tracing import SpanRecorder

#: Rounds an incident's anomaly must end before the last measured round
#: to count towards accuracy (room for the region to close and rank).
SETTLE_ROUNDS = 10

#: Shares of top-1 correct incidents below which the run fails.
INCIDENT_TOP1_FLOOR = 0.4

#: Diagnoses re-explained serially by the equality gate.
REEXPLAIN_SAMPLE = 8



@dataclass
class FleetConfig:
    tenants: int
    capacity: int
    window: int
    detector: Dict[str, float]
    durable: int = 0
    checkpoint_every: int = 0
    mirrors: int = 3
    label_metrics: bool = True
    extra: Dict[str, object] = field(default_factory=dict)


STEADY = FleetConfig(
    tenants=4000,
    capacity=60,
    window=10,
    detector=dict(
        pp_threshold=0.4,
        min_pts=3,
        cluster_fraction=0.2,
        min_region_s=2.0,
        gap_fill_s=3.0,
    ),
    durable=16,
    checkpoint_every=10,
    mirrors=4,
    # per-tenant labeled families cost more than the engine at this size
    label_metrics=False,
    extra=dict(
        attributes=8,
        anomaly_fraction=0.005,
        anomaly_period=40,
        anomaly_duration=8,
        anomaly_scale=14.0,
    ),
)

INCIDENT = FleetConfig(
    tenants=64,
    capacity=90,
    window=20,
    detector=dict(
        pp_threshold=0.3,
        min_pts=3,
        cluster_fraction=0.2,
        min_region_s=5.0,
        gap_fill_s=3.0,
    ),
    mirrors=3,
    extra=dict(
        pool=30,
        train_per_cause=2,
        anomaly_s=(12, 18),
        normal_s=(40, 60),
    ),
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class SteadyInputs:
    """``FleetSimSource`` rounds plus one burst window to learn from."""

    def __init__(self, cfg: FleetConfig, seed: int) -> None:
        x = cfg.extra
        self.attributes = [f"m{j}" for j in range(int(x["attributes"]))]
        self.source = FleetSimSource(
            cfg.tenants,
            self.attributes,
            seed=seed,
            anomaly_fraction=float(x["anomaly_fraction"]),
            anomaly_period=int(x["anomaly_period"]),
            anomaly_duration=int(x["anomaly_duration"]),
            anomaly_scale=float(x["anomaly_scale"]),
        )
        # the model is learned from a separate source's anomalous stream
        period = int(x["anomaly_period"])
        duration = int(x["anomaly_duration"])
        train = FleetSimSource(
            2,
            self.attributes,
            seed=seed + 7919,
            anomaly_fraction=1.0,
            anomaly_period=period,
            anomaly_duration=duration,
            anomaly_scale=float(x["anomaly_scale"]),
        )
        n = 2 * period
        rows = [train.batch() for _ in range(n)]
        stamps = np.array([times[0] for times, _v, _a in rows])
        values = np.array([vals[0] for _t, vals, _a in rows])
        self.train_dataset = Dataset(
            stamps,
            numeric={a: values[:, j] for j, a in enumerate(self.attributes)},
            categorical={},
            name="train:burst",
        )
        first = period // 2 + (-(period // 2)) % period
        self.train_spec = RegionSpec(
            abnormal=[Region(stamps[first], stamps[first + duration - 1])],
            normal=None,
        )
        anomalous = np.nonzero(self.source.anomalous)[0]
        quiet = np.nonzero(~self.source.anomalous)[0]
        half = cfg.mirrors // 2
        self.mirrors = [int(s) for s in anomalous[:half]] + [
            int(s) for s in quiet[: cfg.mirrors - min(half, anomalous.size)]
        ]
        self.incidents: List[tuple] = []

    def train(self, sherlock: DBSherlock) -> None:
        explanation = sherlock.explain(self.train_dataset, self.train_spec)
        sherlock.feedback("metric_burst", explanation, self.train_dataset)

    def batch(self):
        return self.source.batch()


class IncidentInputs:
    """A seeded pool of TPC-C incidents replayed by every tenant.

    Each tenant starts at a random incident and row and plays incidents
    back to back with its own stride through the pool.  Every incident
    started is logged as ``(tenant, anomaly start, anomaly end, cause)``
    in fleet time (round ``r`` has timestamp ``r + 1``).
    """

    def __init__(self, cfg: FleetConfig, seed: int) -> None:
        x = cfg.extra
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n_causes = len(ANOMALY_CAUSES)

        def draw(i: int, per_cause: int):
            # the pool's shape is fixed (every cause at evenly spread
            # anomaly and normal lengths); the seed drives the telemetry
            return simulate_run(
                ANOMALY_CAUSES[i % n_causes],
                duration_s=spread(x["anomaly_s"], i // n_causes, per_cause),
                normal_s=spread(x["normal_s"], i // n_causes, per_cause),
                seed=int(rng.integers(2**31 - 1)),
            )

        per_cause = int(x["pool"]) // n_causes
        pool = [draw(i, per_cause) for i in range(per_cause * n_causes)]
        n_train = int(x["train_per_cause"])
        self.training = [draw(i, n_train) for i in range(n_train * n_causes)]
        self.attributes = pool[0][0].numeric_attributes
        self.matrices: List[np.ndarray] = []
        self.anomalies: List[Tuple[float, float, str]] = []
        for dataset, spec, cause in pool:
            if dataset.numeric_attributes != self.attributes:
                raise ValueError("incident pool schemas differ")
            self.matrices.append(
                np.column_stack([dataset.column(a) for a in self.attributes])
            )
            t0 = float(dataset.timestamps[0])
            region = spec.abnormal[0]
            self.anomalies.append(
                (float(region.start) - t0, float(region.end) - t0, cause)
            )
        S, P = cfg.tenants, len(pool)
        self.n_tenants = S
        self.current = [int(k) for k in rng.integers(P, size=S)]
        self.row = [
            int(rng.integers(len(self.matrices[k]))) for k in self.current
        ]
        self.stride = [int(k) for k in rng.integers(1, P, size=S)]
        self.round = 0
        self.incidents: List[tuple] = []
        for s in range(S):
            self._log(s, self.current[s], -self.row[s])
        self.mirrors = list(range(cfg.mirrors))

    def _log(self, tenant: int, k: int, first_round: int) -> None:
        lo, hi, cause = self.anomalies[k]
        self.incidents.append(
            (tenant, first_round + 1 + lo, first_round + 1 + hi, cause)
        )

    def train(self, sherlock: DBSherlock) -> None:
        # fleet windows carry numeric columns only, so models are
        # learned on the same attributes
        for dataset, spec, cause in self.training:
            explanation = sherlock.explain(dataset, spec, self.attributes)
            sherlock.feedback(cause, explanation, dataset)

    def batch(self):
        r = self.round
        self.round += 1
        S = self.n_tenants
        values = np.empty((S, len(self.attributes)))
        for s in range(S):
            k, j = self.current[s], self.row[s]
            values[s] = self.matrices[k][j]
            j += 1
            if j == len(self.matrices[k]):
                k = (k + self.stride[s]) % len(self.matrices)
                j = 0
                self._log(s, k, r + 1)
            self.current[s], self.row[s] = k, j
        return np.full(S, r + 1.0), values, np.ones(S, dtype=bool)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def mirror_mismatch(tick, mirror_tick, stream: int) -> Optional[str]:
    """Why a fleet lane differs from its single-stream twin, if it does."""
    res = tick.result(stream)
    ref = mirror_tick.result
    if res.selected_attributes != list(ref.selected_attributes):
        return "selection"
    if not np.array_equal(res.mask, ref.mask):
        return "mask"
    if res.regions != ref.regions:
        return "regions"
    if res.eps != ref.eps:
        return "eps"
    if tick.closed.get(stream, []) != mirror_tick.closed_regions:
        return "closed regions"
    return None


class Mirrors:
    """Single-stream twins of a few lanes, checked after every round."""

    def __init__(self, cfg: FleetConfig, streams: List[int], attributes):
        self.attributes = list(attributes)
        self.detectors = {
            s: StreamingDetector(
                capacity=cfg.capacity,
                window=cfg.window,
                mode="exact",
                **cfg.detector,
            )
            for s in streams
        }
        self.failure: Optional[str] = None
        self.checked = 0

    def check(self, round_no: int, tick, times, values, active) -> None:
        for s, det in self.detectors.items():
            if not active[s]:
                continue
            row = {a: values[s, j] for j, a in enumerate(self.attributes)}
            why = mirror_mismatch(tick, det.tick(times[s], row, {}), s)
            self.checked += 1
            if why is not None and self.failure is None:
                self.failure = f"stream {s} round {round_no}: {why}"

    def check_checkpoints(self, fleet: FleetDetector) -> None:
        for s, det in self.detectors.items():
            if fleet.stream_checkpoint(s) != det.checkpoint():
                if self.failure is None:
                    self.failure = f"stream {s}: checkpoint diverges"


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class Rig:
    sherlock: DBSherlock
    probe: DiagnosisProbe
    detector: FleetDetector
    flight: FlightRecorder
    scheduler: FleetScheduler


def _report_counts(report) -> Dict[str, int]:
    return {
        k: int(getattr(report, k))
        for k in (
            "closed_regions",
            "diagnoses",
            "shed",
            "diagnosis_failures",
            "retries",
        )
    }


def _trace_fleet(rec: SpanRecorder, rig: Rig) -> None:
    """Patch every fleet-side public call with its layer's span."""
    rec.patch(
        rig.probe,
        "explain_batch",
        "core.explain",
        lambda jobs, *_a, **_k: [job_key(ds, spec) for ds, spec in jobs],
    )
    trace_sherlock(
        rec,
        rig.sherlock,
        lambda ds, spec=None, *_a, **_k: (
            job_key(ds, spec) if spec is not None else None
        ),
    )
    rec.patch(rig.detector, "tick", "fleet.engine")
    rec.patch(fleet_engine, "cluster_windows_batch", "cluster")
    rec.patch(fleet_engine, "close_regions_batch", "cluster")
    for cls, names in (
        (TenantDurability, ("append", "save_checkpoint", "retire_wal")),
        (TickWAL, ("append",)),
        (CheckpointStore, ("save",)),
    ):
        layer = (
            "stream.durability" if cls is TenantDurability else "stream.wal"
        )
        for name in names:
            rec.patch(cls, name, layer)
    rec.patch(rig.flight, "begin_round", "obs.flight")
    rec.patch(rig.flight, "record", "obs.flight")
    rec.patch(rig.flight, "end_round", "obs.flight")


def run_fleet(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> Result:
    cfg = STEADY if workload == "fleet_steady" else INCIDENT
    clock = time.perf_counter
    t0 = clock()
    inputs = (
        SteadyInputs(cfg, seed)
        if workload == "fleet_steady"
        else IncidentInputs(cfg, seed)
    )
    attributes = inputs.attributes
    names = [f"t{s:05d}" for s in range(cfg.tenants)]
    durable = names[: cfg.durable]
    inputs_s = clock() - t0

    def build(i: int) -> Rig:
        sherlock = DBSherlock()
        inputs.train(sherlock)
        probe = DiagnosisProbe(
            sherlock,
            REEXPLAIN_SAMPLE if workload == "fleet_incident" else 0,
            seed,
        )
        detector = FleetDetector(
            cfg.tenants,
            attributes,
            capacity=cfg.capacity,
            window=cfg.window,
            **cfg.detector,
        )
        flight = FlightRecorder()
        scheduler = FleetScheduler(
            detector,
            tenants=names,
            sherlock=probe,
            root_dir=(workdir / f"setup{i}") if durable else None,
            durable=durable,
            label_metrics=cfg.label_metrics,
            flight=flight,
        )
        return Rig(sherlock, probe, detector, flight, scheduler)

    def close_rig(old: Rig) -> None:
        old.scheduler.close()

    rig, setups_before = timed_setups(
        build, close_rig, repeats=1, budget_s=0.0
    )  # only the serving set-up runs before measurement
    sched = rig.scheduler
    mirrors = Mirrors(cfg, inputs.mirrors, attributes)
    res = Result(
        workload,
        shape={
            "tenants": cfg.tenants,
            "attributes": len(attributes),
            "capacity": cfg.capacity,
            "window": cfg.window,
            "durable_tenants": len(durable),
            "checkpoint_every_rounds": cfg.checkpoint_every,
            "mirrored_lanes": len(mirrors.detectors),
            "diagnose_jobs": 2,
            "loop": "closed, one driving thread",
            **{k: v for k, v in cfg.extra.items()},
        },
    )

    # ---- warm-up: fill every lane's window, then drain ---------------
    t1 = clock()
    round_no = 0
    for _ in range(cfg.capacity + 5):
        times, values, active = inputs.batch()
        tick = sched.run_round(times, values, active)
        mirrors.check(round_no, tick, times, values, active)
        round_no += 1
    sched.drain()
    warmup_s = clock() - t1

    # ---- measured section ---------------------------------------------
    reg = metrics.REGISTRY
    reg.reset()
    cache0 = rig.sherlock.cache.stats()
    rep0 = _report_counts(sched.report)
    batches0 = len(rig.probe.batches)
    need_rounds = min_samples(90)
    need_diagnoses = min_samples(90)
    rec = SpanRecorder() if trace else None
    flight_rounds: List[bool] = []
    if trace:
        end_round = rig.flight.end_round

        def counted_end_round(*args, **kwargs):
            reasons = end_round(*args, **kwargs)
            flight_rounds.append(bool(reasons))
            return reasons

        rig.flight.end_round = counted_end_round

    handoffs: Dict[tuple, float] = {}
    round_ms: List[float] = []
    ckpt_ms: List[float] = []
    iter_s = {False: [], True: []}
    traced_windows: List[Tuple[float, float]] = []
    traced_stream_ticks = 0
    busy = 0.0
    stream_ticks = 0
    max_queued = 0
    first_time = last_time = None
    start = clock()
    deadline = start + seconds
    hard_deadline = start + seconds * MAX_EXTEND
    r = 0
    while True:
        now = clock()
        if now >= hard_deadline or (
            now >= deadline
            and len(round_ms) >= need_rounds
            and len(handoffs) >= need_diagnoses
        ):
            break
        tracing = trace and (r // TRACE_BLOCK) % 2 == 1
        if trace and r % TRACE_BLOCK == 0:
            if tracing:
                _trace_fleet(rec, rig)
            else:
                rec.unpatch()
        it0 = clock()
        times, values, active = inputs.batch()
        handoff = clock()
        if tracing:
            tick = rec.call(
                "fleet.scheduler:round",
                ("round", r),
                sched.run_round,
                times,
                values,
                active,
            )
        else:
            tick = sched.run_round(times, values, active)
        done = clock()
        round_ms.append((done - handoff) * 1e3)
        busy += done - handoff
        n_active = int(active.sum())
        stream_ticks += n_active
        if cfg.checkpoint_every and (r + 1) % cfg.checkpoint_every == 0:
            c0 = clock()
            if tracing:
                rec.call(
                    "fleet.scheduler:checkpoint",
                    ("checkpoint", r),
                    sched.checkpoint,
                )
            else:
                sched.checkpoint()
            c1 = clock()
            ckpt_ms.append((c1 - c0) * 1e3)
            busy += c1 - c0
        for s, regions in tick.closed.items():
            for region in regions:
                handoffs[
                    (names[s], float(region.start), float(region.end))
                ] = handoff
        it1 = clock()
        iter_s[tracing].append(it1 - it0)
        if tracing:
            traced_windows.append((it0, it1))
            traced_stream_ticks += n_active
        if first_time is None:
            first_time = float(times.max())
        last_time = float(times.max())
        rep = sched.report
        max_queued = max(
            max_queued,
            (rep.closed_regions - rep0["closed_regions"])
            - (rep.diagnoses - rep0["diagnoses"])
            - (rep.shed - rep0["shed"])
            - (rep.diagnosis_failures - rep0["diagnosis_failures"]),
        )
        # correctness gate, outside the timed sections
        mirrors.check(round_no, tick, times, values, active)
        round_no += 1
        r += 1
    measured_s = clock() - start
    if trace:
        rec.unpatch()
        del rig.flight.end_round
    sched.drain()
    rep1 = _report_counts(sched.report)
    delta = {k: rep1[k] - rep0[k] for k in rep0}
    batches = rig.probe.batches[batches0:]
    joined = join_tick_to_cause(handoffs, batches)
    cause_ms = [ttc * 1e3 for _k, _wait, ttc in joined]
    wait_ms = [wait * 1e3 for _k, wait, _ttc in joined]

    # ---- gates ----------------------------------------------------------
    mirrors.check_checkpoints(rig.detector)
    res.gate(
        "mirrors_bitwise_equal",
        mirrors.failure is None and mirrors.checked > 0,
        mirrors.failure or f"{mirrors.checked} lane ticks compared",
    )
    report = sched.report
    res.gate(
        "conservation",
        report.diagnoses + report.shed + report.diagnosis_failures
        == report.closed_regions,
        f"diagnoses {report.diagnoses} + shed {report.shed} + failures "
        f"{report.diagnosis_failures} vs closed {report.closed_regions}",
    )
    top1 = None
    if workload == "fleet_incident":
        top1, n_incidents = _incident_accuracy(
            inputs.incidents, sched.diagnoses, names, first_time, last_time
        )
        res.gate(
            "reexplain_equal",
            *_reexplain(rig.sherlock, rig.probe.kept),
        )
        res.gate(
            "top1_floor",
            n_incidents > 0 and top1 >= INCIDENT_TOP1_FLOOR,
            f"{top1:.3f} over {n_incidents} incidents "
            f"(floor {INCIDENT_TOP1_FLOOR})",
        )

    storage_errors = counter(
        reg, "repro_storage_write_errors_total"
    ) + counter(reg, "repro_storage_read_errors_total")
    named = res.named
    e2e = res.end_to_end
    add_percentiles(named, "round_ms", round_ms, (50, 90), res)
    add_percentiles(named, "tick_to_cause_ms", cause_ms, (50, 90), res)
    rss = peak_rss_mb()
    ops = stream_ticks / busy
    e2e["peak_rss_mb"] = named["peak_rss_mb"] = Metric(rss, "MB", 1)
    e2e["ops_per_s"] = named["stream_ticks_per_s"] = Metric(
        ops, "1/s", len(round_ms)
    )
    map_cause_latency(res, "tick_to_cause_ms", cause_ms)
    if top1 is not None:
        named["top1_accuracy"] = Metric(top1, "ratio", n_incidents)

    res.attempted = (
        len(round_ms) + delta["closed_regions"] + len(ckpt_ms) + len(res.gates)
    )
    res.failed = (
        delta["shed"]
        + delta["diagnosis_failures"]
        + int(storage_errors)
        + sum(1 for _n, ok, _d in res.gates if not ok)
    )
    named["failed_fraction"] = Metric(
        res.failed / res.attempted, "ratio", res.attempted
    )

    # ---- per-layer -------------------------------------------------------
    if trace:
        _fleet_layers(
            res,
            rec,
            rig,
            reg,
            delta=delta,
            cache0=cache0,
            traced_windows=traced_windows,
            traced_stream_ticks=traced_stream_ticks,
            iter_s=iter_s,
            batches=batches,
            wait_ms=wait_ms,
            ckpt_ms=ckpt_ms,
            max_queued=max_queued,
            flight_rounds=flight_rounds,
            rounds=len(round_ms),
        )
        rec.write_jsonl(workdir.parent / f"spans-{workload}-seed{seed}.jsonl")

    res.phases_s = {
        "inputs": inputs_s,
        "warmup": warmup_s,
        "measured": measured_s,
    }
    res.shape.update(
        rounds=len(round_ms),
        stream_ticks=stream_ticks,
        closed_regions=delta["closed_regions"],
        diagnoses=delta["diagnoses"],
        diagnosis_batches=len(batches),
        checkpoints=len(ckpt_ms),
    )
    sched.close()
    # the repeats start from a heap like the serving set-up's
    del rig, sched, tick, batches, joined, handoffs
    _, setups_after = timed_setups(
        build, close_rig, first=len(setups_before), keep_last=False
    )
    setup_metric(res, setups_before, setups_after)
    return res


def _incident_accuracy(incidents, diagnoses, names, first_time, last_time):
    """Share of measured incidents whose overlapping diagnosis ranks the
    injected cause first."""
    by_tenant: Dict[str, List[tuple]] = {}
    for tenant, region, explanation in diagnoses:
        by_tenant.setdefault(tenant, []).append((region, explanation))
    hits = total = 0
    for s, lo, hi, cause in incidents:
        if lo < first_time or hi > last_time - SETTLE_ROUNDS:
            continue
        total += 1
        for region, explanation in by_tenant.get(names[s], ()):
            if region.start <= hi and region.end >= lo:
                if explanation.top_cause == cause:
                    hits += 1
                    break
    return (hits / total if total else 0.0), total


def _reexplain(sherlock: DBSherlock, kept) -> Tuple[bool, str]:
    """Serial cold ``explain`` must score every cause exactly as the
    fleet's fused batch did."""
    if not kept:
        return False, "no diagnosis sampled"
    for key, dataset, spec, explanation in kept:
        fresh = dataset.select(np.ones(len(dataset), dtype=bool))
        again = sherlock.explain(fresh, spec)
        if again.all_cause_scores != explanation.all_cause_scores:
            return False, f"{key}: cause scores differ"
    return True, f"{len(kept)} diagnoses re-explained"


def _fleet_layers(
    res: Result,
    rec: SpanRecorder,
    rig: Rig,
    reg,
    *,
    delta,
    cache0,
    traced_windows,
    traced_stream_ticks,
    iter_s,
    batches,
    wait_ms,
    ckpt_ms,
    max_queued,
    flight_rounds,
    rounds,
) -> None:
    spans = rec.spans
    wall = sum(b - a for a, b in traced_windows)
    selfs = self_time_by_layer(spans)
    main = _driving_thread(spans, "fleet.scheduler:round")
    covered = sum(
        e - s for _i, _n, s, e, parent, thread, _r in spans
        if parent is None and thread == main
    )
    engine_ms = durations_ms(spans, "fleet.engine:tick")
    rank_ms = durations_ms(spans, "core.causal:rank")
    detect_ms = durations_ms(spans, "core.anomaly:detect")
    jobs = sum(len(keys) for _s, _e, keys in batches)
    batch_s = sum(e - s for s, e, _k in batches)
    gen_n, gen_sum = histogram(reg, "repro_generator_seconds")
    _fo_n, fallout_ms = histogram(reg, "repro_fleet_fallout_ms")
    _fs_n, fallout_streams = histogram(reg, "repro_fleet_fallout_streams")
    _lw_n, lock_wait = histogram(reg, "repro_fleet_diagnosis_lock_wait_ms")
    stream_ticks = counter(reg, "repro_fleet_stream_ticks_total")
    cache = cache_delta(rig.sherlock.cache.stats(), cache0)
    untraced, traced = iter_s[False], iter_s[True]
    overhead = (
        (np.mean(traced) / np.mean(untraced) - 1.0)
        if traced and untraced
        else 0.0
    )
    layer = {
        "fleet.engine.tick_ms.p50": (_median(engine_ms), len(engine_ms)),
        "fleet.engine.us_per_stream_tick": (
            selfs.get("fleet.engine", 0.0) / traced_stream_ticks * 1e6
            if traced_stream_ticks
            else 0.0,
            traced_stream_ticks,
        ),
        "fleet.engine.busy_share": (
            selfs.get("fleet.engine", 0.0) / wall if wall else 0.0,
            len(engine_ms),
        ),
        "fleet.engine.closed_regions": (
            delta["closed_regions"], rounds
        ),
        "cluster.fallout_share": (
            fallout_streams / stream_ticks if stream_ticks else 0.0,
            int(stream_ticks),
        ),
        "cluster.fallout_ms_per_round": (fallout_ms / rounds, rounds),
        "cluster.batch_fits": (
            counter(reg, "repro_dbscan_batch_fits_total"), rounds
        ),
        "fleet.scheduler.queue_wait_ms.p50": (
            _median(wait_ms), len(wait_ms)
        ),
        "fleet.scheduler.lock_wait_ms_sum": (lock_wait, len(batches)),
        "fleet.scheduler.max_queued": (max_queued, rounds),
        "fleet.scheduler.shed": (delta["shed"], rounds),
        "fleet.scheduler.failures": (
            delta["diagnosis_failures"], rounds
        ),
        "fleet.scheduler.retries": (delta["retries"], rounds),
        "core.explain.ms_per_job": (
            batch_s * 1e3 / jobs if jobs else 0.0, jobs
        ),
        "core.explain.batch_size_mean": (
            jobs / len(batches) if batches else 0.0, len(batches)
        ),
        "core.generator.ms_per_call": (
            gen_sum * 1e3 / gen_n if gen_n else 0.0, gen_n
        ),
        "core.generator.predicates_kept": (
            counter(reg, "repro_generator_predicates_kept_total"), gen_n
        ),
        "core.generator.rejected": (
            counter(reg, "repro_generator_predicates_rejected_total"),
            gen_n,
        ),
        "core.causal.rank_ms_per_call": (
            float(np.mean(rank_ms)) if rank_ms else 0.0, len(rank_ms)
        ),
        "core.causal.store_predicates": (
            store_predicates(rig.sherlock), 1
        ),
        "core.anomaly.detect_ms.p50": (
            _median(detect_ms), len(detect_ms)
        ),
        "perf.cache.hit_ratio": (cache["hit_ratio"], jobs),
        "perf.cache.misses": (cache["misses"], jobs),
        "perf.cache.resident_mb": (cache["resident_mb"], 1),
        "perf.cache.evictions": (cache["evictions"], jobs),
        "stream.wal.bytes_retained": (
            float(sum(rig.scheduler.wal_bytes().values())), 1
        ),
        "stream.durability.checkpoint_ms.p50": (
            _median(ckpt_ms), len(ckpt_ms)
        ),
        "stream.durability.retries": (
            counter(reg, "repro_storage_retries_total"), rounds
        ),
        "stream.durability.degraded_transitions": (
            counter(reg, "repro_storage_degraded_transitions_total"),
            rounds,
        ),
        "obs.flight.kept_round_share": (
            sum(flight_rounds) / len(flight_rounds) if flight_rounds else 0.0,
            len(flight_rounds),
        ),
        "obs.flight.dropped_events": (
            counter(reg, "repro_flight_dropped_events_total"), rounds
        ),
        "obs.flight.retained_kb": (
            rig.flight.stats()["retained_bytes"] / 1024.0, 1
        ),
        "trace.overhead_frac": (overhead, len(traced)),
        "trace.unattributed_share": (
            1.0 - covered / wall if wall else 0.0, len(traced)
        ),
    }
    for name in LAYERS:
        layer[f"{name}.self_share"] = (
            selfs.get(name, 0.0) / wall if wall else 0.0,
            len(traced),
        )
    set_layers(res, layer)


def _driving_thread(spans, name: str) -> Optional[int]:
    """Thread of the first span named *name* (the driving thread)."""
    for _i, n, _s, _e, _p, thread, _r in spans:
        if n == name:
            return thread
    return None


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0
