"""Pieces shared by the workloads: results, gates, the diagnosis probe."""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from measure import percentile

#: ``setup_s`` is the median of the set-up that serves the run, timed
#: before measurement, and of the set-ups repeated after it, so that it
#: spans two moments of a host whose speed drifts over tens of seconds.
#: Only the serving set-up runs before measurement: memory of a discarded
#: set-up is not always handed back to the system, and repeats there
#: would make ``peak_rss_mb`` depend on how much of it stays (up to one
#: set-up's worth, differing from run to run).  The repeats run after
#: ``peak_rss_mb`` is read: at least ``SETUP_REPEATS`` of them, more while
#: their total stays under ``SETUP_BUDGET_S`` (cheap set-ups get a
#: steadier median), never more than ``SETUP_MAX``.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 15

#: Measurement may run past ``--seconds`` until every percentile has its
#: samples, up to this multiple of it.
MAX_EXTEND = 2.5

#: Tracing toggles every this many operations in a traced run.
TRACE_BLOCK = 8

#: Layers whose self time the traced run reports, as ``<layer>.self_share``.
LAYERS = (
    "fleet.scheduler",
    "fleet.engine",
    "cluster",
    "stream.durability",
    "stream.wal",
    "obs.flight",
    "core.explain",
    "core.generator",
    "core.causal",
    "core.anomaly",
)

#: Every per-layer metric with its unit; a workload that does not load a
#: layer reports it as 0 with no samples.
LAYER_UNITS: Dict[str, str] = {
    "fleet.engine.tick_ms.p50": "ms",
    "fleet.engine.us_per_stream_tick": "us",
    "fleet.engine.busy_share": "ratio",
    "fleet.engine.closed_regions": "count",
    "cluster.fallout_share": "ratio",
    "cluster.fallout_ms_per_round": "ms",
    "cluster.batch_fits": "count",
    "fleet.scheduler.queue_wait_ms.p50": "ms",
    "fleet.scheduler.lock_wait_ms_sum": "ms",
    "fleet.scheduler.max_queued": "count",
    "fleet.scheduler.shed": "count",
    "fleet.scheduler.failures": "count",
    "fleet.scheduler.retries": "count",
    "core.explain.ms_per_job": "ms",
    "core.explain.batch_size_mean": "count",
    "core.generator.ms_per_call": "ms",
    "core.generator.predicates_kept": "count",
    "core.generator.rejected": "count",
    "core.causal.rank_ms_per_call": "ms",
    "core.causal.store_predicates": "count",
    "core.anomaly.detect_ms.p50": "ms",
    "perf.cache.hit_ratio": "ratio",
    "perf.cache.misses": "count",
    "perf.cache.resident_mb": "MB",
    "perf.cache.evictions": "count",
    "stream.wal.bytes_retained": "bytes",
    "stream.durability.checkpoint_ms.p50": "ms",
    "stream.durability.retries": "count",
    "stream.durability.degraded_transitions": "count",
    "obs.flight.kept_round_share": "ratio",
    "obs.flight.dropped_events": "count",
    "obs.flight.retained_kb": "KB",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_share": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
}


@dataclass
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value (1 for a single measurement)


@dataclass
class Result:
    """Everything one workload run measured."""

    workload: str
    shape: Dict[str, object]
    #: contract metrics (BENCHMARK.json names), by name
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    #: the same numbers under the names the workload's users know
    #: (``round_ms.p50``, ``explain_ms.p95``, ``top1_accuracy``, ...)
    named: Dict[str, Metric] = field(default_factory=dict)
    gates: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    phases_s: Dict[str, float] = field(default_factory=dict)

    def gate(self, name: str, passed: bool, detail: str = "") -> bool:
        self.gates.append((name, bool(passed), detail))
        return bool(passed)

    @property
    def correct(self) -> bool:
        return all(passed for _name, passed, _detail in self.gates)


def add_percentiles(
    out: Dict[str, Metric],
    name: str,
    values_ms: Sequence[float],
    qs: Sequence[int],
    result: Result,
) -> None:
    """Add ``name.pQ`` for each *q*; an unsupported tail fails a gate."""
    for q in qs:
        value = percentile(values_ms, q)
        key = f"{name}.p{q}"
        if result.gate(
            f"support:{key}",
            value is not None,
            f"{len(values_ms)} samples",
        ):
            out[key] = Metric(value, "ms", len(values_ms))


def map_cause_latency(
    result: Result, name: str, values_ms: Sequence[float]
) -> None:
    """Publish the mean of the workload's cause latency (*name*) as the
    contract's ``cause_ms.mean``.

    The contract keeps the mean, not the median: the reference host
    alternates between two speeds about 1.4x apart, so per-call latency
    is bimodal, and a median jumps from one mode to the other as the
    share of slow time crosses one half, while the mean moves in
    proportion to it (README.md, Noise).  Medians and tails are recorded
    under the workload's own names."""
    if len(values_ms):
        metric = Metric(statistics.fmean(values_ms), "ms", len(values_ms))
        result.named[f"{name}.mean"] = metric
        result.end_to_end["cause_ms.mean"] = metric


def set_layers(
    result: "Result",
    values: Dict[str, Tuple[float, int]],
    not_loaded: Sequence[str] = (),
) -> None:
    """Store per-layer ``name -> (value, samples)``; *not_loaded* are 0."""
    for name in not_loaded:
        values.setdefault(name, (0.0, 0))
    missing = set(LAYER_UNITS) - set(values)
    unknown = set(values) - set(LAYER_UNITS)
    if missing or unknown:
        raise KeyError(
            f"per-layer metrics missing {missing}, unknown {unknown}"
        )
    for name, unit in LAYER_UNITS.items():
        value, n = values[name]
        result.per_layer[name] = Metric(float(value), unit, int(n))


def timed_setups(
    build: Callable[[int], object],
    close: Callable[[object], None],
    first: int = 0,
    keep_last: bool = True,
    repeats: int = SETUP_REPEATS,
    budget_s: float = SETUP_BUDGET_S,
) -> Tuple[object, List[float]]:
    """Time ``build(first)``, ``build(first + 1)``, ... (one phase).

    Runs at least *repeats* set-ups, more while their total stays under
    *budget_s*, at most :data:`SETUP_MAX`.  Every result but the last is
    closed, the last too unless *keep_last*.  Returns ``(last result or
    None, seconds per set-up)``.
    """
    durations: List[float] = []
    kept = None
    # no set-up pays for garbage left before it
    gc.collect()

    def discard() -> None:
        close(kept)
        gc.collect()

    while len(durations) < repeats or (
        sum(durations) < budget_s and len(durations) < SETUP_MAX
    ):
        if kept is not None:
            discard()
            kept = None
        t0 = time.perf_counter()
        kept = build(first + len(durations))
        durations.append(time.perf_counter() - t0)
    if not keep_last:
        discard()
        kept = None
    return kept, durations


def setup_metric(result: Result, before: List[float], after: List[float]):
    """``setup_s``: the median of the serving set-up and the repeats."""
    setups = before + after
    metric = Metric(float(statistics.median(setups)), "s", len(setups))
    result.end_to_end["setup_s"] = result.named["setup_s"] = metric
    result.phases_s.update(setups_before=before, setups_after=after)


def spread(bounds: Tuple[int, int], k: int, n: int) -> int:
    """The *k*-th of *n* integers spread evenly over ``[lo, hi]``."""
    lo, hi = bounds
    return lo if n < 2 else int(round(lo + (hi - lo) * k / (n - 1)))


def job_key(dataset, spec) -> Tuple[str, float, float]:
    """``(tenant, region start, region end)`` of one fleet diagnosis job."""
    tenant = dataset.name.split(":", 1)[1]
    region = spec.abnormal[0]
    return (tenant, float(region.start), float(region.end))


class DiagnosisProbe:
    """Stands in for the fleet's ``DBSherlock``, timing ``explain_batch``.

    Every completed batch appends ``(start, end, keys)`` to
    :attr:`batches`; that is what ``tick_to_cause`` joins against.  With
    *sample* > 0 a seeded reservoir of that many jobs also keeps their
    dataset, spec and explanation (:attr:`kept`) for the serial
    re-explain gate; a bounded sample keeps memory flat however long
    the run.  Every other attribute is the wrapped facade's.
    """

    def __init__(self, sherlock, sample: int = 0, seed: int = 0) -> None:
        self.sherlock = sherlock
        self.batches: List[Tuple[float, float, List[tuple]]] = []
        self.kept: List[tuple] = []
        self._sample = int(sample)
        self._seen = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def explain_batch(self, jobs, attributes=None):
        jobs = list(jobs)
        start = time.perf_counter()
        out = self.sherlock.explain_batch(jobs, attributes)
        end = time.perf_counter()
        keys = [job_key(ds, spec) for ds, spec in jobs]
        # list.append is atomic; two diagnosis workers may call at once
        self.batches.append((start, end, keys))
        if self._sample:
            with self._lock:
                for key, (ds, spec), expl in zip(keys, jobs, out):
                    self._reservoir((key, ds, spec, expl))
        return out

    def _reservoir(self, item: tuple) -> None:
        self._seen += 1
        if len(self.kept) < self._sample:
            self.kept.append(item)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self._sample:
            self.kept[slot] = item

    def __getattr__(self, name):
        return getattr(self.sherlock, name)


def trace_sherlock(rec, sherlock, request_of_explain=None) -> None:
    """Patch the facade's public calls with per-layer spans."""
    rec.patch(sherlock, "explain", "core.explain", request_of_explain)
    rec.patch(sherlock, "detect", "core.anomaly")
    rec.patch(sherlock.generator, "generate", "core.generator")
    rec.patch(sherlock.store, "rank", "core.causal")


def counter(registry, name: str) -> float:
    """A registry counter/gauge value; families sum their children."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    children = getattr(metric, "children", None)
    if children is not None:
        return float(sum(child.value for _labels, child in children()))
    return float(metric.value)


def histogram(registry, name: str) -> Tuple[int, float]:
    """``(count, sum)`` of a label-free registry histogram."""
    metric = registry.get(name)
    if metric is None:
        return 0, 0.0
    return int(metric.count), float(metric.sum)


def store_predicates(sherlock) -> int:
    return sum(len(model.predicates) for model in sherlock.store)


def cache_delta(
    after: Dict[str, int], before: Dict[str, int]
) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "misses": float(misses),
        "evictions": float(after["evictions"] - before["evictions"]),
        "resident_mb": after["resident_bytes"] / (1024.0 * 1024.0),
    }
