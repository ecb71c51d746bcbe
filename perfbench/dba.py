"""``dba_explain``: the paper's interactive session, one request at a time.

A seeded pool of TPC-C incident datasets; the causal-model store is
trained in set-up from separately seeded runs.  Each request is one of:

``cold``
    explain a fresh copy of a pool dataset with its marked region, then
    confirm the injected cause with ``DBSherlock.feedback`` (a model
    merge: the write beside the reads);
``auto``
    explain a fresh copy with ``spec=None``, so Section 7 detection
    locates the region first;
``warm``
    re-explain a recently explained dataset object with the same region,
    so the labeled-space cache answers.

A closed loop on one thread: the next request is issued when the
previous one returns.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.anomalies.library import ANOMALY_CAUSES
from repro.core.explain import DBSherlock
from repro.eval.harness import simulate_run
from repro.obs import metrics

from common import (
    LAYERS,
    LAYER_UNITS,
    MAX_EXTEND,
    TRACE_BLOCK,
    Metric,
    Result,
    add_percentiles,
    cache_delta,
    counter,
    histogram,
    map_cause_latency,
    set_layers,
    spread,
    store_predicates,
    setup_metric,
    timed_setups,
    trace_sherlock,
)
from env import peak_rss_mb
from measure import durations_ms, min_samples, self_time_by_layer
from tracing import SpanRecorder

POOL_PER_CAUSE = 4
TRAIN_PER_CAUSE = 2
ANOMALY_S = (30, 60)
NORMAL_S = 120

#: Request mix per block of 20 requests, shuffled within the block: the
#: shares are exact over every block, so one run's tail is not set by how
#: many slow auto-detect requests its seed happened to draw.
MIX_BLOCK = ("auto",) * 2 + ("warm",) * 3 + ("cold",) * 15
#: Recently explained datasets kept alive for warm requests.
WARM_RING = 16
WARMUP_REQUESTS = 10

#: Share of top-1 correct requests below which the run fails.
DBA_TOP1_FLOOR = 0.4

#: Per-layer metric prefixes this workload drives; every other per-layer
#: metric is reported as 0.
_CORE = ("core.", "perf.cache.", "trace.")


class Session:
    """Seeded pool, training runs and request schedule."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.rng = rng

        n = len(ANOMALY_CAUSES)

        def draw(i: int, per_cause: int):
            # fixed shape: every cause at evenly spread anomaly lengths
            return simulate_run(
                ANOMALY_CAUSES[i % n],
                duration_s=spread(ANOMALY_S, i // n, per_cause),
                normal_s=NORMAL_S,
                seed=int(rng.integers(2**31 - 1)),
            )

        self.pool = [
            draw(i, POOL_PER_CAUSE) for i in range(POOL_PER_CAUSE * n)
        ]
        self.training = [
            draw(i, TRAIN_PER_CAUSE) for i in range(TRAIN_PER_CAUSE * n)
        ]
        self.recent: List[tuple] = []
        self._kinds: List[str] = []
        self._order: List[int] = []

    def train(self, sherlock: DBSherlock) -> None:
        for dataset, spec, cause in self.training:
            sherlock.feedback(cause, sherlock.explain(dataset, spec), dataset)

    def next_request(self) -> Tuple[str, object, object, str]:
        """``(kind, dataset, spec, cause)`` of the next request.

        Kinds follow shuffled :data:`MIX_BLOCK` blocks; cold and auto
        requests walk the pool in successive shuffled passes.
        """
        if not self._kinds:
            self._kinds = list(self.rng.permutation(MIX_BLOCK))
        kind = self._kinds.pop()
        if kind == "warm" and self.recent:
            pick = self.recent[int(self.rng.integers(len(self.recent)))]
            return ("warm",) + pick
        if not self._order:
            order = self.rng.permutation(len(self.pool))
            self._order = [int(k) for k in order]
        dataset, spec, cause = self.pool[self._order.pop()]
        fresh = dataset.select(np.ones(len(dataset), dtype=bool))
        if kind == "auto":
            return "auto", fresh, None, cause
        return "cold", fresh, spec, cause

    def explained(self, dataset, spec, cause) -> None:
        self.recent.append((dataset, spec, cause))
        del self.recent[:-WARM_RING]


def _serve(sherlock, kind, dataset, spec, cause, session) -> tuple:
    """One request; returns ``(explanation, explain_s, request_s)``."""
    t0 = time.perf_counter()
    explanation = sherlock.explain(dataset, spec)
    t1 = time.perf_counter()
    if kind == "cold":
        sherlock.feedback(cause, explanation, dataset)
        session.explained(dataset, spec, cause)
    t2 = time.perf_counter()
    return explanation, t1 - t0, t2 - t0


def run_dba(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    clock = time.perf_counter
    t0 = clock()
    session = Session(seed)
    inputs_s = clock() - t0

    def build(_i: int) -> DBSherlock:
        sherlock = DBSherlock()
        session.train(sherlock)
        return sherlock

    def close(_old: DBSherlock) -> None:
        pass  # nothing to release but memory

    sherlock, setups_before = timed_setups(
        build, close, repeats=1, budget_s=0.0
    )  # only the serving set-up runs before measurement
    res = Result(
        "dba_explain",
        shape={
            "pool_datasets": len(session.pool),
            "training_datasets": len(session.training),
            "attributes": len(session.pool[0][0].attributes),
            "rows_per_dataset": [
                min(len(d) for d, _s, _c in session.pool),
                max(len(d) for d, _s, _c in session.pool),
            ],
            "mix_per_20_requests": {
                k: MIX_BLOCK.count(k) for k in ("cold", "warm", "auto")
            },
            "loop": "closed, one driving thread",
        },
    )

    # Warm-up: confirm every pool incident once, so the merged models
    # (and with them the cost of ranking) are already stationary when
    # measurement starts, then a few requests of the measured mix.
    t1 = clock()
    for dataset, spec, cause in session.pool:
        fresh = dataset.select(np.ones(len(dataset), dtype=bool))
        _serve(sherlock, "cold", fresh, spec, cause, session)
    for _ in range(WARMUP_REQUESTS):
        _serve(sherlock, *session.next_request(), session)
    warmup_s = clock() - t1

    reg = metrics.REGISTRY
    reg.reset()
    cache0 = sherlock.cache.stats()
    need = min_samples(95)
    rec = SpanRecorder() if trace else None
    kinds: List[str] = []
    explain_ms: List[float] = []
    request_ms: List[float] = []
    correct: List[bool] = []
    iter_s: Dict[bool, List[float]] = {False: [], True: []}
    traced_windows: List[Tuple[float, float]] = []
    start = clock()
    deadline = start + seconds
    hard_deadline = start + seconds * MAX_EXTEND
    i = 0
    while True:
        now = clock()
        if now >= hard_deadline or (now >= deadline and len(kinds) >= need):
            break
        tracing = trace and (i // TRACE_BLOCK) % 2 == 1
        if trace and i % TRACE_BLOCK == 0:
            if tracing:

                def request(*_a, **_k):
                    return ("request", i)

                rec.patch(sherlock, "feedback", "core.explain", request)
                rec.patch(sherlock.store, "add", "core.causal")
                trace_sherlock(rec, sherlock, request)
            else:
                rec.unpatch()
        it0 = clock()
        kind, dataset, spec, cause = session.next_request()
        explanation, ex_s, rq_s = _serve(
            sherlock, kind, dataset, spec, cause, session
        )
        it1 = clock()
        iter_s[tracing].append(it1 - it0)
        if tracing:
            traced_windows.append((it0, it1))
        kinds.append(kind)
        explain_ms.append(ex_s * 1e3)
        request_ms.append(rq_s * 1e3)
        # correctness check, outside the timed calls
        correct.append(explanation.top_cause == cause)
        i += 1
    measured_s = clock() - start
    if trace:
        rec.unpatch()

    n = len(kinds)
    top1 = sum(correct) / n
    res.gate(
        "top1_floor",
        top1 >= DBA_TOP1_FLOOR,
        f"{top1:.3f} over {n} requests (floor {DBA_TOP1_FLOOR})",
    )
    named = res.named
    e2e = res.end_to_end
    add_percentiles(named, "explain_ms", explain_ms, (50, 90, 95), res)
    add_percentiles(named, "request_ms", request_ms, (50, 90), res)
    e2e["peak_rss_mb"] = named["peak_rss_mb"] = Metric(
        peak_rss_mb(), "MB", 1
    )
    e2e["ops_per_s"] = named["requests_per_s"] = Metric(
        n / (sum(request_ms) / 1e3), "1/s", n
    )
    map_cause_latency(res, "explain_ms", explain_ms)
    named["top1_accuracy"] = Metric(top1, "ratio", n)
    res.attempted = n + len(res.gates)
    res.failed = sum(1 for _n, ok, _d in res.gates if not ok)
    named["failed_fraction"] = Metric(
        res.failed / res.attempted, "ratio", res.attempted
    )
    by_kind = {k: kinds.count(k) for k in ("cold", "warm", "auto")}
    for kind, count in by_kind.items():
        hits = sum(ok for k, ok in zip(kinds, correct) if k == kind)
        named[f"top1_accuracy.{kind}"] = Metric(
            hits / count if count else 0.0, "ratio", count
        )

    if trace:
        spans = rec.spans
        wall = sum(b - a for a, b in traced_windows)
        selfs = self_time_by_layer(spans)
        covered = sum(
            e - s for _i, _n, s, e, parent, _t, _r in spans if parent is None
        )
        rank_ms = durations_ms(spans, "core.causal:rank")
        detect_ms = durations_ms(spans, "core.anomaly:detect")
        gen_n, gen_sum = histogram(reg, "repro_generator_seconds")
        cache = cache_delta(sherlock.cache.stats(), cache0)
        untraced, traced = iter_s[False], iter_s[True]
        layer = {
            "core.explain.ms_per_job": (float(np.mean(explain_ms)), n),
            "core.explain.batch_size_mean": (1.0, n),
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
            "core.causal.store_predicates": (store_predicates(sherlock), 1),
            "core.anomaly.detect_ms.p50": (
                float(np.median(detect_ms)) if detect_ms else 0.0,
                len(detect_ms),
            ),
            "perf.cache.hit_ratio": (cache["hit_ratio"], n),
            "perf.cache.misses": (cache["misses"], n),
            "perf.cache.resident_mb": (cache["resident_mb"], 1),
            "perf.cache.evictions": (cache["evictions"], n),
            "trace.overhead_frac": (
                np.mean(traced) / np.mean(untraced) - 1.0, len(traced)
            ),
            "trace.unattributed_share": (1.0 - covered / wall, len(traced)),
        }
        for name in LAYERS:
            if name.startswith("core."):
                layer[f"{name}.self_share"] = (
                    selfs.get(name, 0.0) / wall,
                    len(traced),
                )
        set_layers(
            res,
            layer,
            not_loaded=[m for m in LAYER_UNITS if not m.startswith(_CORE)],
        )
        rec.write_jsonl(workdir.parent / f"spans-dba_explain-seed{seed}.jsonl")

    res.phases_s = {
        "inputs": inputs_s,
        "warmup": warmup_s,
        "measured": measured_s,
    }
    res.shape.update(
        requests=n, **{f"requests_{k}": v for k, v in by_kind.items()}
    )
    # the repeats start from a heap like the serving set-up's: the
    # collector's passes in training cost more while the measured
    # facade and its cache are still alive
    del sherlock, dataset, explanation
    session.recent.clear()
    _, setups_after = timed_setups(
        build, close, first=len(setups_before), keep_last=False
    )
    setup_metric(res, setups_before, setups_after)
    return res
