"""Perf-engine bench: old serial vs cached/batched diagnosis paths.

Times three ways of running the model-ranking path (Equation 3) on a
Fig. 7-style protocol over a 4-class suite:

* **golden** — the frozen seed implementation (per-predicate region-mask
  recomputation, Python-loop midpoints, per-attribute labeling), kept in
  ``tests/generator_oracle.py``;
* **per-call cache** — the live path called with no cache, so each
  confidence score labels its attributes through a private
  :class:`LabeledSpaceCache` that dies with the call;
* **cached** — the live path with one :class:`LabeledSpaceCache` shared
  across the whole ranking sweep, as the evaluation harness runs it.

Also times Algorithm 1 predicate generation golden (per-attribute loop)
vs batched (stacked offset-bincount labeling).  Every timed pass is
asserted bitwise-identical to the golden output before any number is
reported; results land in ``BENCH_perf_engine.json`` at the repo root.

Run standalone (``PERF_BENCH_SCALE=tiny`` is the CI smoke scale):

    python benchmarks/bench_perf_engine.py

or via ``pytest benchmarks/ --benchmark-only`` (tiny scale, no JSON).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # allow `python benchmarks/bench_perf_engine.py`
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the golden copies live under tests/
    sys.path.append(str(_REPO_ROOT))

from repro.anomalies.library import ANOMALY_CAUSES  # noqa: E402
from repro.core.causal import CausalModel  # noqa: E402
from repro.core.generator import GeneratorConfig, PredicateGenerator  # noqa: E402
from repro.eval.harness import build_suite, rank_models  # noqa: E402
from repro.perf.cache import LabeledSpaceCache  # noqa: E402
from tests.generator_oracle import (  # noqa: E402
    golden_generate_with_artifacts,
    golden_rank,
)

#: Bench scales; "tiny" is the CI smoke (seconds), "bench" the recorded run.
#: ``rank_repeats`` models the paper's protocols ranking every test dataset
#: repeatedly (Fig. 7 sweeps each model over all datasets; the Section 8.5
#: merged protocol re-ranks each test dataset once per random-split trial).
SCALES = {
    "tiny": dict(
        n_causes=2, durations=(30, 40), normal_s=60, repeats=3, rank_repeats=3
    ),
    "bench": dict(
        n_causes=4,
        durations=(30, 45, 60, 75),
        normal_s=120,
        repeats=2,
        rank_repeats=3,
    ),
}

SUITE_SEED = 2016
THETA = 0.2

#: Acceptance floor for the model-ranking path at full bench scale.
MIN_RANKING_SPEEDUP = 3.0


def _timed(fn, repeats):
    """Best-of-N wall-clock of fn() plus its (final) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _ranking_tasks(suite, models_by_cause):
    """The Fig. 7 cross-product: (competitors, test_run, cause) triples."""
    tasks = []
    for cause, runs in suite.items():
        n_models = len(models_by_cause[cause])
        for model_idx in range(n_models):
            competitors = [models_by_cause[cause][model_idx]] + [
                other[model_idx % len(other)]
                for other_cause, other in models_by_cause.items()
                if other_cause != cause
            ]
            for test_idx, run in enumerate(runs):
                if test_idx == model_idx:
                    continue
                tasks.append((competitors, run, cause))
    return tasks


def run_bench(scale: str = "bench", write_json: bool = True) -> dict:
    params = SCALES[scale]
    keys = list(ANOMALY_CAUSES)[: params["n_causes"]]

    start = time.perf_counter()
    suite = build_suite(
        anomaly_keys=keys,
        durations=params["durations"],
        seed=SUITE_SEED,
        normal_s=params["normal_s"],
    )
    suite_s = time.perf_counter() - start
    all_runs = [run for runs in suite.values() for run in runs]

    # ------------------------------------------------------------------
    # Algorithm 1: golden per-attribute loop vs batched labeling
    # ------------------------------------------------------------------
    config = GeneratorConfig(theta=THETA)
    repeats = params["repeats"]

    golden_gen_s, golden_arts = _timed(
        lambda: [
            golden_generate_with_artifacts(r.dataset, r.spec, config)
            for r in all_runs
        ],
        repeats,
    )
    generator = PredicateGenerator(config)
    batched_gen_s, batched_arts = _timed(
        lambda: [
            generator.generate_with_artifacts(r.dataset, r.spec)
            for r in all_runs
        ],
        repeats,
    )
    for golden_art, batched_art in zip(golden_arts, batched_arts):
        golden_preds = {
            a: art.predicate for a, art in golden_art.items() if art.predicate
        }
        batched_preds = {
            a: art.predicate for a, art in batched_art.items() if art.predicate
        }
        assert golden_preds == batched_preds, "generator paths diverge"

    # ------------------------------------------------------------------
    # Equation 3 model ranking: golden vs per-call cache vs shared cache
    # ------------------------------------------------------------------
    # batched_arts is aligned with all_runs (suite iteration order)
    models_by_cause = {}
    artifacts_iter = iter(batched_arts)
    for cause, runs in suite.items():
        models_by_cause[cause] = [
            CausalModel(
                cause,
                [
                    art.predicate
                    for art in next(artifacts_iter).values()
                    if art.predicate is not None
                ],
            )
            for _ in runs
        ]
    tasks = _ranking_tasks(suite, models_by_cause) * params["rank_repeats"]

    golden_rank_s, golden_scores = _timed(
        lambda: [
            golden_rank(competitors, run.dataset, run.spec)
            for competitors, run, _ in tasks
        ],
        repeats,
    )

    def _per_call_cache_pass():
        results = []
        for competitors, run, _ in tasks:
            scored = [
                (m.cause, m.confidence(run.dataset, run.spec, 250))
                for m in competitors
            ]
            scored.sort(key=lambda item: item[1], reverse=True)
            results.append(scored)
        return results

    per_call_rank_s, per_call_scores = _timed(_per_call_cache_pass, repeats)

    cache_stats = {}

    def _cached_pass():
        cache = LabeledSpaceCache()
        results = [
            rank_models(competitors, run.dataset, run.spec, cache=cache)
            for competitors, run, _ in tasks
        ]
        cache_stats.update(cache.stats())
        return results

    cached_rank_s, cached_scores = _timed(_cached_pass, repeats)

    assert golden_scores == per_call_scores == cached_scores, (
        "ranking paths diverge — the perf layer is NOT bitwise-identical"
    )

    summary = {
        "scale": scale,
        "suite": {
            "n_causes": len(suite),
            "n_datasets": len(all_runs),
            "build_s": round(suite_s, 3),
        },
        "generator": {
            "golden_s": round(golden_gen_s, 3),
            "batched_s": round(batched_gen_s, 3),
            "speedup": round(golden_gen_s / batched_gen_s, 2),
        },
        "ranking": {
            "n_rankings": len(tasks),
            "models_per_ranking": len(suite),
            "golden_s": round(golden_rank_s, 3),
            "per_call_cache_s": round(per_call_rank_s, 3),
            "cached_s": round(cached_rank_s, 3),
            "speedup_cached_vs_per_call": round(
                per_call_rank_s / cached_rank_s, 2
            ),
            "speedup_cached_vs_golden": round(
                golden_rank_s / cached_rank_s, 2
            ),
            "cache": cache_stats,
        },
        "equivalent": True,
    }

    if write_json:
        out = _REPO_ROOT / "BENCH_perf_engine.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        summary["json"] = str(out)
    return summary


def _report(summary: dict) -> None:
    ranking = summary["ranking"]
    generator = summary["generator"]
    print(f"\n=== perf engine bench ({summary['scale']} scale) ===")
    print(
        f"suite: {summary['suite']['n_datasets']} datasets "
        f"({summary['suite']['build_s']}s to simulate)"
    )
    print(
        f"Algorithm 1 generation: golden {generator['golden_s']}s -> "
        f"batched {generator['batched_s']}s ({generator['speedup']}x)"
    )
    print(
        f"model ranking ({ranking['n_rankings']} rankings x "
        f"{ranking['models_per_ranking']} models): "
        f"golden {ranking['golden_s']}s, "
        f"per-call cache {ranking['per_call_cache_s']}s, "
        f"cached {ranking['cached_s']}s"
    )
    print(
        f"cached vs per-call: {ranking['speedup_cached_vs_per_call']}x | "
        f"cached vs golden: {ranking['speedup_cached_vs_golden']}x"
    )
    print(f"cache: {ranking['cache']}")


def _check(summary: dict) -> None:
    ranking = summary["ranking"]
    # CI gate: the shared cache must never lose to a per-call cache.
    assert ranking["cached_s"] <= ranking["per_call_cache_s"], (
        f"shared cache slower than a per-call cache "
        f"({ranking['cached_s']}s > {ranking['per_call_cache_s']}s)"
    )
    if summary["scale"] == "bench":
        assert ranking["speedup_cached_vs_per_call"] >= MIN_RANKING_SPEEDUP, (
            f"ranking speedup {ranking['speedup_cached_vs_per_call']}x "
            f"below the {MIN_RANKING_SPEEDUP}x acceptance floor"
        )


def test_perf_engine(benchmark):
    summary = benchmark.pedantic(
        lambda: run_bench("tiny", write_json=False), rounds=1, iterations=1
    )
    _report(summary)
    _check(summary)


if __name__ == "__main__":
    chosen = os.environ.get("PERF_BENCH_SCALE", "bench")
    bench_summary = run_bench(chosen)
    _report(bench_summary)
    _check(bench_summary)
    print(f"wrote {bench_summary['json']}")
