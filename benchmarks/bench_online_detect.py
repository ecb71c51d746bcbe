"""Online-detection bench: re-run-batch vs streaming per-tick latency.

Feeds seeded scenario runs tick by tick and times three ways of answering
"is the current telemetry window anomalous?" once the window is at
steady state (full):

* **batch_golden** — the frozen seed detector
  (``GoldenAnomalyDetector`` in ``tests/stream_oracle.py``) re-run from
  scratch on a window snapshot: the true "re-run the batch detector
  every tick" baseline (Python-loop Equation 4, dense O(n²) DBSCAN);
* **batch_vectorized** — the live :class:`AnomalyDetector` re-run per
  tick (vectorized Equation 4, batched DBSCAN) on the same snapshot;
* **stream_exact** — :class:`StreamingDetector` (a one-lane fleet):
  potential power kept per row, full re-cluster per tick.

Equivalence is asserted before any number is reported: ``stream_exact``
must match ``batch_vectorized`` on every steady-state window (mask,
regions, selected attributes, ε), and ``batch_vectorized`` must match
``batch_golden`` on every sampled window.  The batch paths run on a
window cut straight from the source dataset, so a storage bug in the
streaming detector cannot agree with itself.  Per-tick latency percentiles
and speedups land in ``BENCH_online_detect.json`` at the repo root.

Run standalone (``PERF_BENCH_SCALE=tiny`` is the CI smoke scale):

    python benchmarks/bench_online_detect.py

or via ``pytest benchmarks/ --benchmark-only`` (tiny scale, no JSON).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # allow `python benchmarks/bench_online_detect.py`
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the golden copies live under tests/
    sys.path.append(str(_REPO_ROOT))

from repro.core.anomaly import AnomalyDetector  # noqa: E402
from repro.eval.harness import replay_rows, simulate_run  # noqa: E402
from repro.stream import StreamingDetector  # noqa: E402
from tests.stream_oracle import GoldenAnomalyDetector  # noqa: E402

#: Bench scales; "tiny" is the CI smoke (seconds), "bench" the recorded
#: run.  ``golden_stride`` subsamples the golden baseline — it is two
#: orders of magnitude slower per tick, so timing it on every tick would
#: dominate the bench without changing its percentiles.
SCALES = {
    "tiny": dict(
        scenarios=[("cpu_saturation", 11)],
        duration_s=20,
        normal_s=40,
        capacity=40,
        golden_stride=10,
    ),
    "bench": dict(
        scenarios=[("cpu_saturation", 11), ("network_congestion", 22)],
        duration_s=40,
        normal_s=120,
        capacity=120,
        golden_stride=20,
    ),
}

#: Acceptance floors at full bench scale (steady-state p50 per tick).
#: The headline number: streaming vs re-running the (seed) batch
#: detector every tick.
MIN_SPEEDUP_VS_GOLDEN = 5.0
#: Streaming must also beat re-running the *vectorized* batch detector,
#: which shares its clustering kernels.
MIN_EXACT_VS_BATCH = 1.2


def _percentiles(samples) -> dict:
    arr = np.asarray(samples, dtype=np.float64) * 1000.0  # → ms
    return {
        "n": int(arr.size),
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p90_ms": round(float(np.percentile(arr, 90)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
        "mean_ms": round(float(arr.mean()), 4),
    }


def _assert_equal(a, b, context: str) -> None:
    assert np.array_equal(a.mask, b.mask), f"{context}: masks diverge"
    assert a.regions == b.regions, f"{context}: regions diverge"
    assert a.selected_attributes == b.selected_attributes, (
        f"{context}: selected attributes diverge"
    )
    assert a.eps == b.eps, f"{context}: eps diverges"


def _run_scenario(anomaly_key: str, seed: int, params: dict, latencies: dict):
    dataset, _, _ = simulate_run(
        anomaly_key,
        duration_s=params["duration_s"],
        seed=seed,
        normal_s=params["normal_s"],
    )
    capacity = params["capacity"]
    stream_exact = StreamingDetector(capacity=capacity)
    batch = AnomalyDetector()
    golden = GoldenAnomalyDetector()

    windows_compared = 0
    for i, (t, numeric_row, categorical_row) in enumerate(
        replay_rows(dataset)
    ):
        start = time.perf_counter()
        exact_tick = stream_exact.tick(t, numeric_row, categorical_row)
        exact_s = time.perf_counter() - start

        if i + 1 < capacity:
            continue  # cold start: only steady-state ticks are scored
        latencies["stream_exact"].append(exact_s)

        # "re-run the batch detector every tick": snapshot + full detect,
        # on the last `capacity` rows of the source dataset
        rows = np.zeros(dataset.n_rows, dtype=bool)
        rows[i + 1 - capacity : i + 1] = True
        start = time.perf_counter()
        snapshot = dataset.select(rows)
        batch_result = batch.detect(snapshot)
        latencies["batch_vectorized"].append(time.perf_counter() - start)

        _assert_equal(
            exact_tick.result,
            batch_result,
            f"{anomaly_key}@t={t} stream_exact vs batch",
        )
        windows_compared += 1

        if i % params["golden_stride"] == 0:
            start = time.perf_counter()
            golden_result = golden.detect(snapshot)
            latencies["batch_golden"].append(time.perf_counter() - start)
            _assert_equal(
                batch_result,
                golden_result,
                f"{anomaly_key}@t={t} batch vs golden",
            )
    return windows_compared


def run_bench(scale: str = "bench", write_json: bool = True) -> dict:
    params = SCALES[scale]
    latencies = {
        "batch_golden": [],
        "batch_vectorized": [],
        "stream_exact": [],
    }
    windows_compared = 0
    for anomaly_key, seed in params["scenarios"]:
        windows_compared += _run_scenario(
            anomaly_key, seed, params, latencies
        )

    paths = {name: _percentiles(s) for name, s in latencies.items()}
    golden_p50 = paths["batch_golden"]["p50_ms"]
    batch_p50 = paths["batch_vectorized"]["p50_ms"]
    summary = {
        "scale": scale,
        "scenarios": [key for key, _ in params["scenarios"]],
        "capacity": params["capacity"],
        "steady_state_windows": windows_compared,
        "per_tick": paths,
        "speedup_p50": {
            "stream_exact_vs_batch_golden": round(
                golden_p50 / paths["stream_exact"]["p50_ms"], 2
            ),
            "stream_exact_vs_batch_vectorized": round(
                batch_p50 / paths["stream_exact"]["p50_ms"], 2
            ),
        },
        "equivalent": True,  # _assert_equal would have raised otherwise
    }

    if write_json:
        out = _REPO_ROOT / "BENCH_online_detect.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        summary["json"] = str(out)
    return summary


def _report(summary: dict) -> None:
    print(f"\n=== online detection bench ({summary['scale']} scale) ===")
    print(
        f"scenarios: {', '.join(summary['scenarios'])} | "
        f"capacity {summary['capacity']} | "
        f"{summary['steady_state_windows']} steady-state windows "
        f"(all equivalence-checked)"
    )
    for name, stats in summary["per_tick"].items():
        print(
            f"{name:22s} p50={stats['p50_ms']:9.3f}ms "
            f"p90={stats['p90_ms']:9.3f}ms p99={stats['p99_ms']:9.3f}ms "
            f"mean={stats['mean_ms']:9.3f}ms (n={stats['n']})"
        )
    for name, ratio in summary["speedup_p50"].items():
        print(f"{name}: {ratio}x")


def _check(summary: dict) -> None:
    speedups = summary["speedup_p50"]
    assert summary["equivalent"]
    if summary["scale"] == "bench":
        ratio = speedups["stream_exact_vs_batch_golden"]
        assert ratio >= MIN_SPEEDUP_VS_GOLDEN, (
            f"stream_exact only {ratio}x faster than re-running the batch "
            f"detector (floor {MIN_SPEEDUP_VS_GOLDEN}x)"
        )
        assert (
            speedups["stream_exact_vs_batch_vectorized"]
            >= MIN_EXACT_VS_BATCH
        ), speedups


def test_online_detect(benchmark):
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
