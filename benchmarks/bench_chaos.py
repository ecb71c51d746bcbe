"""Chaos bench: diagnosis robustness under degraded telemetry.

Two legs, both asserted before any number is reported:

* **accuracy-degradation** — :func:`repro.eval.chaos.run_chaos_suite`
  replays the anomaly scenario suite under the graded fault-profile
  ladder (clean / light / moderate / heavy / drift).  Under the
  *moderate* profile (5 % dropped ticks, 2 % NaN cells, one stuck-at
  attribute) every scenario must complete with zero exceptions, and at
  full bench scale the mean correct-cause confidence margin may degrade
  by at most ``MAX_MODERATE_MARGIN_DROP`` and top-1 accuracy by at most
  ``MAX_MODERATE_TOP1_DROP`` relative to the clean profile.  The
  *drift* profile (a collector upgrade: ~35 % of attributes renamed,
  2 % dropped, junk columns added) must also complete with zero
  exceptions — schema reconciliation maps the renamed attributes back —
  and at bench scale its top-1 accuracy may trail clean by at most
  ``MAX_DRIFT_TOP1_DROP``;
* **crash-recovery** — one scenario is streamed through a
  :class:`repro.stream.StreamSupervisor` whose source crashes mid-run
  (:class:`repro.faults.CollectorCrash`), with a write-ahead tick log
  (``wal_dir``).  The supervisor must recover via backoff + durable
  checkpoint restore + WAL replay, emit closed regions identical to an
  uninterrupted detector on the same rows, and re-process **zero**
  source ticks;
* **dogfood-observability** — a diagnosis service loop is run with the
  labeled-space cache knocked out mid-run while
  :class:`repro.obs.metrics.TimelineRing` samples the metrics
  registry each tick.  The pipeline's own telemetry must round-trip
  ``regularize_dataset`` with zero missing values, show the cache-miss
  step after the fault, stream through a detector and explain with zero
  exceptions, and the fault-window explanation must contain cache/
  generator predicates (whether the *automatic* detector flags the step
  is reported, not asserted).

Results land in ``BENCH_chaos.json`` at the repo root.

Run standalone (``PERF_BENCH_SCALE=tiny`` is the CI smoke scale):

    python benchmarks/bench_chaos.py

or via ``pytest benchmarks/ --benchmark-only`` (tiny scale, no JSON).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # allow `python benchmarks/bench_chaos.py`
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.eval.chaos import PROFILES, run_chaos_suite  # noqa: E402
from repro.eval.harness import replay_rows, simulate_run  # noqa: E402
from repro.faults import CollectorCrash, FaultPlan  # noqa: E402
from repro.stream import StreamingDetector, StreamSupervisor  # noqa: E402

#: Bench scales; "tiny" is the CI smoke (seconds), "bench" the recorded
#: run over all 10 anomaly classes and the full profile ladder.
SCALES = {
    "tiny": dict(
        anomaly_keys=["cpu_saturation", "workload_spike"],
        durations=(30, 40),
        normal_s=60,
        profile_names=["clean", "moderate", "drift"],
        crash_scenario=("cpu_saturation", 17),
        crash_duration_s=30,
        crash_normal_s=60,
        capacity=40,
        crash_at_tick=45,
        dogfood_ticks=16,
        dogfood_fault_tick=8,
    ),
    "bench": dict(
        anomaly_keys=None,  # all 10 causes
        durations=(40, 60),
        normal_s=90,
        profile_names=["clean", "light", "moderate", "heavy", "drift"],
        crash_scenario=("network_congestion", 17),
        crash_duration_s=40,
        crash_normal_s=90,
        capacity=60,
        # off the checkpoint cadence so recovery exercises WAL replay
        crash_at_tick=73,
        dogfood_ticks=30,
        dogfood_fault_tick=15,
    ),
}

#: Acceptance floors.  Zero moderate-profile errors is enforced at every
#: scale; the degradation bounds only at full bench scale (tiny runs too
#: few scenarios for stable means).  Both bounds are *relative to the
#: clean profile* — the chaos bench measures robustness (how much the
#: faults cost), not the protocol's absolute accuracy, which the
#: accuracy benches already pin down.  With ``hash()`` purged from the
#: simulator (zlib.crc32, see tests/test_determinism.py) the suite is
#: bitwise-reproducible across processes, so the floors are tight:
#: recorded full-scale run has moderate margin delta +0.001 and top-1
#: delta 0.0 (no degradation at all); heavy margin delta −0.023,
#: top-1 delta −0.10.
MAX_MODERATE_MARGIN_DROP = 0.01
MAX_MODERATE_TOP1_DROP = 0.0

#: Drift-profile floor: with fingerprints persisted and reconciliation
#: in the ranking path, a rename-heavy collector upgrade should cost
#: almost nothing — renamed attributes map back bit-exactly, only the
#: genuinely dropped ones (2 %) lose evidence.
MAX_DRIFT_TOP1_DROP = 0.05


def _run_crash_recovery(params: dict, seed: int = 29) -> dict:
    """Stream one scenario through a crashing source; compare regions."""
    anomaly_key, sim_seed = params["crash_scenario"]
    dataset, _, _ = simulate_run(
        anomaly_key,
        duration_s=params["crash_duration_s"],
        seed=sim_seed,
        normal_s=params["crash_normal_s"],
    )
    capacity = params["capacity"]

    baseline = StreamingDetector(capacity=capacity)
    uninterrupted = []
    for t, numeric_row, categorical_row in replay_rows(dataset):
        update = baseline.tick(t, numeric_row, categorical_row)
        uninterrupted.extend(update.closed_regions)

    crash_plan = FaultPlan(
        [CollectorCrash(at_tick=params["crash_at_tick"])], seed=seed
    )

    def source_factory(attempt: int):
        ticks = replay_rows(dataset)
        # only the first attempt crashes; the restarted collector is clean
        return crash_plan.wrap(ticks) if attempt == 0 else ticks

    with tempfile.TemporaryDirectory() as wal_dir:
        supervisor = StreamSupervisor(
            StreamingDetector(capacity=capacity),
            source_factory,
            checkpoint_every=10,
            sleep=lambda s: None,  # don't actually wait in a bench
            wal_dir=wal_dir,
        )
        report = supervisor.run()

    recovered = [
        {"start": r.start, "end": r.end} for r in report.closed_regions
    ]
    expected = [{"start": r.start, "end": r.end} for r in uninterrupted]
    return {
        "scenario": anomaly_key,
        "crash_at_tick": params["crash_at_tick"],
        "restarts": report.restarts,
        "backoff_waits_s": report.backoff_waits,
        "checkpoints": report.checkpoints,
        "ticks_processed": report.ticks_processed,
        "wal_replayed_ticks": report.wal_replayed_ticks,
        "reprocessed_ticks": report.reprocessed_ticks,
        "closed_regions": recovered,
        "regions_match_uninterrupted": recovered == expected,
    }


def _run_dogfood_leg(params: dict, seed: int = 5) -> dict:
    """Diagnose the diagnoser: a mid-run cache outage seen in obs metrics."""
    from repro.core.explain import DBSherlock
    from repro.core.knowledge import MYSQL_LINUX_RULES
    from repro.data.preprocess import regularize_dataset
    from repro.data.regions import RegionSpec
    from repro.obs.metrics import REGISTRY, TimelineRing

    ticks = params["dogfood_ticks"]
    fault_tick = params["dogfood_fault_tick"]

    # the observed system: a service re-explaining one incident per tick
    dataset, regions, true_cause = simulate_run(
        "cpu_saturation", duration_s=30, normal_s=60, seed=seed
    )
    service = DBSherlock(rules=MYSQL_LINUX_RULES)
    service.feedback(true_cause, service.explain(dataset, regions), dataset)

    timeline = TimelineRing(REGISTRY, interval=1.0)
    timeline.sample()  # baseline at t=0 (cache already warm)
    for tick in range(1, ticks + 1):
        if tick >= fault_tick:
            service.cache.clear()  # fault: cache knocked out mid-run
        service.explain(dataset, regions)
        timeline.sample()

    obs_dataset = timeline.to_dataset(rates=True, name="obs-dogfood")
    obs_dataset, gaps = regularize_dataset(obs_dataset)

    # the per-interval miss deltas must step up when the cache dies
    misses = list(obs_dataset.column("repro_cache_misses_total"))
    pre = misses[: fault_tick - 1]  # row i is the delta ending at t=i+1
    post = misses[fault_tick - 1 :]
    pre_mean = sum(pre) / len(pre)
    post_mean = sum(post) / len(post)

    # the tool's own streaming detector over the tool's own telemetry
    detector = StreamingDetector(capacity=ticks)
    closed = []
    for t, numeric_row, categorical_row in replay_rows(obs_dataset):
        update = detector.tick(t, numeric_row, categorical_row)
        closed.extend(update.closed_regions)

    meta = DBSherlock()
    auto = meta.detect(obs_dataset)
    spec = RegionSpec.from_bounds(
        [(fault_tick, ticks)], [(1, fault_tick - 2)]
    )
    explanation = meta.explain(obs_dataset, spec)
    obs_predicates = [
        str(p)
        for p in explanation.predicates
        if p.attr.startswith(("repro_cache", "repro_generator"))
    ]
    return {
        "ticks": ticks,
        "fault_tick": fault_tick,
        "n_metrics": len(obs_dataset.attributes),
        "missing_after_regularize": gaps.n_missing,
        "miss_rate_pre_fault": round(pre_mean, 2),
        "miss_rate_post_fault": round(post_mean, 2),
        "streaming_regions_closed": len(closed),
        "auto_detector_flagged": bool(auto.found),
        "n_predicates": len(explanation.predicates.predicates),
        "cache_generator_predicates": obs_predicates,
    }


def run_bench(scale: str = "bench", write_json: bool = True) -> dict:
    params = SCALES[scale]
    profiles = {name: PROFILES[name] for name in params["profile_names"]}

    start = time.perf_counter()
    chaos = run_chaos_suite(
        anomaly_keys=params["anomaly_keys"],
        durations=params["durations"],
        normal_s=params["normal_s"],
        profiles=profiles,
        seed=11,
    )
    chaos_s = time.perf_counter() - start

    start = time.perf_counter()
    recovery = _run_crash_recovery(params)
    recovery_s = time.perf_counter() - start

    start = time.perf_counter()
    dogfood = _run_dogfood_leg(params)
    dogfood_s = time.perf_counter() - start

    summary = {
        "scale": scale,
        "n_causes": len(chaos["causes"]),
        "elapsed_s": {
            "chaos_suite": round(chaos_s, 2),
            "crash_recovery": round(recovery_s, 2),
            "dogfood": round(dogfood_s, 2),
        },
        "degradation": {
            name: {
                "mean_margin": entry["mean_margin"],
                "top1_accuracy": entry["top1_accuracy"],
                "errors": entry["errors"],
                "margin_delta_vs_clean": entry.get("margin_delta_vs_clean"),
                "top1_delta_vs_clean": entry.get("top1_delta_vs_clean"),
            }
            for name, entry in chaos["profiles"].items()
        },
        "chaos_report": chaos,
        "crash_recovery": recovery,
        "dogfood": dogfood,
    }

    if write_json:
        out = _REPO_ROOT / "BENCH_chaos.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        summary["json"] = str(out)
    return summary


def _report(summary: dict) -> None:
    print(f"\n=== chaos bench ({summary['scale']} scale) ===")
    print(
        f"{summary['n_causes']} anomaly classes | suite "
        f"{summary['elapsed_s']['chaos_suite']}s, recovery "
        f"{summary['elapsed_s']['crash_recovery']}s"
    )
    print(f"{'profile':10s} {'margin':>8s} {'top1':>6s} {'errors':>7s} {'Δclean':>8s}")
    for name, row in summary["degradation"].items():
        delta = row["margin_delta_vs_clean"]
        print(
            f"{name:10s} {row['mean_margin']:8.4f} "
            f"{row['top1_accuracy']:6.2f} {row['errors']:7d} "
            f"{0.0 if delta is None else delta:8.4f}"
        )
    rec = summary["crash_recovery"]
    print(
        f"crash-recovery: {rec['scenario']} crashed@tick "
        f"{rec['crash_at_tick']}, {rec['restarts']} restart(s), "
        f"{rec['wal_replayed_ticks']} WAL-replayed tick(s), "
        f"{rec['reprocessed_ticks']} reprocessed, "
        f"regions match uninterrupted: {rec['regions_match_uninterrupted']}"
    )
    dog = summary["dogfood"]
    print(
        f"dogfood: cache fault@tick {dog['fault_tick']}/{dog['ticks']}, "
        f"miss rate {dog['miss_rate_pre_fault']} -> "
        f"{dog['miss_rate_post_fault']}/tick, "
        f"{dog['n_predicates']} self-predicates "
        f"({len(dog['cache_generator_predicates'])} cache/generator), "
        f"auto-detector flagged: {dog['auto_detector_flagged']}"
    )


def _check(summary: dict) -> None:
    degradation = summary["degradation"]
    # every scale: the moderate profile (the acceptance profile) must
    # complete every scenario without an exception
    moderate = degradation["moderate"]
    assert moderate["errors"] == 0, (
        f"moderate profile raised in {moderate['errors']} scenario(s): "
        f"{list(summary['chaos_report']['profiles']['moderate']['error_details'])}"
    )
    assert degradation["clean"]["errors"] == 0
    # every scale: a schema-drifted collector must never crash the
    # pipeline — reconciliation absorbs the renames
    drift = degradation["drift"]
    assert drift["errors"] == 0, (
        f"drift profile raised in {drift['errors']} scenario(s): "
        f"{list(summary['chaos_report']['profiles']['drift']['error_details'])}"
    )
    # every scale: the supervisor must recover and reproduce the
    # uninterrupted region output exactly, recovering post-checkpoint
    # ticks from the write-ahead log rather than the source
    recovery = summary["crash_recovery"]
    assert recovery["restarts"] >= 1, "crash never happened"
    assert recovery["regions_match_uninterrupted"], (
        f"recovered regions diverge: {recovery['closed_regions']}"
    )
    assert recovery["reprocessed_ticks"] == 0, (
        f"{recovery['reprocessed_ticks']} tick(s) re-pulled from the "
        f"source despite the write-ahead log"
    )
    # every scale: the tool's own telemetry must be diagnosable — a
    # regular dataset, a visible cache-miss step, and an explanation
    # naming the cache/generator symptoms (auto-detection is reported
    # but not gated: the step is one anomaly in a short window)
    dogfood = summary["dogfood"]
    assert dogfood["missing_after_regularize"] == 0, (
        f"obs telemetry irregular: {dogfood['missing_after_regularize']} "
        f"missing values after regularization"
    )
    assert dogfood["miss_rate_post_fault"] > dogfood["miss_rate_pre_fault"], (
        f"cache outage invisible in the metrics: miss rate "
        f"{dogfood['miss_rate_pre_fault']} -> "
        f"{dogfood['miss_rate_post_fault']}"
    )
    assert dogfood["cache_generator_predicates"], (
        "self-diagnosis produced no cache/generator predicates for the "
        "cache-outage window"
    )
    if summary["scale"] == "bench":
        margin_drop = moderate["margin_delta_vs_clean"]
        assert margin_drop >= -MAX_MODERATE_MARGIN_DROP, (
            f"moderate-profile margin degraded by {-margin_drop:.4f} "
            f"(bound {MAX_MODERATE_MARGIN_DROP})"
        )
        top1_drop = moderate["top1_delta_vs_clean"]
        assert top1_drop >= -MAX_MODERATE_TOP1_DROP, (
            f"moderate-profile top-1 degraded by {-top1_drop:.2f} "
            f"(bound {MAX_MODERATE_TOP1_DROP})"
        )
        drift_top1_drop = drift["top1_delta_vs_clean"]
        assert drift_top1_drop >= -MAX_DRIFT_TOP1_DROP, (
            f"drift-profile top-1 degraded by {-drift_top1_drop:.2f} "
            f"(bound {MAX_DRIFT_TOP1_DROP}) — reconciliation failing?"
        )


def test_chaos(benchmark):
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
