#!/usr/bin/env python
"""Dogfood observability: DBSherlock diagnoses its own diagnosis pipeline.

The obs layer samples the pipeline's metrics registry once per simulated
second while a diagnosis service re-explains the same incident in a loop.
Halfway through, the labeled-space cache is knocked out (cleared before
every request — the moral equivalent of a cache server going down).  The
per-second metric deltas then become a Dataset, and the tool itself is
pointed at its own telemetry: the automatic detector flags the fault
window, and the explainer emits predicates over ``repro_cache_*`` and
``repro_generator_seconds`` — the miss storm and latency step a DBA
would want to see.

Run:  python examples/dogfood_observability.py
"""

from repro import DBSherlock, MYSQL_LINUX_RULES, simulate_run
from repro.data.preprocess import regularize_dataset
from repro.obs import trace
from repro.obs.metrics import REGISTRY, TimelineRing
from repro.obs.report import stage_summary
from repro.data.regions import RegionSpec

TICKS = 24
FAULT_TICK = 12  # cache disabled from this tick on


def main() -> None:
    # 1. A diagnosis service: the same incident re-explained every second
    #    (think a dashboard polling "what is wrong right now?").
    dataset, regions, true_cause = simulate_run(
        "cpu_saturation", duration_s=30, normal_s=60, workload="tpcc", seed=3
    )
    service = DBSherlock(rules=MYSQL_LINUX_RULES)
    service.feedback(true_cause, service.explain(dataset, regions), dataset)

    timeline = TimelineRing(REGISTRY, interval=1.0)
    timeline.sample()  # baseline snapshot at t=0
    with trace.recording() as recorder:
        for tick in range(1, TICKS + 1):
            if tick >= FAULT_TICK:
                service.cache.clear()  # fault: cache knocked out
            service.explain(dataset, regions)
            timeline.sample()
    print(f"sampled the metrics registry {len(timeline)} times "
          f"({TICKS} service ticks, cache fault at tick {FAULT_TICK})")

    # 2. The pipeline's own per-second telemetry as a Dataset.
    obs_dataset = timeline.to_dataset(rates=True, name="obs-dogfood")
    obs_dataset, gaps = regularize_dataset(obs_dataset)
    print(f"dogfood dataset: {obs_dataset.n_rows} rows x "
          f"{len(obs_dataset.attributes)} metrics "
          f"(missing values after regularization: {gaps.n_missing})\n")

    # 3. Point the tool at itself.
    meta = DBSherlock()
    detection = meta.detect(obs_dataset)
    if detection.found:
        region = detection.regions[0]
        print(f"detector flagged the pipeline's own telemetry: "
              f"t={region.start:g}..{region.end:g} "
              f"(fault began at t={FAULT_TICK})")
    else:
        print("detector did not flag the fault; using the known window")
    spec = RegionSpec.from_bounds(
        [(FAULT_TICK, TICKS)], [(1, FAULT_TICK - 2)]
    )
    explanation = meta.explain(obs_dataset, spec)
    cache_preds = [
        p for p in explanation.predicates
        if p.attr.startswith(("repro_cache", "repro_generator"))
    ]
    print(f"\n{len(explanation.predicates)} predicates over the "
          f"pipeline's metrics; cache/generator symptoms:")
    for predicate in cache_preds:
        print(f"  {predicate}")

    # 4. The trace from the same run: where did the time go?
    print("\nper-stage wall time of the traced service loop:")
    print(stage_summary(recorder.events, top=8))


if __name__ == "__main__":
    main()
