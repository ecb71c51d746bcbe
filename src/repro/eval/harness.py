"""Experiment harness: the paper's dataset-generation and evaluation protocols.

The paper builds, for each of the 10 anomaly classes, 11 datasets — two
minutes of normal TPC-C activity plus one anomaly whose duration (or start
time) sweeps 30..80 s in 5 s steps (Section 8.2).  Causal models are then
evaluated by two protocols:

* **single models** (Section 8.3): build one model per dataset with θ=0.2
  and score it on every other dataset, measuring whether the correct
  cause achieves the highest confidence and by what margin;
* **merged models** (Section 8.5): repeatedly split each class's datasets
  into train/test, merge the training models (θ=0.05), and measure top-k
  correct-cause ratios on the held-out datasets.

Benches scale the trial counts down from the paper's (110 datasets,
50 random splits) so the whole suite runs in minutes; every bench header
states the original scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anomalies.base import ScheduledAnomaly
from repro.anomalies.library import ANOMALY_CAUSES, make_anomaly
from repro.core.causal import CausalModel, rank_by_confidence
from repro.core.generator import GeneratorConfig, PredicateGenerator
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.engine.collector import simulate_telemetry
from repro.eval.metrics import margin_of_confidence, topk_contains
from repro.obs import trace
from repro.perf.cache import LabeledSpaceCache
from repro.perf.parallel import parallel_map
from repro.workload.spec import WorkloadSpec
from repro.workload.tpcc import tpcc_workload
from repro.workload.tpce import tpce_workload

__all__ = [
    "AnomalyDataset",
    "simulate_run",
    "build_suite",
    "evaluate_single_models",
    "build_merged_models",
    "rank_models",
    "replay_rows",
    "DEFAULT_DURATIONS",
]

#: The paper sweeps anomaly durations 30..80 s in 5 s steps (11 datasets).
DEFAULT_DURATIONS: Tuple[int, ...] = tuple(range(30, 85, 5))

#: Normal activity per dataset (the paper: two minutes).
DEFAULT_NORMAL_S = 120

SINGLE_MODEL_THETA = 0.2
MERGED_MODEL_THETA = 0.05


@dataclass
class AnomalyDataset:
    """One simulated run: telemetry, ground-truth regions, and the cause."""

    dataset: Dataset
    spec: RegionSpec
    cause: str
    anomaly_key: str
    duration_s: int
    seed: int


def _workload_for(name: str) -> WorkloadSpec:
    if name == "tpcc":
        return tpcc_workload()
    if name == "tpce":
        return tpce_workload()
    raise ValueError(f"unknown workload {name!r} (expected 'tpcc' or 'tpce')")


def simulate_run(
    anomaly_key: str,
    duration_s: int = 50,
    workload: str = "tpcc",
    seed: Optional[int] = None,
    normal_s: int = DEFAULT_NORMAL_S,
    start_s: Optional[int] = None,
    noise_scale: float = 1.0,
    intensity: Optional[float] = None,
    **anomaly_kwargs,
) -> Tuple[Dataset, RegionSpec, str]:
    """Simulate one run with a single anomaly; returns (dataset, spec, cause).

    The anomaly window is centred in the run unless ``start_s`` is given.
    ``normal_s`` seconds of normal activity surround the window, matching
    the paper's two-minutes-of-normal-plus-anomaly layout.

    Real incidents of the same root cause differ in severity — a workload
    spike is never exactly 5x twice.  Unless ``intensity`` is pinned, each
    run draws one from U(0.7, 1.4); this run-to-run variation is what makes
    merging causal models worthwhile (Section 8.5).
    """
    if intensity is None:
        intensity_rng = np.random.default_rng(
            None if seed is None else seed + 990_001
        )
        intensity = float(intensity_rng.uniform(0.7, 1.4))
    injector = make_anomaly(anomaly_key, intensity=intensity, **anomaly_kwargs)
    total = normal_s + duration_s
    if start_s is None:
        start_s = normal_s // 2
    start_s = int(min(max(start_s, 0), total - duration_s))
    scheduled = ScheduledAnomaly(injector, float(start_s), float(start_s + duration_s))
    dataset, spec = simulate_telemetry(
        _workload_for(workload),
        duration_s=total,
        anomalies=[scheduled],
        seed=seed,
        noise_scale=noise_scale,
        name=f"{workload}/{anomaly_key}/{duration_s}s",
    )
    return dataset, spec, injector.cause


def _simulate_suite_task(task: tuple) -> AnomalyDataset:
    """One suite run (top-level so :func:`parallel_map` can pickle it)."""
    key, duration, run_seed, workload, normal_s, noise_scale = task
    dataset, spec, cause = simulate_run(
        key,
        duration_s=duration,
        workload=workload,
        seed=run_seed,
        normal_s=normal_s,
        noise_scale=noise_scale,
    )
    return AnomalyDataset(
        dataset=dataset,
        spec=spec,
        cause=cause,
        anomaly_key=key,
        duration_s=duration,
        seed=run_seed,
    )


def build_suite(
    workload: str = "tpcc",
    durations: Sequence[int] = DEFAULT_DURATIONS,
    anomaly_keys: Optional[Sequence[str]] = None,
    seed: int = 0,
    normal_s: int = DEFAULT_NORMAL_S,
    noise_scale: float = 1.0,
    jobs: Optional[int] = None,
) -> Dict[str, List[AnomalyDataset]]:
    """The paper's dataset suite: per anomaly class, one run per duration.

    Returns a mapping ``cause → [AnomalyDataset, ...]``.  With the default
    durations and all 10 classes this is the paper's 110-dataset corpus.

    Runs simulate independently: per-run seeds are assigned serially up
    front, then the simulations fan out over ``jobs`` processes (default
    ``REPRO_JOBS``, serial fallback) with identical results either way.
    """
    keys = list(anomaly_keys) if anomaly_keys is not None else list(ANOMALY_CAUSES)
    durations = [int(d) for d in durations]
    tasks = []
    run_seed = seed
    for key in keys:
        for duration in durations:
            run_seed += 1
            tasks.append(
                (key, duration, run_seed, workload, normal_s, noise_scale)
            )
    all_runs = parallel_map(_simulate_suite_task, tasks, jobs=jobs)
    suite: Dict[str, List[AnomalyDataset]] = {}
    for i, key in enumerate(keys):
        runs = all_runs[i * len(durations) : (i + 1) * len(durations)]
        suite[runs[0].cause] = runs
    return suite


def replay_rows(dataset: Dataset):
    """Yield ``(t, numeric_row, categorical_row)`` ticks from a dataset.

    Replays an already-simulated run through the streaming interface —
    the equivalence tests and ``benchmarks/bench_online_detect.py`` feed
    these rows to :class:`repro.stream.StreamingDetector` and compare
    every shared window against the batch detector on the identical
    contents.
    """
    numeric = dataset.numeric_attributes
    categorical = dataset.categorical_attributes
    num_cols = {a: dataset.column(a) for a in numeric}
    cat_cols = {a: dataset.column(a) for a in categorical}
    for i, t in enumerate(dataset.timestamps):
        yield (
            float(t),
            {a: float(num_cols[a][i]) for a in numeric},
            {a: cat_cols[a][i] for a in categorical},
        )


# ----------------------------------------------------------------------
# Causal-model protocols
# ----------------------------------------------------------------------
def build_model(
    run: AnomalyDataset, theta: float, config: Optional[GeneratorConfig] = None
) -> CausalModel:
    """Construct a causal model from one diagnosed dataset.

    The predicate attributes are fingerprinted from the training data,
    so the model can be reconciled against drifted test schemas.
    """
    from repro.schema.fingerprint import fingerprint_attributes

    config = (config or GeneratorConfig()).replace(theta=theta)
    generator = PredicateGenerator(config)
    conjunction = generator.generate(run.dataset, run.spec)
    return CausalModel(
        cause=run.cause,
        predicates=conjunction.predicates,
        fingerprints=fingerprint_attributes(
            run.dataset, [p.attr for p in conjunction.predicates]
        ),
    )


def rank_models(
    models: Sequence[CausalModel],
    dataset: Dataset,
    spec: RegionSpec,
    n_partitions: int = 250,
    cache: Optional[LabeledSpaceCache] = None,
    reconciler: Optional[object] = None,
    coverage_floor: float = 0.5,
) -> List[Tuple[str, float]]:
    """Confidence of every model on one anomaly, highest first.

    With no *cache*, a per-call :class:`LabeledSpaceCache` still shares
    each attribute's labeled partition space across the K models; passing
    a long-lived cache additionally amortizes repeated rankings of the
    same dataset (the evaluation protocols rank every test dataset many
    times).  Passing a
    :class:`~repro.schema.reconcile.SchemaReconciler` matches drifted
    attribute names back to the model vocabulary first (models below
    ``coverage_floor`` coverage abstain at confidence 0.0).
    """
    from repro.core.explain import _observe_rank

    if cache is None:
        cache = LabeledSpaceCache()
    with trace.span(
        "rank", models=len(models), drifted=reconciler is not None
    ):
        if reconciler is not None:
            from repro.schema.reconcile import rank_with_reconciliation

            result = rank_with_reconciliation(
                models,
                dataset,
                spec,
                reconciler,
                n_partitions=n_partitions,
                cache=cache,
                coverage_floor=coverage_floor,
            )
            _observe_rank(result.scores, result.report, result.abstained)
            return result.scores
        scored = rank_by_confidence(
            models, dataset, spec, n_partitions, cache=cache
        )
        _observe_rank(scored, None, [])
        return scored


def _build_model_task(task: tuple) -> CausalModel:
    """One model build (top-level so :func:`parallel_map` can pickle it)."""
    run, theta, config = task
    return build_model(run, theta, config)


def build_merged_models(
    suite: Dict[str, List[AnomalyDataset]],
    train_indices: Dict[str, Sequence[int]],
    theta: float = MERGED_MODEL_THETA,
    config: Optional[GeneratorConfig] = None,
    jobs: Optional[int] = None,
) -> List[CausalModel]:
    """One merged model per cause from the given training datasets.

    Per-dataset models build independently (fanned out over ``jobs``
    processes); the merge itself stays sequential in training order, so
    the result is identical to the serial path.
    """
    causes = list(suite)
    tasks = [
        (suite[cause][index], theta, config)
        for cause in causes
        for index in train_indices[cause]
    ]
    built = parallel_map(_build_model_task, tasks, jobs=jobs)
    models: List[CausalModel] = []
    position = 0
    for cause in causes:
        merged: Optional[CausalModel] = None
        for _ in train_indices[cause]:
            model = built[position]
            position += 1
            merged = model if merged is None else merged.merge(model)
        if merged is not None:
            models.append(merged)
    return models


@dataclass
class SingleModelResult:
    """Per-cause outcome of the Section 8.3 single-model protocol."""

    cause: str
    mean_margin: float
    mean_f1: float
    top1_accuracy: float


def evaluate_single_models(
    suite: Dict[str, List[AnomalyDataset]],
    theta: float = SINGLE_MODEL_THETA,
    config: Optional[GeneratorConfig] = None,
    max_models_per_cause: Optional[int] = None,
    jobs: Optional[int] = None,
) -> List[SingleModelResult]:
    """Section 8.3: single-dataset models evaluated on all other datasets.

    For every dataset, a model is constructed and scored against all other
    datasets' models on each remaining dataset of its own cause; we record
    the margin of the correct model over the best incorrect one, the
    correct model's mean per-predicate F1, and whether it ranked first.

    Model building fans out over ``jobs`` processes; the scoring sweep
    shares one :class:`LabeledSpaceCache`, so each test dataset's
    attributes are labeled once for the whole cross-product rather than
    once per ranking.
    """
    from repro.eval.metrics import score_predicates_mean

    # one representative model per (cause, dataset index)
    causes = list(suite)
    runs_used_by_cause = {
        cause: (
            suite[cause][:max_models_per_cause]
            if max_models_per_cause
            else suite[cause]
        )
        for cause in causes
    }
    tasks = [
        (run, theta, config)
        for cause in causes
        for run in runs_used_by_cause[cause]
    ]
    built = parallel_map(_build_model_task, tasks, jobs=jobs)
    models_by_cause: Dict[str, List[CausalModel]] = {}
    position = 0
    for cause in causes:
        count = len(runs_used_by_cause[cause])
        models_by_cause[cause] = built[position : position + count]
        position += count

    cache = LabeledSpaceCache()
    results: List[SingleModelResult] = []
    for cause, runs in suite.items():
        margins: List[float] = []
        f1s: List[float] = []
        top1: List[bool] = []
        n_models = len(models_by_cause[cause])
        for model_idx in range(n_models):
            correct_model = models_by_cause[cause][model_idx]
            # competitors: one model per other cause (same index, wrapping)
            competitors = [correct_model]
            for other_cause, other_models in models_by_cause.items():
                if other_cause == cause:
                    continue
                competitors.append(other_models[model_idx % len(other_models)])
            for test_idx, test_run in enumerate(suite[cause]):
                if test_idx == model_idx:
                    continue  # never score a model on its training dataset
                scores = rank_models(
                    competitors, test_run.dataset, test_run.spec, cache=cache
                )
                margins.append(margin_of_confidence(scores, cause))
                top1.append(topk_contains(scores, cause, 1))
                f1s.append(
                    score_predicates_mean(
                        correct_model.predicates,
                        test_run.dataset,
                        test_run.spec,
                    ).f1
                )
        results.append(
            SingleModelResult(
                cause=cause,
                mean_margin=float(np.mean(margins)) if margins else 0.0,
                mean_f1=float(np.mean(f1s)) if f1s else 0.0,
                top1_accuracy=float(np.mean(top1)) if top1 else 0.0,
            )
        )
    return results
