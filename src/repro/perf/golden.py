"""Frozen copies of the pre-perf serial implementations (golden paths).

These are verbatim snapshots of the seed implementations of Equation 3
confidence scoring and Algorithm 1 predicate generation, kept so that

* the equivalence tests (``tests/test_perf_engine.py``) can assert the
  cached/batched/vectorized paths are **bitwise-identical** to what the
  code produced before this subsystem existed, and
* ``benchmarks/bench_perf_engine.py`` can time old-vs-new on the same
  inputs.

They intentionally preserve the original inefficiencies (per-predicate
region-mask recomputation, Python-loop midpoints, per-attribute
labeling) and must never be called from the live pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "golden_model_confidence",
    "golden_rank",
    "golden_generate_with_artifacts",
    "golden_filter_partitions",
    "golden_fill_gaps",
    "golden_abnormal_blocks",
]


def _golden_nearest_non_empty(labels: np.ndarray) -> tuple:
    """Seed (scan-loop) version of the nearest-non-Empty neighbour index."""
    from repro.core.partition import Label

    n = labels.shape[0]
    left = np.full(n, -1, dtype=np.int64)
    last = -1
    for i in range(n):
        left[i] = last
        if labels[i] != int(Label.EMPTY):
            last = i
    right = np.full(n, -1, dtype=np.int64)
    nxt = -1
    for i in range(n - 1, -1, -1):
        right[i] = nxt
        if labels[i] != int(Label.EMPTY):
            nxt = i
    return left, right


def golden_filter_partitions(labels: np.ndarray) -> np.ndarray:
    """Seed (Python-loop) version of Section 4.3 filtering."""
    from repro.core.partition import Label

    labels = np.asarray(labels, dtype=np.int64)
    result = labels.copy()
    left, right = _golden_nearest_non_empty(labels)
    lone_abnormal = int((labels == int(Label.ABNORMAL)).sum()) == 1
    lone_normal = int((labels == int(Label.NORMAL)).sum()) == 1
    for i in range(labels.shape[0]):
        label = labels[i]
        if label == int(Label.EMPTY):
            continue
        if label == int(Label.ABNORMAL) and lone_abnormal:
            continue
        if label == int(Label.NORMAL) and lone_normal:
            continue
        li, ri = left[i], right[i]
        if li < 0 or ri < 0:
            continue
        if labels[li] != label or labels[ri] != label:
            result[i] = int(Label.EMPTY)
    return result


def golden_fill_gaps(
    labels: np.ndarray,
    delta: float,
    normal_mean_partition: Optional[int] = None,
) -> np.ndarray:
    """Seed (Python-loop) version of Section 4.4 gap filling."""
    from repro.core.partition import Label

    labels = np.asarray(labels, dtype=np.int64).copy()
    if delta <= 0:
        raise ValueError("delta must be positive")
    has_abnormal = bool((labels == int(Label.ABNORMAL)).any())
    has_normal = bool((labels == int(Label.NORMAL)).any())
    if not has_abnormal and not has_normal:
        return labels
    if has_abnormal and not has_normal:
        if normal_mean_partition is None:
            raise ValueError(
                "only Abnormal partitions remain; normal_mean_partition required"
            )
        labels[int(normal_mean_partition)] = int(Label.NORMAL)

    left, right = _golden_nearest_non_empty(labels)
    filled = labels.copy()
    for i in range(labels.shape[0]):
        if labels[i] != int(Label.EMPTY):
            continue
        li, ri = left[i], right[i]
        if li < 0 and ri < 0:
            continue
        if li < 0:
            filled[i] = labels[ri]
            continue
        if ri < 0:
            filled[i] = labels[li]
            continue
        left_label, right_label = labels[li], labels[ri]
        if left_label == right_label:
            filled[i] = left_label
            continue
        dist_left = float(i - li)
        dist_right = float(ri - i)
        if left_label == int(Label.ABNORMAL):
            dist_abnormal, dist_normal = dist_left, dist_right
            abnormal_label, normal_label = left_label, right_label
        else:
            dist_abnormal, dist_normal = dist_right, dist_left
            abnormal_label, normal_label = right_label, left_label
        if dist_abnormal * delta < dist_normal:
            filled[i] = abnormal_label
        else:
            filled[i] = normal_label
    return filled


def golden_abnormal_blocks(labels: np.ndarray) -> list:
    """Seed (Python-loop) version of contiguous Abnormal-run extraction."""
    from repro.core.partition import Label

    labels = np.asarray(labels, dtype=np.int64)
    blocks = []
    start = None
    for i, label in enumerate(labels):
        if label == int(Label.ABNORMAL):
            if start is None:
                start = i
        elif start is not None:
            blocks.append((start, i - 1))
            start = None
    if start is not None:
        blocks.append((start, labels.shape[0] - 1))
    return blocks


def _golden_predicate_on_partitions(
    predicate,
    dataset,
    spec,
    n_partitions: int,
    apply_filtering: bool,
) -> Optional[float]:
    """Seed version of the Eq. 3 per-predicate term (masks recomputed here)."""
    filter_partitions = golden_filter_partitions
    from repro.core.partition import (
        CategoricalPartitionSpace,
        Label,
        NumericPartitionSpace,
    )

    attr = predicate.attr
    if attr not in dataset:
        return None
    values = dataset.column(attr)
    abnormal = spec.abnormal_mask(dataset)
    normal = spec.normal_mask(dataset)
    if dataset.is_numeric(attr):
        space = NumericPartitionSpace(attr, values, n_partitions)
        labels = space.label(values, abnormal, normal)
        if apply_filtering:
            labels = filter_partitions(labels)
        representatives = np.asarray(
            [space.midpoint(i) for i in range(space.n_partitions)]
        )
        satisfied = predicate.evaluate_values(representatives)
    else:
        space = CategoricalPartitionSpace(attr, values)
        labels = space.label(values, abnormal, normal)
        satisfied = predicate.evaluate_values(
            np.asarray(space.categories, dtype=object)
        )
    abnormal_parts = labels == int(Label.ABNORMAL)
    normal_parts = labels == int(Label.NORMAL)
    n_abnormal = int(abnormal_parts.sum())
    n_normal = int(normal_parts.sum())
    if n_abnormal == 0 or n_normal == 0:
        return None
    ratio_abnormal = float((satisfied & abnormal_parts).sum()) / n_abnormal
    ratio_normal = float((satisfied & normal_parts).sum()) / n_normal
    return ratio_abnormal - ratio_normal


def golden_model_confidence(
    predicates: Sequence,
    dataset,
    spec,
    n_partitions: int = 250,
    apply_filtering: bool = True,
) -> float:
    """Seed version of Equation 3 (mean per-predicate separation power)."""
    if not predicates:
        return 0.0
    total = 0.0
    for predicate in predicates:
        power = _golden_predicate_on_partitions(
            predicate, dataset, spec, n_partitions, apply_filtering
        )
        total += power if power is not None else 0.0
    return total / len(predicates)


def golden_rank(
    models: Sequence,
    dataset,
    spec,
    n_partitions: int = 250,
) -> List[Tuple[str, float]]:
    """Seed version of the model-ranking path."""
    scored = [
        (
            m.cause,
            golden_model_confidence(
                m.predicates, dataset, spec, n_partitions
            ),
        )
        for m in models
    ]
    scored.sort(key=lambda item: item[1], reverse=True)
    return scored


def golden_generate_with_artifacts(
    dataset,
    spec,
    config=None,
    attributes: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Seed version of Algorithm 1 (per-attribute labeling loop).

    Carries the degraded-telemetry rules of the live generator: an
    attribute with too few valid region samples is rejected before
    filtering, the forced normal-mean partition ignores NaN cells, and
    an undefined region mean rejects before the block check.
    """
    abnormal_blocks = golden_abnormal_blocks
    fill_gaps = golden_fill_gaps
    filter_partitions = golden_filter_partitions
    from repro.core.generator import AttributeArtifacts, GeneratorConfig
    from repro.core.partition import (
        CategoricalPartitionSpace,
        Label,
        NumericPartitionSpace,
    )
    from repro.core.predicates import CategoricalPredicate, NumericPredicate
    from repro.core.separation import normalize_values, region_means

    config = config or GeneratorConfig()
    spec.validate(dataset)
    abnormal = spec.abnormal_mask(dataset)
    normal = spec.normal_mask(dataset)
    names = list(attributes) if attributes is not None else dataset.attributes
    artifacts: Dict[str, AttributeArtifacts] = {}
    for attr in names:
        values = dataset.column(attr)
        if not dataset.is_numeric(attr):
            space = CategoricalPartitionSpace(attr, values)
            labels = space.label(values, abnormal, normal)
            art = AttributeArtifacts(
                attr=attr, is_numeric=False, space=space, labels_initial=labels
            )
            abnormal_categories = [
                space.categories[i]
                for i in range(space.n_partitions)
                if labels[i] == int(Label.ABNORMAL)
            ]
            if not abnormal_categories:
                art.rejection = "no abnormal categories"
            else:
                art.predicate = CategoricalPredicate.of(attr, abnormal_categories)
            artifacts[attr] = art
            continue

        space = NumericPartitionSpace(attr, values, config.n_partitions)
        labels = space.label(values, abnormal, normal)
        art = AttributeArtifacts(
            attr=attr, is_numeric=True, space=space, labels_initial=labels
        )
        artifacts[attr] = art

        nan = np.isnan(values)
        if nan.any():
            considered = abnormal | normal
            n_considered = int(considered.sum())
            n_valid = int((considered & ~nan).sum())
            if n_valid < config.min_valid_fraction * n_considered:
                art.rejection = (
                    f"degraded telemetry: only {n_valid}/{n_considered} "
                    "region samples valid"
                )
                continue

        filtered = (
            filter_partitions(labels) if config.enable_filtering else labels
        )
        art.labels_filtered = filtered
        if not (filtered == int(Label.ABNORMAL)).any():
            art.rejection = "no abnormal partitions after filtering"
            continue

        if config.enable_fill:
            normal_mean_partition = None
            if not (filtered == int(Label.NORMAL)).any():
                normal_values = values[normal]
                normal_values = normal_values[~np.isnan(normal_values)]
                if not normal_values.size:
                    art.rejection = "degraded telemetry: region mean undefined"
                    continue
                mean_normal = float(normal_values.mean())
                normal_mean_partition = int(
                    space.partition_indices(np.asarray([mean_normal]))[0]
                )
            filled = fill_gaps(filtered, config.delta, normal_mean_partition)
        else:
            filled = filtered
        art.labels_filled = filled

        normalized = normalize_values(values)
        mu_abnormal, mu_normal = region_means(normalized, abnormal, normal)
        art.normalized_difference = abs(mu_abnormal - mu_normal)
        if not np.isfinite(art.normalized_difference):
            art.rejection = "degraded telemetry: region mean undefined"
            continue

        blocks = abnormal_blocks(filled)
        if len(blocks) != 1:
            art.rejection = f"{len(blocks)} abnormal blocks (need exactly 1)"
            continue
        if art.normalized_difference <= config.theta:
            art.rejection = (
                f"normalized difference {art.normalized_difference:.3f} "
                f"<= theta {config.theta}"
            )
            continue
        start, end = blocks[0]
        if start == 0 and end == space.n_partitions - 1:
            art.rejection = "abnormal block spans the entire domain"
            continue
        if start == 0:
            art.predicate = NumericPredicate(attr, upper=space.upper_bound(end))
        elif end == space.n_partitions - 1:
            art.predicate = NumericPredicate(attr, lower=space.lower_bound(start))
        else:
            art.predicate = NumericPredicate(
                attr,
                lower=space.lower_bound(start),
                upper=space.upper_bound(end),
            )
    return artifacts
