"""Algorithm 1: end-to-end predicate generation (Section 4).

For each numeric attribute: create a partition space (R partitions), label
partitions from the user's regions, filter noisy labels, fill the gaps with
anomaly distance multiplier δ, and extract a candidate predicate when the
filled space contains a single block of consecutive Abnormal partitions and
the normalized mean difference exceeds θ.  Categorical attributes skip the
filter/fill steps and emit ``Attr ∈ {...}`` from Abnormal partitions.

``GeneratorConfig`` exposes the paper's parameters (R, δ, θ) plus ablation
switches used by the Appendix D step-contribution study (Table 6).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import Label, NumericPartitionSpace
from repro.core.predicates import (
    CategoricalPredicate,
    Conjunction,
    NumericPredicate,
    Predicate,
)
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.core.filtering import (
    abnormal_blocks_batch,
    fill_gaps_batch,
    filter_partitions_batch,
)
from repro.obs import metrics, trace
from repro.perf.batch import normalized_means_batch
from repro.perf.cache import LabeledAttribute, LabeledSpaceCache

__all__ = ["GeneratorConfig", "AttributeArtifacts", "PredicateGenerator"]

_PREDICATES_KEPT = metrics.REGISTRY.counter(
    "repro_generator_predicates_kept_total",
    "Candidate predicates extracted by Algorithm 1",
)
_PREDICATES_REJECTED = metrics.REGISTRY.counter(
    "repro_generator_predicates_rejected_total",
    "Attributes rejected during predicate generation",
)
_GENERATE_SECONDS = metrics.REGISTRY.histogram(
    "repro_generator_seconds",
    "Wall time of Algorithm 1 per (dataset, spec); a batched pass "
    "observes its wall time split evenly over its jobs",
)


def _stack(rows: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Label rows as one ``(len(rows), width)`` matrix, Empty-padded."""
    if all(row.shape[0] == width for row in rows):
        return np.stack(rows) if rows else np.empty((0, width), np.int64)
    out = np.full((len(rows), width), int(Label.EMPTY), dtype=np.int64)
    for k, row in enumerate(rows):
        out[k, : row.shape[0]] = row
    return out


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable parameters of the predicate generation algorithm.

    Attributes
    ----------
    n_partitions:
        ``R``, the number of equi-width partitions for numeric attributes.
        The paper's experiments use 250 (Appendix D); Section 4.1 names
        1 000 as an upper default.
    delta:
        Anomaly distance multiplier ``δ`` for gap filling (default 10).
    theta:
        Normalized difference threshold ``θ`` gating extraction
        (default 0.2 for single causal models; the paper uses 0.05 when
        building models that will be merged).
    enable_filtering / enable_fill:
        Ablation switches for the Table 6 step-contribution study.
    min_valid_fraction:
        Degraded-telemetry gate: a numeric attribute is rejected when
        fewer than this fraction of its in-region samples are valid
        (non-NaN).  Clean datasets have a valid fraction of 1.0, so the
        gate is a no-op on the paper's original workloads.
    """

    n_partitions: int = 250
    delta: float = 10.0
    theta: float = 0.2
    enable_filtering: bool = True
    enable_fill: bool = True
    min_valid_fraction: float = 0.25

    def replace(self, **kwargs) -> "GeneratorConfig":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **kwargs)


@dataclass
class AttributeArtifacts:
    """Intermediate state of Algorithm 1 for one attribute.

    Kept for testing, visualisation, and causal-model confidence, which
    re-uses labeled partition spaces (Equation 3).
    """

    attr: str
    is_numeric: bool
    space: object
    labels_initial: np.ndarray
    labels_filtered: Optional[np.ndarray] = None
    labels_filled: Optional[np.ndarray] = None
    normalized_difference: Optional[float] = None
    predicate: Optional[Predicate] = None
    rejection: Optional[str] = None


class PredicateGenerator:
    """Generates a conjunction of explanatory predicates (Algorithm 1).

    All numeric attributes of a batch of ``(dataset, spec)`` jobs go
    through Algorithm 1 together, one kernel call per step (labeling,
    :mod:`repro.core.filtering`'s filter and fill, the θ-gate means);
    Python only turns the rows into :class:`AttributeArtifacts` and
    predicates.  Every row is bitwise-equal to running the steps on that
    attribute alone (the frozen seed copy in ``tests/generator_oracle.py``
    is the reference), so a job's artifacts do not depend on the jobs
    batched with it.  Every attribute, numeric or categorical, is labeled
    through a :class:`repro.perf.cache.LabeledSpaceCache`: the one given,
    which shares the labeled spaces, filtered labels, fills and means
    with confidence scoring and with later explains of the same anomaly,
    or else a private one per call.
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        cache: Optional[object] = None,
    ) -> None:
        self.config = config or GeneratorConfig()
        self.cache = cache

    # ------------------------------------------------------------------
    def generate(
        self,
        dataset: Dataset,
        spec: RegionSpec,
        attributes: Optional[Sequence[str]] = None,
    ) -> Conjunction:
        """Run Algorithm 1 over *attributes* (default: all) and conjoin."""
        return self.generate_batch([(dataset, spec)], attributes)[0]

    def generate_batch(
        self,
        jobs: Sequence[Tuple[Dataset, RegionSpec]],
        attributes: Optional[Sequence[str]] = None,
    ) -> List[Conjunction]:
        """:meth:`generate` for each ``(dataset, spec)`` job, in one pass."""
        return [
            Conjunction(
                [a.predicate for a in arts.values() if a.predicate is not None]
            )
            for arts in self.generate_with_artifacts_batch(jobs, attributes)
        ]

    def generate_with_artifacts(
        self,
        dataset: Dataset,
        spec: RegionSpec,
        attributes: Optional[Sequence[str]] = None,
    ) -> Dict[str, AttributeArtifacts]:
        """Like :meth:`generate` but returns per-attribute artifacts."""
        return self.generate_with_artifacts_batch(
            [(dataset, spec)], attributes
        )[0]

    def generate_with_artifacts_batch(
        self,
        jobs: Sequence[Tuple[Dataset, RegionSpec]],
        attributes: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, AttributeArtifacts]]:
        """Per-attribute artifacts of each job, in one batched pass."""
        jobs = list(jobs)
        if not trace.enabled():
            return self._generate(jobs, attributes)
        with trace.span(
            "generate_predicates",
            dataset=getattr(jobs[0][0], "name", None) if len(jobs) == 1
            else None,
            jobs=len(jobs),
            attr_count=sum(
                len(attributes) if attributes is not None
                else len(dataset.attributes)
                for dataset, _ in jobs
            ),
            n_partitions=self.config.n_partitions,
        ) as sp:
            timings: Dict[str, float] = {}
            results = self._generate(jobs, attributes, timings)
            for name in ("partition", "label", "filter", "fill", "extract"):
                if name in timings:
                    trace.stage(name, timings[name])
            arts = [a for job in results for a in job.values()]
            kept = sum(a.predicate is not None for a in arts)
            sp.set(predicates_kept=kept, predicates_rejected=len(arts) - kept)
        return results

    def _generate(
        self,
        jobs: List[Tuple[Dataset, RegionSpec]],
        attributes: Optional[Sequence[str]] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> List[Dict[str, AttributeArtifacts]]:
        t0 = time.perf_counter()
        start = t0
        cache = self.cache
        if cache is None:  # private: its entries die with the call
            cache = LabeledSpaceCache()
        masks: List[Tuple[np.ndarray, np.ndarray]] = []
        names_of: List[List[str]] = []
        numeric_of: List[List[str]] = []
        for dataset, spec in jobs:
            masks.append(cache.masks(dataset, spec))
            spec.validate(dataset, masks[-1])
            names = (
                list(attributes) if attributes is not None
                else dataset.attributes
            )
            names_of.append(names)
            numeric_of.append(
                list(dict.fromkeys(a for a in names if dataset.is_numeric(a)))
            )
        if timings is not None:
            now = time.perf_counter()
            timings["partition"] = now - start
            start = now
        entries_of = cache.entries_batch(
            [
                (dataset, spec, list(dict.fromkeys(names)))
                for (dataset, spec), names in zip(jobs, names_of)
            ],
            self.config.n_partitions,
        )
        if timings is not None:
            timings["label"] = time.perf_counter() - start
        numeric = self._numeric_pass(
            cache, jobs, numeric_of, entries_of, masks, timings
        )
        results: List[Dict[str, AttributeArtifacts]] = []
        kept = rejected = 0
        for names, entries, numeric_arts in zip(names_of, entries_of, numeric):
            artifacts: Dict[str, AttributeArtifacts] = {}
            for attr in names:
                art = numeric_arts.get(attr)
                if art is None:
                    art = self._categorical_attribute(entries[attr])
                artifacts[attr] = art
                if art.predicate is not None:
                    kept += 1
                else:
                    rejected += 1
            results.append(artifacts)
        _PREDICATES_KEPT.inc(kept)
        _PREDICATES_REJECTED.inc(rejected)
        per_job = (time.perf_counter() - t0) / max(len(jobs), 1)
        for _ in jobs:
            _GENERATE_SECONDS.observe(per_job)
        return results

    # ------------------------------------------------------------------
    # Numeric attributes (all five steps, every attribute at once)
    # ------------------------------------------------------------------
    def _numeric_pass(
        self,
        cache: LabeledSpaceCache,
        jobs: List[Tuple[Dataset, RegionSpec]],
        numeric_of: List[List[str]],
        entries_of: List[Dict[str, LabeledAttribute]],
        masks: List[Tuple[np.ndarray, np.ndarray]],
        timings: Optional[Dict[str, float]],
    ) -> List[Dict[str, AttributeArtifacts]]:
        """Filter, fill and extract for every numeric attribute of *jobs*.

        The label rows of all jobs stack into one matrix, and each step
        is one row-kernel call over the rows still in play; a row whose
        step rejects it drops out before the next.  Rows are padded with
        Empty to the widest space (constant columns have one partition):
        Empty cells past a row's end change neither its filter nor its
        fill.  Raw values stay per job (row counts differ between jobs).
        Filtered labels and fills are memoized on the entries and the
        θ-gate means in *cache*, so ranking and a repeat explain reuse
        them.
        """
        config = self.config
        clock = time.perf_counter
        start = clock()
        arts: List[AttributeArtifacts] = []
        memos: List[LabeledAttribute] = []
        job_of: List[int] = []
        pos_of: List[int] = []
        for j, attrs in enumerate(numeric_of):
            for p, attr in enumerate(attrs):
                memo = entries_of[j][attr]
                arts.append(
                    AttributeArtifacts(
                        attr=attr, is_numeric=True, space=memo.space,
                        labels_initial=memo.labels_initial,
                    )
                )
                memos.append(memo)
                job_of.append(j)
                pos_of.append(p)
        if not arts:
            return [{} for _ in jobs]
        # Raw values, one matrix per row count: the attributes of job j
        # are rows ``row0[j] + pos`` of ``matrices[j]``.
        by_rows: Dict[int, List[int]] = {}
        for j, (dataset, _) in enumerate(jobs):
            if numeric_of[j]:
                by_rows.setdefault(dataset.n_rows, []).append(j)
        matrices: List[Optional[np.ndarray]] = [None] * len(jobs)
        row0 = [0] * len(jobs)
        live = list(range(len(arts)))
        for group in by_rows.values():
            matrix = np.stack(
                [jobs[j][0].column(a) for j in group for a in numeric_of[j]]
            )
            offset = 0
            for j in group:
                matrices[j], row0[j] = matrix, offset
                offset += len(numeric_of[j])
            nan = np.isnan(matrix)
            if not nan.any():
                continue
            # degraded telemetry gate: too few valid in-region samples
            for i in range(len(arts)):
                j = job_of[i]
                row = nan[row0[j] + pos_of[i]] if matrices[j] is matrix else None
                if row is None or not row.any():
                    continue
                considered = masks[j][0] | masks[j][1]
                n_considered = int(considered.sum())
                n_valid = int((considered & ~row).sum())
                if n_valid < config.min_valid_fraction * n_considered:
                    arts[i].rejection = (
                        f"degraded telemetry: only {n_valid}/"
                        f"{n_considered} region samples valid"
                    )
        live = [i for i in live if arts[i].rejection is None]
        widths = [a.space.n_partitions for a in arts]
        width = max(widths)

        # Section 4.3 filter: one kernel over the rows not yet memoized.
        if config.enable_filtering:
            todo = [i for i in live if memos[i]._labels_filtered is None]
            if todo:
                rows = filter_partitions_batch(
                    _stack([arts[i].labels_initial for i in todo], width)
                )
                for i, row in zip(todo, rows):
                    # a copy: memos outlive this call, and a view would
                    # pin the whole stacked matrix (and peak RSS with it)
                    memos[i]._labels_filtered = row[: widths[i]].copy()
            for i in live:
                arts[i].labels_filtered = memos[i]._labels_filtered
        else:
            for i in live:
                arts[i].labels_filtered = arts[i].labels_initial
        filtered = _stack([arts[i].labels_filtered for i in live], width)
        has_abnormal = (filtered == int(Label.ABNORMAL)).any(axis=1)
        for i in np.asarray(live, dtype=np.intp)[~has_abnormal].tolist():
            arts[i].rejection = "no abnormal partitions after filtering"
        has_normal = (filtered == int(Label.NORMAL)).any(axis=1)[has_abnormal]
        filtered = filtered[has_abnormal]
        live = np.asarray(live, dtype=np.intp)[has_abnormal].tolist()
        if timings is not None:
            now = clock()
            timings["filter"] = now - start
            start = now

        # Section 4.4 fill: rows left with only Abnormal labels first get
        # the partition of the normal region's mean (their memo key).
        blocks: Dict[int, list] = {}
        if config.enable_fill and live:
            delta = float(config.delta)
            forced = np.zeros(len(live), dtype=np.int64)
            keys: List[Optional[int]] = [None] * len(live)
            for k in np.flatnonzero(~has_normal).tolist():
                i = live[k]
                j = job_of[i]
                values = matrices[j][row0[j] + pos_of[i]][masks[j][1]]
                values = values[~np.isnan(values)]
                if not values.size:
                    # no valid normal sample: the θ gate's region mean
                    # is undefined too, so stop here
                    arts[i].rejection = (
                        "degraded telemetry: region mean undefined"
                    )
                    continue
                keys[k] = int(
                    arts[i].space.partition_indices(
                        np.asarray([float(values.mean())])
                    )[0]
                )
                forced[k] = keys[k]
            memoize = config.enable_filtering
            todo = []
            for k, i in enumerate(live):
                if arts[i].rejection is not None:
                    continue
                got = (
                    memos[i]._filled.get((delta, keys[k])) if memoize else None
                )
                if got is None:
                    todo.append(k)
                else:
                    arts[i].labels_filled, blocks[i] = got
            if todo:
                filled = fill_gaps_batch(filtered[todo], delta, forced[todo])
                ends = np.array([widths[live[k]] for k in todo])
                if (ends < width).any():
                    # clear the fill spilled into a narrow row's padding
                    filled[np.arange(width) >= ends[:, None]] = int(
                        Label.EMPTY
                    )
                for k, row, row_blocks in zip(
                    todo, filled, abnormal_blocks_batch(filled)
                ):
                    i = live[k]
                    got = (row[: widths[i]].copy(), row_blocks)
                    if memoize:
                        memos[i]._filled[(delta, keys[k])] = got
                    arts[i].labels_filled, blocks[i] = got
            live = [i for i in live if arts[i].rejection is None]
        elif live:
            for i, row_blocks in zip(live, abnormal_blocks_batch(filtered)):
                arts[i].labels_filled = arts[i].labels_filtered
                blocks[i] = row_blocks
        if timings is not None:
            now = clock()
            timings["fill"] = now - start
            start = now

        # Section 4.5 extract: θ-gate means, then one block → predicate.
        for i, (mu_abnormal, mu_normal) in self._region_means(
            cache, jobs, arts, matrices, row0, job_of, pos_of, live, masks
        ):
            art = arts[i]
            art.normalized_difference = abs(mu_abnormal - mu_normal)
            if not math.isfinite(art.normalized_difference):
                # a region with no valid samples yields a NaN mean: no evidence
                art.rejection = "degraded telemetry: region mean undefined"
                continue
            if len(blocks[i]) != 1:
                art.rejection = (
                    f"{len(blocks[i])} abnormal blocks (need exactly 1)"
                )
                continue
            if art.normalized_difference <= config.theta:
                art.rejection = (
                    f"normalized difference {art.normalized_difference:.3f} "
                    f"<= theta {config.theta}"
                )
                continue
            lo, hi = blocks[i][0]
            if lo == 0 and hi == art.space.n_partitions - 1:
                art.rejection = "abnormal block spans the entire domain"
                continue
            art.predicate = self._block_to_predicate(art.space, lo, hi)
        if timings is not None:
            timings["extract"] = clock() - start
        results: List[Dict[str, AttributeArtifacts]] = [{} for _ in jobs]
        for i, art in enumerate(arts):
            results[job_of[i]][art.attr] = art
        return results

    @staticmethod
    def _region_means(
        cache: LabeledSpaceCache,
        jobs: List[Tuple[Dataset, RegionSpec]],
        arts: List[AttributeArtifacts],
        matrices: List[Optional[np.ndarray]],
        row0: List[int],
        job_of: List[int],
        pos_of: List[int],
        rows: List[int],
        masks: List[Tuple[np.ndarray, np.ndarray]],
    ) -> List[Tuple[int, Tuple[float, float]]]:
        """Normalized ``(µA, µN)`` of the attributes at *rows* (cached).

        The pairs the cache does not hold yet are computed by one
        :func:`normalized_means_batch` call per row count, each job's
        rows with its own region masks.
        """
        by_job: Dict[int, List[int]] = {}
        for i in rows:
            by_job.setdefault(job_of[i], []).append(i)
        means: Dict[int, Tuple[float, float]] = {}
        # row count -> [(job, rows to compute)]
        todo: Dict[int, List[Tuple[int, List[int]]]] = {}
        for j, job_rows in by_job.items():
            cached = cache.peek_norm_means(
                *jobs[j], [arts[i].attr for i in job_rows]
            )
            missing = []
            for i in job_rows:
                pair = cached.get(arts[i].attr)
                if pair is None:
                    missing.append(i)
                else:
                    means[i] = pair
            if missing:
                todo.setdefault(matrices[j].shape[1], []).append((j, missing))
        published = []
        for group in todo.values():
            bounds = np.cumsum([0] + [len(missing) for _, missing in group])
            computed = normalized_means_batch(
                matrices[group[0][0]][
                    [row0[j] + pos_of[i] for j, missing in group for i in missing]
                ],
                [masks[j][0] for j, _ in group],
                [masks[j][1] for j, _ in group],
                bounds,
            ).tolist()
            for k, (j, missing) in enumerate(group):
                pairs = computed[bounds[k] : bounds[k + 1]]
                published.append((
                    *jobs[j],
                    {arts[i].attr: tuple(p) for i, p in zip(missing, pairs)},
                ))
                for i, pair in zip(missing, pairs):
                    means[i] = tuple(pair)
        cache.publish_normalized_means(published)
        return [(i, means[i]) for i in rows]

    @staticmethod
    def _block_to_predicate(
        space: NumericPartitionSpace, start: int, end: int
    ) -> NumericPredicate:
        """Translate an Abnormal block into a simple numeric predicate.

        Blocks touching the left edge become ``Attr < ub``; blocks touching
        the right edge become ``Attr > lb``; interior blocks become ranges.
        """
        if start == 0:
            return NumericPredicate(space.attr, upper=space.upper_bound(end))
        if end == space.n_partitions - 1:
            return NumericPredicate(space.attr, lower=space.lower_bound(start))
        return NumericPredicate(
            space.attr,
            lower=space.lower_bound(start),
            upper=space.upper_bound(end),
        )

    # ------------------------------------------------------------------
    # Categorical attributes (label + extract only)
    # ------------------------------------------------------------------
    @staticmethod
    def _categorical_attribute(entry: LabeledAttribute) -> AttributeArtifacts:
        attr, space, labels = entry.attr, entry.space, entry.labels_initial
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
            return art
        art.predicate = CategoricalPredicate.of(attr, abnormal_categories)
        return art
