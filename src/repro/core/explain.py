"""The ``DBSherlock`` facade: explain, diagnose, learn from feedback.

Ties together the predicate generator (Section 4), domain-knowledge
pruning (Section 5), the causal-model store (Section 6), and the automatic
anomaly detector (Section 7) behind the workflow of Figure 2:

1. the user marks an anomaly (or calls :meth:`DBSherlock.detect`),
2. :meth:`DBSherlock.explain` returns predicates plus any known causes
   whose confidence clears the display threshold λ,
3. once the user confirms the actual cause, :meth:`DBSherlock.feedback`
   stores (and merges) a causal model for future diagnoses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.anomaly import AnomalyDetector, DetectionResult
from repro.core.causal import CausalModel, CausalModelStore
from repro.core.generator import GeneratorConfig, PredicateGenerator
from repro.core.knowledge import (
    DEFAULT_KAPPA_THRESHOLD,
    DomainRule,
    prune_secondary_symptoms,
)
from repro.core.predicates import Conjunction, Predicate
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.obs import metrics, trace
from repro.perf.cache import LabeledSpaceCache, build_region_partitions
from repro.schema.fingerprint import fingerprint_attributes
from repro.schema.reconcile import (
    DEFAULT_COVERAGE_FLOOR,
    ReconciliationReport,
    SchemaReconciler,
)

__all__ = ["DBSherlock", "Explanation"]

DEFAULT_LAMBDA = 0.2

_CONFIDENCE = metrics.REGISTRY.histogram(
    "repro_rank_confidence",
    "Per-model Eq. 3 confidence at ranking time",
    buckets=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)
_ABSTENTIONS = metrics.REGISTRY.counter(
    "repro_rank_abstentions_total",
    "Models that declined to score (reconciliation coverage below floor)",
)
_RECONCILED_RANKS = metrics.REGISTRY.counter(
    "repro_rank_reconciled_total",
    "Rankings that fell back to schema reconciliation (drifted input)",
)
_CLEAN_RANKS = metrics.REGISTRY.counter(
    "repro_rank_clean_total",
    "Rankings served on the clean (no-drift) path",
)
_COVERAGE = metrics.REGISTRY.gauge(
    "repro_reconciliation_coverage",
    "Attribute coverage of the most recent schema reconciliation",
)
_EXPLAINS = metrics.REGISTRY.counter(
    "repro_explains_total", "DBSherlock.explain invocations"
)


def _observe_rank(scores, report, abstained) -> None:
    """Fold one ranking pass into the registry (shared with the harness)."""
    for _cause, confidence in scores:
        _CONFIDENCE.observe(confidence)
    if abstained:
        _ABSTENTIONS.inc(len(abstained))
    if report is not None:
        _RECONCILED_RANKS.inc()
        matches = report.matches
        if matches:
            matched = sum(1 for m in matches.values() if m.matched)
            _COVERAGE.set(matched / len(matches))
    else:
        _CLEAN_RANKS.inc()


@dataclass
class Explanation:
    """What DBSherlock shows the user for one anomaly.

    Attributes
    ----------
    predicates:
        The explanatory conjunction (after domain-knowledge pruning).
    pruned:
        Predicates removed as secondary symptoms, kept for transparency.
    causes:
        ``(cause, confidence)`` pairs from causal models clearing λ,
        ordered by decreasing confidence.
    all_cause_scores:
        Every model's score regardless of λ (useful for evaluation).
    reconciliation:
        The :class:`~repro.schema.reconcile.ReconciliationReport` the
        causes were scored under, when schema reconciliation ran
        (``None`` on the clean path where every model attribute was
        present verbatim).
    abstained:
        Causes whose models declined to score because too few of their
        attributes could be reconciled (coverage below the floor).
    """

    predicates: Conjunction
    pruned: List[Predicate] = field(default_factory=list)
    causes: List[Tuple[str, float]] = field(default_factory=list)
    all_cause_scores: List[Tuple[str, float]] = field(default_factory=list)
    reconciliation: Optional[ReconciliationReport] = None
    abstained: List[str] = field(default_factory=list)

    @property
    def top_cause(self) -> Optional[str]:
        """The highest-confidence cause above λ, if any."""
        return self.causes[0][0] if self.causes else None

    def __str__(self) -> str:
        lines = [f"predicates: {self.predicates}"]
        for cause, confidence in self.causes:
            lines.append(f"cause: {cause} (confidence {confidence:.1%})")
        return "\n".join(lines)


class DBSherlock:
    """Performance-anomaly explanation for OLTP telemetry.

    Parameters
    ----------
    config:
        Predicate-generation parameters (R, δ, θ).
    rules:
        Domain-knowledge rules for secondary-symptom pruning; empty
        disables pruning (the paper shows only a 2-3 % accuracy drop).
    kappa_threshold:
        Independence-test threshold κt (default 0.15).
    lambda_threshold:
        Minimum confidence λ for a cause to be displayed (default 20 %).
    detector:
        Automatic anomaly detector; defaults to the Section 7 settings.
        Any object with ``detect(dataset) -> DetectionResult`` works —
        e.g. the alternative strategies in :mod:`repro.detect`.
    reconciler:
        Schema reconciler used when the diagnosis data is missing model
        attributes (collector drift).  Defaults to a
        :class:`~repro.schema.reconcile.SchemaReconciler` with no alias
        table; pass one with aliases after a known collector upgrade.
    coverage_floor:
        Minimum fraction of a model's attributes that must reconcile for
        the model to score; below it the model abstains.
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        rules: Sequence[DomainRule] = (),
        kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
        lambda_threshold: float = DEFAULT_LAMBDA,
        detector: Optional[AnomalyDetector] = None,
        reconciler: Optional[SchemaReconciler] = None,
        coverage_floor: float = DEFAULT_COVERAGE_FLOOR,
    ) -> None:
        self.config = config or GeneratorConfig()
        # One shared labeled-space cache: explain() generates predicates
        # and ranks stored models on the same (dataset, spec), so each
        # attribute is discretized and labeled exactly once per anomaly.
        self.cache = LabeledSpaceCache()
        self.generator = PredicateGenerator(self.config, cache=self.cache)
        self.rules = list(rules)
        self.kappa_threshold = kappa_threshold
        self.lambda_threshold = lambda_threshold
        self.detector = detector or AnomalyDetector()
        self.reconciler = reconciler or SchemaReconciler()
        self.coverage_floor = coverage_floor
        self.store = CausalModelStore()

    # ------------------------------------------------------------------
    def explain(
        self,
        dataset: Dataset,
        spec: Optional[RegionSpec] = None,
        attributes: Optional[Sequence[str]] = None,
    ) -> Explanation:
        """Explain an anomaly on *dataset*.

        When *spec* is omitted the automatic detector locates the abnormal
        region first; a detector miss yields an empty explanation.
        """
        _EXPLAINS.inc()
        with trace.span(
            "explain", dataset=getattr(dataset, "name", None)
        ) as sp:
            if spec is None:
                detection = self.detect(dataset)
                if not detection.found:
                    sp.set(detected=False)
                    return Explanation(predicates=Conjunction())
                spec = detection.to_region_spec()
            conjunction = self.generator.generate(dataset, spec, attributes)
            return self._explain_generated(dataset, spec, conjunction, sp)

    def explain_batch(
        self,
        jobs: Sequence[Tuple[Dataset, Optional[RegionSpec]]],
        attributes: Optional[Sequence[str]] = None,
    ) -> List[Explanation]:
        """:meth:`explain` for each ``(dataset, spec)`` job, in order.

        The fleet scheduler hands a drained batch of closed regions here.
        The jobs that carry a spec share one
        :meth:`PredicateGenerator.generate_batch` pass (Algorithm 1 for
        every attribute of every job at once); pruning and ranking then
        run per job.  Each result is identical to a serial
        :meth:`explain`.  Jobs without a spec take :meth:`explain`.
        """
        jobs = list(jobs)
        fused = [(ds, spec) for ds, spec in jobs if spec is not None]
        if len(fused) < 2:
            return [self.explain(ds, spec, attributes) for ds, spec in jobs]
        conjunctions = iter(self.generator.generate_batch(fused, attributes))
        model_attrs = list(
            dict.fromkeys(a for model in self.store for a in model.attributes)
        )
        if model_attrs:
            # ranking reads the region views of the model attributes:
            # build those of every job in one pass
            build_region_partitions(
                [
                    entry
                    for entries in self.cache.entries_batch(
                        [
                            (ds, spec, [a for a in model_attrs if a in ds])
                            for ds, spec in fused
                        ],
                        self.config.n_partitions,
                    )
                    for entry in entries.values()
                ]
            )
        out: List[Explanation] = []
        for dataset, spec in jobs:
            if spec is None:
                out.append(self.explain(dataset, None, attributes))
                continue
            _EXPLAINS.inc()
            with trace.span(
                "explain", dataset=getattr(dataset, "name", None)
            ) as sp:
                out.append(
                    self._explain_generated(
                        dataset, spec, next(conjunctions), sp
                    )
                )
        return out

    def _explain_generated(
        self,
        dataset: Dataset,
        spec: RegionSpec,
        conjunction: Conjunction,
        sp,
    ) -> Explanation:
        """Prune the generated predicates and rank the stored models."""
        with trace.span("prune", candidates=len(conjunction.predicates)):
            kept, pruned = prune_secondary_symptoms(
                conjunction.predicates, dataset, self.rules,
                self.kappa_threshold,
            )
        scores, report, abstained = self._rank(dataset, spec)
        visible = [
            (cause, confidence)
            for cause, confidence in scores
            if confidence > self.lambda_threshold
        ]
        sp.set(
            predicates=len(kept),
            pruned=len(pruned),
            causes_visible=len(visible),
            abstained=len(abstained),
        )
        return Explanation(
            predicates=Conjunction(kept),
            pruned=pruned,
            causes=visible,
            all_cause_scores=scores,
            reconciliation=report,
            abstained=abstained,
        )

    def _rank(
        self, dataset: Dataset, spec: RegionSpec
    ) -> Tuple[
        List[Tuple[str, float]], Optional[ReconciliationReport], List[str]
    ]:
        """Rank stored models, reconciling the schema only under drift.

        When every model attribute is present in *dataset* verbatim, the
        clean ranking path runs unchanged (bitwise-identical scores, warm
        labeled-space cache).  Otherwise the reconciler maps the drifted
        schema back to the model vocabulary and models with too little
        coverage abstain.
        """
        drifted = any(
            attr not in dataset
            for model in self.store
            for attr in model.attributes
        )
        with trace.span(
            "rank", models=len(self.store), drifted=drifted
        ):
            if not drifted:
                scores = self.store.rank(
                    dataset, spec, n_partitions=self.config.n_partitions,
                    cache=self.cache,
                )
                _observe_rank(scores, None, [])
                return scores, None, []
            result = self.store.rank_reconciled(
                dataset,
                spec,
                self.reconciler,
                n_partitions=self.config.n_partitions,
                cache=self.cache,
                coverage_floor=self.coverage_floor,
            )
            _observe_rank(result.scores, result.report, result.abstained)
            return result.scores, result.report, result.abstained

    def detect(self, dataset: Dataset) -> DetectionResult:
        """Automatically locate abnormal regions (Section 7)."""
        with trace.span("detect") as sp:
            result = self.detector.detect(dataset)
            sp.set(found=result.found)
            return result

    def feedback(
        self,
        cause: str,
        explanation: Explanation,
        dataset: Optional[Dataset] = None,
    ) -> CausalModel:
        """Record the DBA's confirmed cause for an explanation.

        Creates a causal model from the accepted predicates and adds it to
        the store, merging with any existing model for the same cause.
        Passing the diagnosed *dataset* additionally fingerprints the
        predicate attributes, so the model survives collector schema
        drift (renamed metrics reconcile by distribution, not just name).
        """
        predicates = explanation.predicates.predicates
        fingerprints = (
            fingerprint_attributes(dataset, [p.attr for p in predicates])
            if dataset is not None
            else {}
        )
        model = CausalModel(
            cause=cause, predicates=predicates, fingerprints=fingerprints
        )
        return self.store.add(model)

    def diagnose(
        self, dataset: Dataset, spec: RegionSpec, top_k: int = 1
    ) -> List[Tuple[str, float]]:
        """The ``top_k`` most likely known causes for an anomaly."""
        scores, _, _ = self._rank(dataset, spec)
        return scores[:top_k]

    # ------------------------------------------------------------------
    @staticmethod
    def _alias_path(path):
        """The alias table lives next to the model store."""
        from pathlib import Path

        path = Path(path)
        return path.with_name(path.stem + ".aliases.json")

    def save_models(self, path) -> None:
        """Persist the accumulated causal models as JSON.

        The reconciler's learned alias table (if any) is saved alongside
        at ``<models>.aliases.json`` — models and confirmed drift
        resolutions are both accumulated diagnostic knowledge.
        """
        from repro.core.persistence import save_store

        save_store(self.store, path)
        store = self.reconciler.alias_store
        if store is not None:
            if store.path is None:
                store.path = self._alias_path(path)
            store.save()

    def load_models(self, path) -> None:
        """Load previously saved causal models, merging same-cause models.

        When an alias table sits next to the model store and the
        reconciler has none yet, it is attached — previously confirmed
        drift resolutions resolve at the alias stage from the first
        diagnosis.
        """
        from repro.core.persistence import load_store
        from repro.schema.aliases import AliasStore

        loaded = load_store(path)
        for model in loaded:
            self.store.add(model)
        alias_path = self._alias_path(path)
        if self.reconciler.alias_store is None and alias_path.exists():
            self.reconciler.alias_store = AliasStore(alias_path)
