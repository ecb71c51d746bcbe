"""Schema reconciliation: match drifted telemetry to a model's vocabulary.

A causal model's effect predicates name attributes from the collector
schema the model was trained under.  At diagnosis time the test data may
use a different schema — renamed metrics, reordered columns, dropped
probes, junk additions.  :class:`SchemaReconciler` maps the model's
attributes onto the data's through a three-stage cascade:

1. **exact** — same name, compatible kind;
2. **alias** — an operator-maintained alias table (observed name →
   canonical model name), the changelog of a known collector upgrade;
3. **fingerprint** — highest combined name-n-gram / value-sketch
   similarity (:mod:`repro.schema.fingerprint`), assigned greedily
   one-to-one in descending score order, but only above a confidence
   ``threshold`` — a below-threshold attribute is reported **missing**
   rather than mis-mapped, because a wrong mapping poisons Equation 3
   while a missing one merely costs coverage.

The resulting :class:`ReconciliationReport` is explicit and auditable:
per-attribute match method and score, the unmatched data attributes, and
:meth:`ReconciliationReport.apply`, which renames matched data columns
into the model vocabulary so every downstream consumer (confidence,
ranking, predicate evaluation) works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import metrics
from repro.schema.aliases import AliasStore
from repro.schema.fingerprint import (
    AttributeFingerprint,
    fingerprint_attributes,
    name_similarity,
    value_similarity,
)

__all__ = [
    "AttributeMatch",
    "ReconciliationReport",
    "SchemaReconciler",
    "RankResult",
    "rank_with_reconciliation",
]

DEFAULT_THRESHOLD = 0.55
DEFAULT_NAME_WEIGHT = 0.6
DEFAULT_COVERAGE_FLOOR = 0.5
#: Fingerprint matches at or above this score are recorded into the
#: persistent alias table, so the next drift resolves at the alias stage.
DEFAULT_CONFIRM_THRESHOLD = 0.8

_ALIAS_HITS = metrics.REGISTRY.counter(
    "repro_schema_alias_hits_total",
    "Model attributes resolved by the alias table (no fingerprinting)",
)
_FINGERPRINT_MATCHES = metrics.REGISTRY.counter(
    "repro_schema_fingerprint_matches_total",
    "Model attributes resolved by fingerprint similarity",
)
_ALIASES_LEARNED = metrics.REGISTRY.counter(
    "repro_schema_aliases_learned_total",
    "Confirmed fingerprint matches recorded into the alias table",
)


@dataclass(frozen=True)
class AttributeMatch:
    """How one model attribute was resolved against the data."""

    model_attr: str
    #: the data attribute it maps to (``None`` when missing).
    dataset_attr: Optional[str]
    #: ``"exact"`` | ``"alias"`` | ``"fingerprint"`` | ``"missing"``.
    method: str
    #: match confidence in [0, 1] (1.0 for exact/alias, 0.0 for missing).
    score: float

    @property
    def matched(self) -> bool:
        return self.dataset_attr is not None


@dataclass
class ReconciliationReport:
    """Explicit outcome of one reconciliation pass."""

    #: per model attribute, in model order.
    matches: Dict[str, AttributeMatch]
    #: data attributes no model attribute claimed (junk, new metrics).
    unmatched_dataset: List[str] = field(default_factory=list)

    @property
    def missing(self) -> List[str]:
        """Model attributes with no trustworthy counterpart in the data."""
        return [a for a, m in self.matches.items() if not m.matched]

    @property
    def renamed(self) -> Dict[str, str]:
        """Non-identity mappings applied: data name → model name."""
        return {
            m.dataset_attr: m.model_attr
            for m in self.matches.values()
            if m.matched and m.dataset_attr != m.model_attr
        }

    def coverage(self, attrs: Sequence[str]) -> float:
        """Fraction of *attrs* that resolved to a data attribute."""
        if not attrs:
            return 1.0
        matched = sum(
            1
            for a in attrs
            if a in self.matches and self.matches[a].matched
        )
        return matched / len(attrs)

    def apply(self, dataset):
        """Rename matched data columns into the model vocabulary.

        Returns *dataset* itself when no rename is needed (the clean-path
        fast path — identity is preserved so labeled-space caches keyed
        by dataset id keep hitting).
        """
        renames = self.renamed
        if not renames:
            return dataset
        return dataset.rename_attributes(renames)

    def summary(self) -> Dict[str, int]:
        """Aggregate counts for logs and bench reports."""
        by_method: Dict[str, int] = {}
        for m in self.matches.values():
            by_method[m.method] = by_method.get(m.method, 0) + 1
        by_method["unmatched_dataset"] = len(self.unmatched_dataset)
        return by_method


class SchemaReconciler:
    """Match model attributes to data attributes across schema drift.

    Parameters
    ----------
    aliases:
        Observed-name → canonical-model-name table (a collector
        upgrade's changelog).  Alias matches rank just below exact ones
        and are exempt from the fingerprint threshold.
    threshold:
        Minimum combined similarity for a fingerprint match; below it an
        attribute is reported missing rather than mis-mapped.
    name_weight:
        Weight of name similarity in the combined score (value
        similarity gets ``1 - name_weight``).  When either side lacks a
        fingerprint, name similarity alone is used.
    alias_store:
        Optional persistent :class:`~repro.schema.aliases.AliasStore`.
        Its entries join the alias stage, and fingerprint matches whose
        score reaches ``confirm_threshold`` are recorded back into it
        (and saved), so repeated drifts resolve without fingerprinting.
    confirm_threshold:
        Minimum fingerprint score for a match to be recorded into
        ``alias_store``.
    """

    def __init__(
        self,
        aliases: Optional[Mapping[str, str]] = None,
        threshold: float = DEFAULT_THRESHOLD,
        name_weight: float = DEFAULT_NAME_WEIGHT,
        alias_store: Optional[AliasStore] = None,
        confirm_threshold: float = DEFAULT_CONFIRM_THRESHOLD,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 <= name_weight <= 1.0:
            raise ValueError("name_weight must lie in [0, 1]")
        if not 0.0 <= confirm_threshold <= 1.0:
            raise ValueError("confirm_threshold must lie in [0, 1]")
        self.aliases = dict(aliases or {})
        self.threshold = float(threshold)
        self.name_weight = float(name_weight)
        self.alias_store = alias_store
        self.confirm_threshold = float(confirm_threshold)

    # ------------------------------------------------------------------
    def _score(
        self,
        model_attr: str,
        model_fp: Optional[AttributeFingerprint],
        data_attr: str,
        data_fp: AttributeFingerprint,
    ) -> float:
        """Combined similarity of a (model attr, data attr) pair."""
        if model_fp is not None and model_fp.kind != data_fp.kind:
            return 0.0
        names = name_similarity(model_attr, data_attr)
        if model_fp is None:
            return names
        values = value_similarity(model_fp, data_fp)
        return self.name_weight * names + (1.0 - self.name_weight) * values

    def _kind_compatible(
        self,
        model_fp: Optional[AttributeFingerprint],
        dataset,
        data_attr: str,
    ) -> bool:
        if model_fp is None:
            return True
        is_numeric = dataset.is_numeric(data_attr)
        return (model_fp.kind == "numeric") == is_numeric

    def reconcile(
        self,
        fingerprints: Mapping[str, Optional[AttributeFingerprint]],
        dataset,
    ) -> ReconciliationReport:
        """Resolve every model attribute against *dataset*.

        *fingerprints* maps each model attribute to its stored
        fingerprint (``None`` for legacy models, which then match by
        name only).
        """
        model_attrs = list(fingerprints)
        resolved: Dict[str, AttributeMatch] = {}
        claimed: set = set()

        # 1. exact name (kind-compatible)
        for attr in model_attrs:
            if attr in dataset and self._kind_compatible(
                fingerprints[attr], dataset, attr
            ):
                resolved[attr] = AttributeMatch(attr, attr, "exact", 1.0)
                claimed.add(attr)

        # 2. alias table (observed name → canonical model name); the
        # operator-maintained table wins over learned (alias-store) rows
        combined_aliases = dict(
            self.alias_store.aliases if self.alias_store is not None else {}
        )
        combined_aliases.update(self.aliases)
        if combined_aliases:
            for data_attr, canonical in combined_aliases.items():
                if (
                    canonical in model_attrs
                    and canonical not in resolved
                    and data_attr in dataset
                    and data_attr not in claimed
                    and self._kind_compatible(
                        fingerprints[canonical], dataset, data_attr
                    )
                ):
                    resolved[canonical] = AttributeMatch(
                        canonical, data_attr, "alias", 1.0
                    )
                    claimed.add(data_attr)
                    _ALIAS_HITS.inc()

        # 3. fingerprint similarity, greedy one-to-one above threshold
        open_model = [a for a in model_attrs if a not in resolved]
        open_data = [a for a in dataset.attributes if a not in claimed]
        if open_model and open_data:
            data_fps = fingerprint_attributes(dataset, open_data)
            candidates: List[Tuple[float, str, str]] = []
            for m in open_model:
                for d in open_data:
                    score = self._score(m, fingerprints[m], d, data_fps[d])
                    if score >= self.threshold:
                        candidates.append((score, m, d))
            # descending score; name ties broken lexicographically so the
            # assignment is deterministic regardless of input order
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            learned = 0
            for score, m, d in candidates:
                if m in resolved or d in claimed:
                    continue
                resolved[m] = AttributeMatch(m, d, "fingerprint", score)
                claimed.add(d)
                _FINGERPRINT_MATCHES.inc()
                if (
                    self.alias_store is not None
                    and score >= self.confirm_threshold
                    and self.alias_store.record(d, m, score)
                ):
                    learned += 1
            if learned:
                _ALIASES_LEARNED.inc(learned)
                self.alias_store.save()

        matches = {
            attr: resolved.get(
                attr, AttributeMatch(attr, None, "missing", 0.0)
            )
            for attr in model_attrs
        }
        unmatched = [a for a in dataset.attributes if a not in claimed]
        return ReconciliationReport(
            matches=matches, unmatched_dataset=unmatched
        )


# ----------------------------------------------------------------------
# Reconciled ranking (shared by CausalModelStore.rank and the harness)
# ----------------------------------------------------------------------
@dataclass
class RankResult:
    """Outcome of ranking causal models through a reconciler."""

    #: ``(cause, confidence)`` — scored models by descending confidence,
    #: then abstaining models (each at the no-evidence score 0.0).
    scores: List[Tuple[str, float]]
    #: causes whose models abstained (coverage below the floor).
    abstained: List[str]
    #: the reconciliation the scores were computed under.
    report: ReconciliationReport


def collect_fingerprints(
    models,
) -> Dict[str, Optional[AttributeFingerprint]]:
    """Union of the models' attribute fingerprints (first non-None wins)."""
    fps: Dict[str, Optional[AttributeFingerprint]] = {}
    for model in models:
        for attr in model.attributes:
            stored = model.fingerprints.get(attr)
            if attr not in fps or (fps[attr] is None and stored is not None):
                fps[attr] = stored
    return fps


def rank_with_reconciliation(
    models,
    dataset,
    spec,
    reconciler: SchemaReconciler,
    n_partitions: int = 250,
    apply_filtering: bool = True,
    cache=None,
    coverage_floor: float = DEFAULT_COVERAGE_FLOOR,
) -> RankResult:
    """Rank *models* on *dataset* after reconciling its schema.

    One reconciliation pass covers every model (their attribute
    fingerprints are unioned), the matched data columns are renamed into
    the model vocabulary, and each model scores Equation 3 on the
    renamed data.  Because confidence averages over *all* of a model's
    predicates while only reconciled-and-present ones can contribute,
    the score carries an implicit coverage penalty — and a model whose
    coverage falls below ``coverage_floor`` abstains outright (scored at
    the no-evidence 0.0, listed in ``abstained``) instead of reporting a
    confidence computed from a sliver of its evidence.
    """
    from repro.core.causal import rank_by_confidence

    models = list(models)
    report = reconciler.reconcile(collect_fingerprints(models), dataset)
    target = report.apply(dataset)
    abstains = [
        bool(model.predicates)
        and report.coverage(model.attributes) < coverage_floor
        for model in models
    ]
    scored = rank_by_confidence(
        [model for model, out in zip(models, abstains) if not out],
        target,
        spec,
        n_partitions,
        apply_filtering,
        cache,
    )
    abstained = [model.cause for model, out in zip(models, abstains) if out]
    scored.extend((cause, 0.0) for cause in abstained)
    return RankResult(scores=scored, abstained=abstained, report=report)
