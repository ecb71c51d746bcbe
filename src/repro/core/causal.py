"""Causal models: DBA feedback turned into reusable diagnoses (Section 6).

A causal model pairs a *cause variable* (the DBA's label, e.g. "Log
Rotation") with *effect predicates* (the accepted explanation).  For a new
anomaly, the model's **confidence** (Equation 3) is the average separation
power of its effect predicates measured in the partition space — partitions
rather than raw tuples, to damp real-world noise.  Models sharing a cause
**merge** (Section 6.2): only attributes common to both survive, and the
per-attribute predicates widen to cover both instances.

Models additionally carry per-attribute **fingerprints**
(:class:`~repro.schema.fingerprint.AttributeFingerprint`) captured from
the training data, so diagnosis survives collector schema drift: ranking
through a :class:`~repro.schema.reconcile.SchemaReconciler` matches the
test data's attributes back to the model vocabulary, missing attributes
contribute zero confidence (an implicit coverage penalty — Equation 3
averages over *all* of a model's predicates), and a model whose coverage
falls below a floor abstains instead of scoring garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predicates import (
    Conjunction,
    InconsistentPredicates,
    NumericPredicate,
    Predicate,
)
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.perf.cache import (
    LabeledAttribute,
    LabeledSpaceCache,
    build_region_partitions,
)
from repro.schema.fingerprint import AttributeFingerprint

__all__ = ["CausalModel", "CausalModelStore", "model_confidence"]

DEFAULT_CONFIDENCE_PARTITIONS = 250


def _predicate_on_partitions(
    predicate: Predicate, entry: LabeledAttribute, apply_filtering: bool
) -> float:
    """Separation power of one predicate in the partition space (Eq. 3 term).

    *entry* is the attribute's labeled space from a
    :class:`repro.perf.cache.LabeledSpaceCache`.  The predicate is
    evaluated only on the representatives of the Abnormal and Normal
    partitions: the satisfied counts (hence the ratios) equal masking a
    full-space evaluation.  A predicate contributes zero when either
    region has no labeled partitions.
    """
    regions = entry.region_partitions(apply_filtering)
    if regions is None:
        return 0.0
    reps_abnormal, reps_normal, n_abnormal, n_normal = regions
    ratio_abnormal = (
        float(np.count_nonzero(predicate.evaluate_values(reps_abnormal)))
        / n_abnormal
    )
    ratio_normal = (
        float(np.count_nonzero(predicate.evaluate_values(reps_normal)))
        / n_normal
    )
    return ratio_abnormal - ratio_normal


def model_confidence(
    predicates: Sequence[Predicate],
    dataset: Dataset,
    spec: RegionSpec,
    n_partitions: int = DEFAULT_CONFIDENCE_PARTITIONS,
    apply_filtering: bool = True,
    cache: Optional[object] = None,
) -> float:
    """Equation 3: mean partition-space separation power of *predicates*.

    Each attribute is labeled once through a
    :class:`repro.perf.cache.LabeledSpaceCache`; passing one shares the
    labeled spaces across models and repeated rankings of the same
    anomaly, and without one the call uses a private cache.  A predicate
    on an attribute *dataset* lacks contributes zero.
    """
    if not predicates:
        return 0.0
    if cache is None:
        cache = LabeledSpaceCache()
    present = [p.attr for p in predicates if p.attr in dataset]
    entries = (
        cache.entries(dataset, spec, present, n_partitions) if present else {}
    )
    # the model's region views in one pass instead of one each
    build_region_partitions(entries.values(), apply_filtering)
    total = 0.0
    for predicate in predicates:
        if predicate.attr in entries:
            total += _predicate_on_partitions(
                predicate, entries[predicate.attr], apply_filtering
            )
    return total / len(predicates)


@dataclass
class CausalModel:
    """A cause variable with its effect predicates.

    Parameters
    ----------
    cause:
        Human-readable root-cause label supplied by the DBA.
    predicates:
        Effect predicates accepted as the explanation for this cause.
    n_merged:
        How many diagnosed datasets contributed to this model (1 for a
        freshly created model; grows via :meth:`merge`).
    """

    cause: str
    predicates: List[Predicate] = field(default_factory=list)
    n_merged: int = 1
    #: per-attribute distributional identities captured at training time
    #: (may be empty for legacy models; reconciliation then falls back to
    #: name-only matching).
    fingerprints: Dict[str, "AttributeFingerprint"] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        attrs = [p.attr for p in self.predicates]
        if len(attrs) != len(set(attrs)):
            raise ValueError("causal model has duplicate predicate attributes")

    @property
    def attributes(self) -> List[str]:
        """Attributes the effect predicates constrain."""
        return [p.attr for p in self.predicates]

    def confidence(
        self,
        dataset: Dataset,
        spec: RegionSpec,
        n_partitions: int = DEFAULT_CONFIDENCE_PARTITIONS,
        apply_filtering: bool = True,
        cache: Optional[object] = None,
    ) -> float:
        """Fitness of this model for the given anomaly (Equation 3)."""
        return model_confidence(
            self.predicates, dataset, spec, n_partitions, apply_filtering,
            cache=cache,
        )

    def merge(self, other: "CausalModel") -> "CausalModel":
        """Merge with another model of the same cause (Section 6.2).

        Keeps only predicates on attributes common to both models, widening
        each pair to cover both; attribute pairs with inconsistent numeric
        directions are discarded.
        """
        if other.cause != self.cause:
            raise ValueError(
                f"cannot merge causes {self.cause!r} and {other.cause!r}"
            )
        mine = {p.attr: p for p in self.predicates}
        theirs = {p.attr: p for p in other.predicates}
        merged: List[Predicate] = []
        for attr in mine:
            if attr not in theirs:
                continue
            a, b = mine[attr], theirs[attr]
            if isinstance(a, NumericPredicate) != isinstance(b, NumericPredicate):
                continue
            try:
                merged.append(a.merge(b))  # type: ignore[arg-type]
            except InconsistentPredicates:
                continue
        fingerprints: Dict[str, AttributeFingerprint] = {}
        for predicate in merged:
            fp_a = self.fingerprints.get(predicate.attr)
            fp_b = other.fingerprints.get(predicate.attr)
            if fp_a is not None and fp_b is not None:
                fingerprints[predicate.attr] = fp_a.merged(fp_b)
            elif fp_a is not None or fp_b is not None:
                fingerprints[predicate.attr] = fp_a or fp_b  # type: ignore[assignment]
        return CausalModel(
            cause=self.cause,
            predicates=merged,
            n_merged=self.n_merged + other.n_merged,
            fingerprints=fingerprints,
        )

    def conjunction(self) -> Conjunction:
        """The effect predicates as an evaluable conjunction."""
        return Conjunction(self.predicates)

    def __str__(self) -> str:
        preds = " ∧ ".join(str(p) for p in self.predicates) or "(no predicates)"
        return f"[{self.cause}] {preds}"


class CausalModelStore:
    """The system's accumulated causal models, keyed by cause.

    Adding a model whose cause already exists merges it into the stored
    model, mirroring how DBSherlock refines diagnoses over time.
    """

    def __init__(self, merge_on_add: bool = True) -> None:
        self._models: Dict[str, CausalModel] = {}
        self.merge_on_add = merge_on_add

    def add(self, model: CausalModel) -> CausalModel:
        """Insert (or merge) *model*; returns the stored model."""
        existing = self._models.get(model.cause)
        if existing is not None and self.merge_on_add:
            model = existing.merge(model)
        self._models[model.cause] = model
        return model

    def get(self, cause: str) -> Optional[CausalModel]:
        """The stored model for *cause*, if any."""
        return self._models.get(cause)

    @property
    def causes(self) -> List[str]:
        """All known causes."""
        return list(self._models)

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self):
        return iter(self._models.values())

    def rank(
        self,
        dataset: Dataset,
        spec: RegionSpec,
        n_partitions: int = DEFAULT_CONFIDENCE_PARTITIONS,
        apply_filtering: bool = True,
        cache: Optional[object] = None,
        reconciler: Optional[object] = None,
        coverage_floor: float = 0.5,
    ) -> List[Tuple[str, float]]:
        """All causes with their confidence, highest first.

        A :class:`repro.perf.cache.LabeledSpaceCache` is created for the
        call when none is supplied, so ranking K models labels each
        attribute of *dataset* once instead of once per model.  Passing a
        :class:`~repro.schema.reconcile.SchemaReconciler` additionally
        matches drifted attribute names back to the model vocabulary
        (see :meth:`rank_reconciled` for the full report).
        """
        if cache is None:
            cache = LabeledSpaceCache()
        if reconciler is not None:
            return self.rank_reconciled(
                dataset,
                spec,
                reconciler,
                n_partitions=n_partitions,
                apply_filtering=apply_filtering,
                cache=cache,
                coverage_floor=coverage_floor,
            ).scores
        scored = [
            (
                model.cause,
                model.confidence(
                    dataset, spec, n_partitions, apply_filtering, cache=cache
                ),
            )
            for model in self._models.values()
        ]
        scored.sort(key=lambda item: item[1], reverse=True)
        return scored

    def rank_reconciled(
        self,
        dataset: Dataset,
        spec: RegionSpec,
        reconciler,
        n_partitions: int = DEFAULT_CONFIDENCE_PARTITIONS,
        apply_filtering: bool = True,
        cache: Optional[object] = None,
        coverage_floor: float = 0.5,
    ):
        """Rank through a schema reconciler, returning the full
        :class:`~repro.schema.reconcile.RankResult` (scores, abstaining
        causes, and the per-attribute :class:`ReconciliationReport`)."""
        from repro.schema.reconcile import rank_with_reconciliation

        if cache is None:
            cache = LabeledSpaceCache()
        return rank_with_reconciliation(
            self._models.values(),
            dataset,
            spec,
            reconciler,
            n_partitions=n_partitions,
            apply_filtering=apply_filtering,
            cache=cache,
            coverage_floor=coverage_floor,
        )
