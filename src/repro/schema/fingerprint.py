"""Attribute fingerprints: what an attribute *is*, independent of its name.

Causal models remember attributes by name, but DBSeer-style collectors
rename, reorder, add, and drop metrics across versions.  An
:class:`AttributeFingerprint` captures the stable identity of an
attribute — its dtype class, value range, a quantile sketch (numeric),
its categorical domain (categorical), and character n-grams of its
name — so a model trained against one collector schema can be matched
against data from another.

Fingerprints are computed once per attribute at model-building time
(:func:`fingerprint_attributes`, which sketches every NaN-free numeric
column of one call in a single quantile pass — the path of
``DBSherlock.feedback``, ``harness.build_model`` and the reconciler's
data side), persisted alongside the causal model
(``core/persistence.py``), and compared at diagnosis time by the
:class:`~repro.schema.reconcile.SchemaReconciler`:

* :func:`name_similarity` — Jaccard overlap of padded character trigrams
  of the normalized names (robust to prefixes like ``v2.`` and to
  separator churn);
* :func:`value_similarity` — for numeric attributes, one minus the mean
  decile displacement relative to the larger span; for categorical
  attributes, Jaccard overlap of the observed domains.

All similarities live in [0, 1]; a kind mismatch (numeric vs
categorical) scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AttributeFingerprint",
    "fingerprint_attributes",
    "name_ngrams",
    "name_similarity",
    "value_similarity",
]

#: Number of quantile points in the numeric sketch (deciles: 0, 0.1, .. 1).
N_QUANTILES = 11

#: Largest categorical domain kept verbatim; beyond this the domain is
#: truncated (collector enums are small; unbounded domains are IDs, and
#: matching them by value would be meaningless anyway).
MAX_DOMAIN = 64


@dataclass(frozen=True)
class AttributeFingerprint:
    """Distributional identity of one telemetry attribute.

    Attributes
    ----------
    name:
        The attribute name the fingerprint was taken under (the *model's*
        vocabulary; diagnosis-time data may use a different one).
    kind:
        ``"numeric"`` or ``"categorical"``.
    n_samples:
        Valid (non-NaN) samples the sketch was computed from.
    lo / hi / quantiles:
        Numeric only: value range and an ``N_QUANTILES``-point quantile
        sketch over the valid samples (``None`` for all-NaN columns).
    domain:
        Categorical only: the observed label set (capped at
        ``MAX_DOMAIN``).
    """

    name: str
    kind: str
    n_samples: int = 0
    lo: Optional[float] = None
    hi: Optional[float] = None
    quantiles: Optional[Tuple[float, ...]] = None
    domain: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown fingerprint kind {self.kind!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls, name: str, values: Sequence[object], is_numeric: bool
    ) -> "AttributeFingerprint":
        """Fingerprint one attribute column."""
        if is_numeric:
            arr = np.asarray(values, dtype=np.float64)
            valid = arr[~np.isnan(arr)] if arr.size else arr
            if valid.size == 0:
                return cls(name=name, kind="numeric", n_samples=0)
            qs = np.quantile(valid, np.linspace(0.0, 1.0, N_QUANTILES))
            return cls(
                name=name,
                kind="numeric",
                n_samples=int(valid.size),
                lo=float(valid.min()),
                hi=float(valid.max()),
                quantiles=tuple(float(q) for q in qs),
            )
        labels = [str(v) for v in values]
        domain = frozenset(sorted(set(labels))[:MAX_DOMAIN])
        return cls(
            name=name,
            kind="categorical",
            n_samples=len(labels),
            domain=domain,
        )

    def merged(self, other: "AttributeFingerprint") -> "AttributeFingerprint":
        """Widen this fingerprint to cover both instances (model merging).

        Ranges take the hull, quantile sketches average weighted by sample
        count, categorical domains union — mirroring how Section 6.2
        widens predicates when models of the same cause merge.
        """
        if other.kind != self.kind:
            raise ValueError(
                f"cannot merge {self.kind} fingerprint with {other.kind}"
            )
        total = self.n_samples + other.n_samples
        if self.kind == "categorical":
            return AttributeFingerprint(
                name=self.name,
                kind="categorical",
                n_samples=total,
                domain=self.domain | other.domain,
            )
        if self.quantiles is None:
            return other if other.quantiles is not None else self
        if other.quantiles is None:
            return self
        wa = self.n_samples / total if total else 0.5
        qs = tuple(
            wa * a + (1.0 - wa) * b
            for a, b in zip(self.quantiles, other.quantiles)
        )
        return AttributeFingerprint(
            name=self.name,
            kind="numeric",
            n_samples=total,
            lo=min(self.lo, other.lo),  # type: ignore[type-var]
            hi=max(self.hi, other.hi),  # type: ignore[type-var]
            quantiles=qs,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-safe representation (inverse: :meth:`from_dict`)."""
        payload: Dict = {
            "name": self.name,
            "kind": self.kind,
            "n_samples": self.n_samples,
        }
        if self.kind == "numeric":
            payload["lo"] = self.lo
            payload["hi"] = self.hi
            payload["quantiles"] = (
                None if self.quantiles is None else list(self.quantiles)
            )
        else:
            payload["domain"] = sorted(self.domain)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AttributeFingerprint":
        """Inverse of :meth:`to_dict`."""
        kind = payload["kind"]
        if kind == "numeric":
            qs = payload.get("quantiles")
            return cls(
                name=payload["name"],
                kind="numeric",
                n_samples=int(payload.get("n_samples", 0)),
                lo=payload.get("lo"),
                hi=payload.get("hi"),
                quantiles=None if qs is None else tuple(float(q) for q in qs),
            )
        return cls(
            name=payload["name"],
            kind="categorical",
            n_samples=int(payload.get("n_samples", 0)),
            domain=frozenset(payload.get("domain", ())),
        )


def fingerprint_attributes(
    dataset, attrs: Optional[Sequence[str]] = None
) -> Dict[str, AttributeFingerprint]:
    """Fingerprint the named attributes of *dataset* (default: all).

    Attributes absent from the dataset are silently skipped and repeats
    are fingerprinted once, so callers can pass a model's attribute list
    directly; the result follows the order of first mention.  The
    NaN-free numeric columns are sketched together — one
    ``np.quantile(..., axis=1)`` plus one min and one max over their
    stacked matrix, each row bitwise-equal to
    :meth:`AttributeFingerprint.from_values` on that column; columns
    with NaN and categorical columns take :meth:`~AttributeFingerprint.
    from_values` one at a time.
    """
    if attrs is None:
        attrs = dataset.attributes
    names = [attr for attr in dict.fromkeys(attrs) if attr in dataset]
    numeric = [attr for attr in names if dataset.is_numeric(attr)]
    out: Dict[str, Optional[AttributeFingerprint]] = dict.fromkeys(names)
    if numeric and dataset.n_rows:
        matrix = np.asarray(
            np.stack([dataset.column(attr) for attr in numeric]),
            dtype=np.float64,
        )
        clean = ~np.isnan(matrix).any(axis=1)
        if clean.any():
            sketched = matrix[clean]
            quantiles = np.quantile(
                sketched, np.linspace(0.0, 1.0, N_QUANTILES), axis=1
            ).T.tolist()
            lows = sketched.min(axis=1).tolist()
            highs = sketched.max(axis=1).tolist()
            n_samples = int(matrix.shape[1])
            batched = [attr for attr, ok in zip(numeric, clean) if ok]
            for attr, qs, lo, hi in zip(batched, quantiles, lows, highs):
                out[attr] = AttributeFingerprint(
                    name=attr,
                    kind="numeric",
                    n_samples=n_samples,
                    lo=lo,
                    hi=hi,
                    quantiles=tuple(qs),
                )
    for attr, fingerprint in out.items():
        if fingerprint is None:
            out[attr] = AttributeFingerprint.from_values(
                attr, dataset.column(attr), dataset.is_numeric(attr)
            )
    return out  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Similarities
# ----------------------------------------------------------------------
def name_ngrams(name: str, n: int = 3) -> FrozenSet[str]:
    """Padded character n-grams of a normalized attribute name."""
    normalized = "".join(
        c if c.isalnum() else "." for c in name.lower()
    ).strip(".")
    padded = f"^{normalized}$"
    if len(padded) <= n:
        return frozenset([padded])
    return frozenset(padded[i : i + n] for i in range(len(padded) - n + 1))


def name_similarity(a: str, b: str) -> float:
    """Jaccard overlap of the names' character trigrams, in [0, 1]."""
    if a == b:
        return 1.0
    ga, gb = name_ngrams(a), name_ngrams(b)
    union = len(ga | gb)
    return len(ga & gb) / union if union else 0.0


def value_similarity(
    a: AttributeFingerprint, b: AttributeFingerprint
) -> float:
    """Distributional similarity of two fingerprints, in [0, 1].

    Numeric sketches compare by mean decile displacement relative to the
    larger span (identical columns score exactly 1); categorical domains
    by Jaccard overlap.  Kind mismatches score 0.
    """
    if a.kind != b.kind:
        return 0.0
    if a.kind == "categorical":
        union = len(a.domain | b.domain)
        return len(a.domain & b.domain) / union if union else 0.0
    if a.quantiles is None or b.quantiles is None:
        return 0.0
    qa = np.asarray(a.quantiles)
    qb = np.asarray(b.quantiles)
    span = max(a.hi - a.lo, b.hi - b.lo)  # type: ignore[operator]
    if span <= 0.0:
        # both (near-)constant: compare the constants' magnitude
        scale = max(abs(a.lo or 0.0), abs(b.lo or 0.0))
        if scale == 0.0:
            return 1.0
        return max(0.0, 1.0 - abs((a.lo or 0.0) - (b.lo or 0.0)) / scale)
    displacement = float(np.mean(np.abs(qa - qb))) / span
    return max(0.0, 1.0 - displacement)
