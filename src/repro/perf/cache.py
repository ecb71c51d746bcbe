"""LabeledSpaceCache: the shared partition-space representation.

Ranking K causal models over one anomaly (Equation 3) labels the same
dataset columns into the same partitions once per predicate occurrence —
O(models x predicates) redundant discretizations.  This cache is the one
place an attribute is discretized and labeled, for predicate generation
(Algorithm 1) and for confidence scoring alike.  It memoizes, per
``(dataset, region-spec, attribute, n_partitions)``:

* the partition space (numeric or categorical) and its initial labels,
  built on a miss by :meth:`LabeledSpaceCache.entries_batch`;
* the Section 4.3 filtered labels (written by the predicate generator's
  batched pass, or by :meth:`LabeledAttribute.filtered_labels` on first
  request);
* the Section 4.4 gap-filled labels and Abnormal blocks, per
  ``(δ, normal-mean partition)`` (written by the generator's pass);
* the partition representatives and the Abnormal/Normal partition views
  Equation 3 evaluates on (on first request),

plus, keyed per ``(dataset, region-spec)``, the abnormal/normal row masks
and, per ``(dataset, region-spec, attribute)``, the normalized region
means of the θ gate (published by the generator).  Callers without a
long-lived cache use a per-call one, whose entries die with the call.

Keying and invalidation
-----------------------
Datasets are keyed by identity (``id``) and held via ``weakref`` so that
entries are evicted automatically when a dataset is garbage-collected;
region specs are keyed *structurally* (their interval bounds), so two
equal specs share entries.  Datasets are treated as immutable — call
:meth:`LabeledSpaceCache.invalidate` after mutating one in place.  Cached
label arrays are shared with callers and must not be written to.

Concurrency
-----------
The tables are split across ``_N_SHARDS`` (16) lock-striped shards
keyed by the hash of the full entry key, so concurrent diagnosis workers
(:mod:`repro.fleet.scheduler` at ``diagnose_jobs > 1``) contend only
when they touch the same shard.  The *hit* path takes no lock at all: a
shard's tables are plain dicts read with one atomic ``dict.get``, and
every published value is immutable-by-convention, so a reader either
sees the complete entry or misses.  Writers compute off-lock, then
check-then-publish under the shard lock (first writer wins; losers
return the winner's entry so sharing semantics are preserved).

Weakref eviction is *deferred*: a dataset's GC callback — which CPython
may fire at any bytecode boundary, including while this very thread is
inside a shard lock — only appends the dead token to a pending list
(``list.append`` is atomic and allocation-free enough for GC context).
The actual table mutation happens at the next cache entry point, under
the proper locks, which is what fixes the historical
``RuntimeError: dictionary changed size during iteration`` from the
callback racing ``stats()`` / ``get()``.  ``hits``/``misses`` are
per-shard best-effort counters: exact when unshared (every existing
test), monotone and at-most-slightly-under under contention.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics

__all__ = ["LabeledAttribute", "LabeledSpaceCache", "build_region_partitions"]

_UNSET = object()

#: lock stripes per cache
_N_SHARDS = 16

_CACHE_HITS = metrics.REGISTRY.counter(
    "repro_cache_hits_total", "Labeled-space cache hits"
)
_CACHE_MISSES = metrics.REGISTRY.counter(
    "repro_cache_misses_total", "Labeled-space cache misses"
)
_CACHE_EVICTIONS = metrics.REGISTRY.counter(
    "repro_cache_evictions_total",
    "Labeled-space cache entries dropped by eviction or invalidation",
)
_CACHE_RESIDENT_BYTES = metrics.REGISTRY.gauge(
    "repro_cache_resident_bytes",
    "Bytes held by cached label arrays (refreshed on stats()/resident_bytes())",
)


class LabeledAttribute:
    """One attribute's labeled partition space, with lazy derived forms."""

    __slots__ = (
        "attr",
        "is_numeric",
        "space",
        "labels_initial",
        "_labels_filtered",
        "_representatives",
        "_regions_filtered",
        "_regions_initial",
        "_filled",
    )

    def __init__(self, attr, is_numeric, space, labels_initial) -> None:
        self.attr = attr
        self.is_numeric = is_numeric
        self.space = space
        self.labels_initial = labels_initial
        self._labels_filtered: Optional[np.ndarray] = None
        self._representatives: Optional[np.ndarray] = None
        self._regions_filtered = _UNSET
        self._regions_initial = _UNSET
        self._filled: Dict[tuple, Tuple[np.ndarray, list]] = {}

    def filtered_labels(self) -> np.ndarray:
        """Section 4.3 filtered labels (categorical spaces are never filtered)."""
        if self._labels_filtered is None:
            if self.is_numeric:
                from repro.core.filtering import filter_partitions

                self._labels_filtered = filter_partitions(self.labels_initial)
            else:
                self._labels_filtered = self.labels_initial
        return self._labels_filtered

    def representatives(self) -> np.ndarray:
        """Per-partition representative values (midpoints / categories)."""
        if self._representatives is None:
            if self.is_numeric:
                self._representatives = self.space.midpoints()
            else:
                self._representatives = np.asarray(
                    self.space.categories, dtype=object
                )
        return self._representatives

    def region_partitions(self, apply_filtering: bool = True):
        """Representatives and counts of the Abnormal/Normal partitions.

        Returns ``(reps_abnormal, reps_normal, n_abnormal, n_normal)``, or
        ``None`` when either region has no labeled partitions.  Evaluating
        a predicate on just these subsets yields the exact same satisfied
        counts as masking a full-space evaluation, so the Equation 3 term
        is bitwise-identical while touching far fewer partitions.
        """
        slot = "_regions_filtered" if apply_filtering else "_regions_initial"
        if getattr(self, slot) is _UNSET:
            build_region_partitions([self], apply_filtering)
        return getattr(self, slot)


def build_region_partitions(
    entries: Sequence[LabeledAttribute], apply_filtering: bool = True
) -> None:
    """Build the missing :meth:`LabeledAttribute.region_partitions` views.

    Numeric entries take one pass: stacked (Empty-padded) label rows,
    every row's midpoints from one expression with the per-element
    operations of :meth:`NumericPartitionSpace.midpoints` (so
    bitwise-equal), and one boolean gather per region.
    """
    from repro.core.partition import Label

    slot = "_regions_filtered" if apply_filtering else "_regions_initial"
    todo = [e for e in dict.fromkeys(entries) if getattr(e, slot) is _UNSET]
    labels = {
        e: e.filtered_labels() if apply_filtering else e.labels_initial
        for e in todo
    }
    views = {}
    numeric = [e for e in todo if e.is_numeric]
    if numeric:
        width = max(labels[e].shape[0] for e in numeric)
        grid = np.full((len(numeric), width), int(Label.EMPTY), dtype=np.int64)
        for row, entry in enumerate(numeric):
            grid[row, : labels[entry].shape[0]] = labels[entry]
        minimum = np.array([e.space.minimum for e in numeric])[:, None]
        step = np.array([e.space.width for e in numeric])[:, None]
        reps = (minimum + np.arange(width, dtype=np.float64) * step) + step / 2.0
        reps = np.where(step == 0, minimum, reps)
        for label in (Label.ABNORMAL, Label.NORMAL):
            mask = grid == int(label)
            ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
            gathered = reps[mask]
            for entry, start, end in zip(numeric, [0] + ends[:-1], ends):
                views.setdefault(entry, []).append(gathered[start:end])
    for entry in todo:
        if entry.is_numeric:
            abnormal, normal = views[entry]
        else:
            reps = entry.representatives()
            abnormal = reps[labels[entry] == int(Label.ABNORMAL)]
            normal = reps[labels[entry] == int(Label.NORMAL)]
        setattr(
            entry, slot,
            (abnormal, normal, abnormal.size, normal.size)
            if abnormal.size and normal.size
            else None,
        )


def _spec_key(spec) -> tuple:
    """Structural key of a RegionSpec: its interval bounds."""
    normal = (
        None
        if spec.normal is None
        else tuple((r.start, r.end) for r in spec.normal)
    )
    return (tuple((r.start, r.end) for r in spec.abnormal), normal)


class _Shard:
    """One lock stripe: its own tables, lock, and hit/miss counters."""

    __slots__ = ("lock", "entries", "masks", "norm_means", "hits", "misses")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: Dict[tuple, LabeledAttribute] = {}
        self.masks: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self.norm_means: Dict[tuple, Tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0


class LabeledSpaceCache:
    """Memoized partition spaces, labels, masks, and region statistics."""

    def __init__(self) -> None:
        self._shards = tuple(_Shard() for _ in range(_N_SHARDS))
        self._reg_lock = threading.Lock()
        self._dataset_refs: Dict[int, Optional[weakref.ref]] = {}
        self._by_dataset: Dict[int, set] = {}
        #: tokens whose dataset died; drained at the next entry point.
        self._pending: List[int] = []
        self.evictions = 0

    # ------------------------------------------------------------------
    # Counters (summed across shards; settable only via clear())
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self._shards)

    def _shard_of(self, key: tuple) -> _Shard:
        return self._shards[hash(key) % _N_SHARDS]

    # ------------------------------------------------------------------
    # Keying and eviction
    # ------------------------------------------------------------------
    def _token(self, dataset) -> int:
        self._reap()
        token = id(dataset)
        stored = self._dataset_refs.get(token, _UNSET)
        if stored is not _UNSET:
            if stored is None or stored() is dataset:
                return token
            # id() reuse: the old dataset died (its eviction is pending or
            # its callback never ran) and this token now names a new one.
            self._evict_now(token)
        with self._reg_lock:
            if token not in self._dataset_refs:
                try:
                    self._dataset_refs[token] = weakref.ref(
                        dataset,
                        # GC context: only an atomic append, never a table
                        # mutation (see module docstring).
                        lambda _ref, t=token: self._pending.append(t),
                    )
                except TypeError:  # un-weakref-able object: no auto-eviction
                    self._dataset_refs[token] = None
                self._by_dataset[token] = set()
        return token

    def _register(self, token: int, table: str, keys) -> bool:
        """Record *keys* against their dataset; False if it was evicted."""
        with self._reg_lock:
            members = self._by_dataset.get(token)
            if members is None:
                return False
            members.update((table, key) for key in keys)
            return True

    def _reap(self) -> None:
        """Drain pending weakref deaths under the proper locks."""
        while self._pending:
            try:
                token = self._pending.pop()
            except IndexError:
                break
            stored = self._dataset_refs.get(token, _UNSET)
            if stored is _UNSET:
                continue  # already evicted (invalidate/clear/reuse guard)
            if stored is not None and stored() is not None:
                continue  # token reused by a live dataset; already handled
            self._evict_now(token)

    def _evict_now(self, token: int) -> None:
        with self._reg_lock:
            keys = self._by_dataset.pop(token, ())
            self._dataset_refs.pop(token, None)
        evicted = 0
        for table, key in keys:
            shard = self._shard_of(key)
            with shard.lock:
                if getattr(shard, table).pop(key, None) is not None:
                    evicted += 1
        if evicted:
            with self._reg_lock:
                self.evictions += evicted
            _CACHE_EVICTIONS.inc(evicted)

    def invalidate(self, dataset=None) -> None:
        """Drop entries for *dataset* (all entries when omitted)."""
        self._reap()
        if dataset is None:
            self.clear()
        else:
            self._evict_now(id(dataset))

    def clear(self) -> None:
        """Drop every entry and zero the counters.

        A cleared cache reads as a fresh one: ``stats()`` afterwards
        reports zeros, not the totals of a previous lifetime.  (The
        process-wide obs counters are cumulative and unaffected.)
        """
        self._reap()
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                dropped += (
                    len(shard.entries)
                    + len(shard.masks)
                    + len(shard.norm_means)
                )
                shard.entries.clear()
                shard.masks.clear()
                shard.norm_means.clear()
                shard.hits = 0
                shard.misses = 0
        with self._reg_lock:
            self._dataset_refs.clear()
            self._by_dataset.clear()
            del self._pending[:]
            self.evictions = 0
        if dropped:
            _CACHE_EVICTIONS.inc(dropped)

    def resident_bytes(self) -> int:
        """Bytes held by cached arrays (labels, derived forms, masks)."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                entries = list(shard.entries.values())
                mask_values = list(shard.masks.values())
            for entry in entries:
                total += entry.labels_initial.nbytes
                if entry._labels_filtered is not None and (
                    entry._labels_filtered is not entry.labels_initial
                ):
                    total += entry._labels_filtered.nbytes
                if entry._representatives is not None:
                    total += entry._representatives.nbytes
                for filled, _blocks in list(entry._filled.values()):
                    total += filled.nbytes
            for abnormal, normal in mask_values:
                total += abnormal.nbytes + normal.nbytes
        _CACHE_RESIDENT_BYTES.set(total)
        return total

    def stats(self) -> Dict[str, int]:
        """Observable cache state, for tests and bench reports."""
        self._reap()
        n_entries = n_masks = 0
        for shard in self._shards:
            with shard.lock:
                n_entries += len(shard.entries)
                n_masks += len(shard.masks)
        with self._reg_lock:
            datasets = len(self._by_dataset)
            evictions = self.evictions
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": evictions,
            "entries": n_entries,
            "mask_entries": n_masks,
            "datasets": datasets,
            "shards": _N_SHARDS,
            "resident_bytes": self.resident_bytes(),
        }

    # ------------------------------------------------------------------
    # Cached computations
    # ------------------------------------------------------------------
    def _publish_many(self, table: str, items: dict) -> dict:
        """Check-then-publish ``{key: value}``; every key starts with its
        dataset token.

        One lock round-trip per shard touched and one registration per
        dataset.  Returns ``{key: winning value}``.
        """
        by_shard: Dict[int, list] = {}
        for key in items:
            by_shard.setdefault(hash(key) % _N_SHARDS, []).append(key)
        winners = dict(items)
        fresh: Dict[int, list] = {}
        for index, keys in by_shard.items():
            shard = self._shards[index]
            mapping = getattr(shard, table)
            with shard.lock:
                for key in keys:
                    existing = mapping.get(key)
                    if existing is not None:
                        winners[key] = existing
                    else:
                        mapping[key] = items[key]
                        fresh.setdefault(key[0], []).append(key)
        for token, keys in fresh.items():
            if not self._register(token, table, keys):
                # the dataset was evicted between compute and publish: keep
                # the values for the caller but leave no orphans behind
                for key in keys:
                    shard = self._shard_of(key)
                    with shard.lock:
                        getattr(shard, table).pop(key, None)
        return winners

    def masks(self, dataset, spec) -> Tuple[np.ndarray, np.ndarray]:
        """The (abnormal, normal) row masks of *spec* on *dataset*."""
        token = self._token(dataset)
        key = (token, _spec_key(spec))
        shard = self._shard_of(key)
        cached = shard.masks.get(key)  # lock-free hit path
        if cached is not None:
            shard.hits += 1
            _CACHE_HITS.inc()
            return cached
        shard.misses += 1
        _CACHE_MISSES.inc()
        computed = spec.masks(dataset)
        return self._publish_many("masks", {key: computed})[key]

    def entries(
        self,
        dataset,
        spec,
        attrs: Sequence[str],
        n_partitions: int,
    ) -> Dict[str, LabeledAttribute]:
        """Labeled spaces for *attrs*, batch-computing the missing ones."""
        return self.entries_batch([(dataset, spec, attrs)], n_partitions)[0]

    def entries_batch(
        self,
        requests: Sequence[tuple],
        n_partitions: int,
    ) -> List[Dict[str, LabeledAttribute]]:
        """:meth:`entries` for many ``(dataset, spec, attrs)`` requests.

        The missing numeric attributes of every request are labeled
        together: one :func:`~repro.perf.batch.label_rows_batch` call per
        row count, each row with its own anomaly's region masks.
        """
        from repro.core.partition import (
            CategoricalPartitionSpace,
            NumericPartitionSpace,
        )
        from repro.perf.batch import label_rows_batch

        results: List[Dict[str, LabeledAttribute]] = []
        # row count -> [(found, token, skey, dataset, attrs, masks)]
        groups: Dict[int, list] = {}
        # (found, token, skey, attrs) whose computed entries await publishing
        fresh: List[tuple] = []
        for dataset, spec, attrs in requests:
            token = self._token(dataset)
            skey = _spec_key(spec)
            found: Dict[str, LabeledAttribute] = {}
            results.append(found)
            missing_numeric: List[str] = []
            missing_categorical: List[str] = []
            n_hits = 0
            for attr in attrs:
                key = (token, skey, attr, int(n_partitions))
                entry = self._shard_of(key).entries.get(key)  # lock-free
                if entry is not None:
                    n_hits += 1
                    found[attr] = entry
                elif dataset.is_numeric(attr):
                    missing_numeric.append(attr)
                else:
                    missing_categorical.append(attr)
            if n_hits:
                # batch the counter updates: one inc per request, not per attr
                self._shard_of((token, skey)).hits += n_hits
                _CACHE_HITS.inc(n_hits)
            if not (missing_numeric or missing_categorical):
                continue
            n_missing = len(missing_numeric) + len(missing_categorical)
            self._shard_of((token, skey)).misses += n_missing
            _CACHE_MISSES.inc(n_missing)
            abnormal, normal = self.masks(dataset, spec)
            if missing_numeric:
                groups.setdefault(abnormal.shape[0], []).append(
                    (found, token, skey, dataset, missing_numeric,
                     abnormal, normal)
                )
            for attr in missing_categorical:
                values = dataset.column(attr)
                space = CategoricalPartitionSpace(attr, values)
                labels = space.label(values, abnormal, normal)
                found[attr] = LabeledAttribute(attr, False, space, labels)
            fresh.append((found, token, skey, missing_categorical))
        for group in groups.values():
            matrix = np.stack(
                [
                    dataset.column(attr)
                    for _, _, _, dataset, attrs, _, _ in group
                    for attr in attrs
                ]
            )
            # each row labels with its own anomaly's region masks
            counts = [len(item[4]) for item in group]
            abnormal, normal = (
                np.repeat(np.stack([item[k] for item in group]), counts, axis=0)
                for k in (5, 6)
            )
            mins, maxs, labels = label_rows_batch(
                matrix, abnormal, normal, n_partitions
            )
            mins, maxs = mins.tolist(), maxs.tolist()
            row = 0
            for found, token, skey, _, attrs, _, _ in group:
                for attr in attrs:
                    space = NumericPartitionSpace.from_stats(
                        attr, mins[row], maxs[row], n_partitions
                    )
                    found[attr] = LabeledAttribute(
                        attr, True, space,
                        labels[row, : space.n_partitions].copy(),
                    )
                    row += 1
                fresh.append((found, token, skey, attrs))
        n = int(n_partitions)
        winners = self._publish_many(
            "entries",
            {
                (token, skey, attr, n): found[attr]
                for found, token, skey, attrs in fresh
                for attr in attrs
            },
        )
        for found, token, skey, attrs in fresh:
            for attr in attrs:
                found[attr] = winners[(token, skey, attr, n)]
        return results

    def peek_norm_means(
        self, dataset, spec, attrs: Sequence[str]
    ) -> Dict[str, Tuple[float, float]]:
        """Bulk lock-free lookup of cached normalized-means pairs.

        Returns the subset of *attrs* whose means are already published;
        counts neither hits nor misses.  The predicate generator
        prefetches a whole attribute list this way and computes the
        residue in one batch (:meth:`publish_normalized_means`).
        """
        token = id(dataset)
        skey = _spec_key(spec)
        found: Dict[str, Tuple[float, float]] = {}
        for attr in attrs:
            key = (token, skey, attr)
            means = self._shard_of(key).norm_means.get(key)
            if means is not None:
                found[attr] = means
        return found

    def publish_normalized_means(self, requests: Sequence[tuple]) -> None:
        """Publish ``(dataset, spec, {attr: (µA, µN)})`` batch results.

        The predicate generator computes the missing pairs of a whole
        batch in one :func:`~repro.perf.batch.normalized_means_batch`
        pass per row count; each pair equals ``region_means(
        normalize_values(column), abnormal, normal)`` of
        :mod:`repro.core.separation`, which Equation 2 runs on rows (so the
        key has no ``n_partitions``).  Counts one miss per pair; first
        writer wins per key.
        """
        items = {}
        for dataset, spec, means in requests:
            token = self._token(dataset)
            skey = _spec_key(spec)
            self._shard_of((token, skey)).misses += len(means)
            _CACHE_MISSES.inc(len(means))
            for attr, pair in means.items():
                items[(token, skey, attr)] = tuple(pair)
        self._publish_many("norm_means", items)
