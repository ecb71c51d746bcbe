"""Shared-representation performance layer for batch diagnosis.

The evaluation protocols (Sections 8.3/8.5) are model x dataset
cross-products: every confidence score (Equation 3) re-discretizes the
same dataset columns into the same partitions, and Algorithm 1 walks
attributes one at a time.  This package amortizes that redundancy:

``cache``     :class:`LabeledSpaceCache` — the one place attributes are
              discretized and labeled: memoized partition spaces,
              labels, region masks, and normalized region means, shared
              between predicate generation and confidence scoring
              (callers without a cache use a per-call one);
``batch``     the row kernels behind it — all numeric columns
              discretized and counted in one stacked ``np.bincount``
              pass — and the ones the generator runs for the rest of
              Algorithm 1;
``parallel``  :func:`parallel_map` — deterministic process-pool mapping
              with a serial fallback and a ``REPRO_JOBS`` override.

Every fast path is bitwise-identical to the serial seed implementation
it replaces; ``tests/test_perf_engine.py`` enforces that against the
frozen copies in ``tests/generator_oracle.py``.
"""

from repro.perf.batch import potential_power_batch
from repro.perf.cache import LabeledSpaceCache
from repro.perf.parallel import parallel_map, resolve_jobs

__all__ = [
    "LabeledSpaceCache",
    "parallel_map",
    "potential_power_batch",
    "resolve_jobs",
]
