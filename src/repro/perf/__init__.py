"""Shared-representation performance layer for batch diagnosis.

The evaluation protocols (Sections 8.3/8.5) are model x dataset
cross-products: every confidence score (Equation 3) re-discretizes the
same dataset columns into the same partitions, and Algorithm 1 walks
attributes one at a time.  This package amortizes that redundancy:

``cache``     :class:`LabeledSpaceCache` — memoized partition spaces,
              labels, region masks, and normalized region means, shared
              between predicate generation and confidence scoring;
``batch``     batched numeric labeling — all numeric columns discretized
              and counted in one stacked ``np.bincount`` pass — and the
              row kernels the generator runs for the rest of Algorithm 1;
``parallel``  :func:`parallel_map` — deterministic process-pool mapping
              with a serial fallback and a ``REPRO_JOBS`` override;
``golden``    frozen copies of the original serial implementations, used
              as equivalence ground truth and benchmark baselines.

Every fast path is bitwise-identical to the serial one it replaces;
``tests/test_perf_engine.py`` enforces that.
"""

from repro.perf.batch import label_numeric_batch, potential_power_batch
from repro.perf.cache import LabeledSpaceCache
from repro.perf.parallel import parallel_map, resolve_jobs

__all__ = [
    "LabeledSpaceCache",
    "label_numeric_batch",
    "parallel_map",
    "potential_power_batch",
    "resolve_jobs",
]
