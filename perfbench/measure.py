"""Pure measurement helpers: percentiles with support, span self time, joins.

Nothing here imports the program under test, so the helpers are unit
tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A reported percentile needs at least this many samples ranked above it.
MIN_BEYOND = 10

#: One recorded span: ``(span_id, name, start, end, parent_id, thread,
#: request)``; ``parent_id`` is ``None`` for a root span.
Span = Tuple[int, str, float, float, Optional[int], int, object]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples rank strictly above the *q*-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The *q*-th percentile, or ``None`` when the tail is unsupported.

    A percentile is supported when at least *min_beyond* samples rank
    above it: the median needs 20 samples, p90 needs 100.
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count that supports the *q*-th percentile."""
    n = 1
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """Span duration minus the part of ``[start, end]`` its children cover.

    Children may overlap each other (worker threads run concurrently) and
    may spill past the parent; only their union inside the parent counts.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum of each span's self time, grouped by span name."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _thread, _req in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _thread, _req in spans:
        out[name] += self_time(start, end, children.get(sid, ()))
    return dict(out)


def durations_ms(spans: Sequence[Span], name: str) -> List[float]:
    """Durations, in milliseconds, of the spans named *name*."""
    return [
        (end - start) * 1e3
        for _i, n, start, end, _p, _t, _r in spans
        if n == name
    ]


def layer_of(name: str) -> str:
    """The layer of a ``layer:call`` span name."""
    return name.split(":", 1)[0]


def self_time_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer (span names grouped by :func:`layer_of`)."""
    out: Dict[str, float] = defaultdict(float)
    for name, seconds in self_time_by_name(spans).items():
        out[layer_of(name)] += seconds
    return dict(out)


def join_tick_to_cause(
    handoffs: Dict[Hashable, float],
    batches: Iterable[Tuple[float, float, Sequence[Hashable]]],
) -> List[Tuple[Hashable, float, float]]:
    """Join closed regions to the diagnosis batch that ranked them.

    *handoffs* maps a ``(tenant, region)`` key to the time its round was
    handed to the scheduler; *batches* yields ``(start, end, keys)`` per
    ``explain_batch`` call.  Returns ``(key, queue_wait, tick_to_cause)``
    for every key present in both, in batch order; a key diagnosed twice
    keeps its first batch, and keys handed off outside the measured
    rounds are skipped.
    """
    seen = set()
    out: List[Tuple[Hashable, float, float]] = []
    for start, end, keys in batches:
        for key in keys:
            handoff = handoffs.get(key)
            if handoff is None or key in seen:
                continue
            seen.add(key)
            out.append((key, start - handoff, end - handoff))
    return out
