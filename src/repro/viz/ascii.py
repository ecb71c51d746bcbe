"""ASCII rendering of telemetry and regions.

Everything returns plain strings (no terminal escapes) so output is safe
to log, diff, and assert on in tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = ["sparkline", "plot_series", "incident_report"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """One-line unicode sparkline of a series.

    ``width`` resamples the series to that many characters (mean pooling);
    constant series render as a flat low line.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    if width is not None and width > 0 and values.size > width:
        edges = np.linspace(0, values.size, width + 1).astype(int)
        values = np.asarray(
            [values[a:b].mean() for a, b in zip(edges[:-1], edges[1:])]
        )
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * values.size
    idx = ((values - lo) / span * (len(_SPARK_CHARS) - 1)).astype(int)
    return "".join(_SPARK_CHARS[i] for i in idx)


def plot_series(
    dataset: Dataset,
    attr: str,
    spec: Optional[RegionSpec] = None,
    width: int = 78,
    height: int = 10,
) -> str:
    """A height×width ASCII plot of one attribute over time.

    Abnormal regions (when *spec* is given) are marked with ``#`` in a
    footer strip, mirroring the shaded selection of the paper's GUI.
    """
    values = np.asarray(dataset.column(attr), dtype=np.float64)
    n = values.size
    if n == 0:
        return "(empty series)"
    width = min(width, n) if n < width else width
    edges = np.linspace(0, n, width + 1).astype(int)
    pooled = np.asarray(
        [values[a:b].mean() if b > a else values[min(a, n - 1)]
         for a, b in zip(edges[:-1], edges[1:])]
    )
    lo, hi = float(pooled.min()), float(pooled.max())
    span = hi - lo if hi > lo else 1.0
    rows = np.clip(
        ((pooled - lo) / span * (height - 1)).round().astype(int), 0, height - 1
    )
    grid = [[" "] * width for _ in range(height)]
    for x, r in enumerate(rows):
        grid[height - 1 - r][x] = "*"

    lines = [f"{attr}  (min {lo:.3g}, max {hi:.3g})"]
    for i, row in enumerate(grid):
        label = f"{hi:>9.3g} |" if i == 0 else (
            f"{lo:>9.3g} |" if i == height - 1 else " " * 10 + "|"
        )
        lines.append(label + "".join(row))
    lines.append(" " * 10 + "+" + "-" * width)

    if spec is not None:
        mask = spec.abnormal_mask(dataset)
        pooled_mask = [
            mask[a:b].any() if b > a else bool(mask[min(a, n - 1)])
            for a, b in zip(edges[:-1], edges[1:])
        ]
        strip = "".join("#" if m else " " for m in pooled_mask)
        lines.append(" " * 10 + " " + strip + "  (# = abnormal)")
    return "\n".join(lines)


def incident_report(
    dataset: Dataset,
    spec: RegionSpec,
    explanation,
    plot_attr: str = "txn.avg_latency_ms",
    max_predicates: int = 12,
) -> str:
    """A self-contained text post-mortem: plot, regions, predicates, causes."""
    lines: List[str] = [f"Incident report — {dataset.name or 'unnamed run'}"]
    lines.append("=" * max(len(lines[0]), 20))
    for region in spec.abnormal:
        lines.append(
            f"abnormal region: t = {region.start:g} .. {region.end:g} "
            f"({region.duration + 1:g} s)"
        )
    if plot_attr in dataset:
        lines.append("")
        lines.append(plot_series(dataset, plot_attr, spec))
    lines.append("")
    predicates = list(explanation.predicates)
    lines.append(f"explanatory predicates ({len(predicates)}):")
    for predicate in predicates[:max_predicates]:
        lines.append(f"  {predicate}")
    if len(predicates) > max_predicates:
        lines.append(f"  ... and {len(predicates) - max_predicates} more")
    if explanation.pruned:
        lines.append("pruned as secondary symptoms:")
        for predicate in explanation.pruned:
            lines.append(f"  {predicate}")
    if explanation.causes:
        lines.append("likely causes:")
        for cause, confidence in explanation.causes:
            lines.append(f"  {cause}: {confidence:.1%}")
    else:
        lines.append("likely causes: (no causal model above threshold)")
    return "\n".join(lines)
