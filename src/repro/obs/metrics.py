"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One global :data:`REGISTRY` (the Prometheus model, stdlib-only) backs
every counter the pipeline used to keep ad hoc — cache hits/misses,
supervisor/WAL tick counts, quarantine events, reconciliation coverage —
plus the latency histograms added by the tracing layer.  Instrumented
modules call :meth:`MetricsRegistry.counter` & co. at import time;
creation is get-or-create, so two modules naming the same metric share
one instrument and re-imports are harmless.

Exporters: :meth:`MetricsRegistry.to_prometheus` (text exposition
format) and :meth:`MetricsRegistry.to_json` / :meth:`snapshot` (plain
dicts).  :class:`TimelineRing` samples the registry into a ``Dataset``.

Single-stream instruments are label-free: distinct code paths get
distinct metric names (``repro_fleet_dropped_ticks_total`` vs
``repro_fleet_sanitized_values_total``), which also keeps the
timeline ``Dataset`` attribute list stable.  The fleet layer
(:mod:`repro.fleet.scheduler`) is the one consumer that genuinely needs
label cardinality — per-tenant lag/shed/verdict series — so
:meth:`MetricsRegistry.counter` & co. accept an optional ``labelnames``
tuple and then return a :class:`MetricFamily` whose ``labels(...)``
children are ordinary instruments exported as ``name{tenant="t42"}``.
Label-free creation is unchanged, so every pre-fleet call site behaves
identically.

The fleet failure-containment layer adds its own instrument family on
top: ``repro_fleet_diagnosis_failures_total{tenant=…}`` and
``…_retries_total`` (worker failures and their backoff retries),
``repro_fleet_deadline_misses_total{tier="soft"|"hard"}`` and
``repro_fleet_degraded_rankings_total`` (deadline tiers),
``repro_fleet_tenant_health{tenant=…}`` /
``repro_fleet_health_transitions_total{state=…}`` (the health ladder),
and ``repro_fleet_breaker_state{tenant=…}`` /
``…_breaker_opens_total`` / ``…_breaker_readmits_total`` (per-tenant
circuit breakers).  ``repro-sherlock fleet status`` renders all of them
from one :meth:`snapshot`.

The storage-durability layer (:mod:`repro.faults.fs`,
:mod:`repro.stream.durability`) publishes the ``repro_storage_*``
family: ``repro_storage_write_errors_total`` /
``…_read_errors_total`` (I/O failures and corrupt payloads observed by
persistence paths), ``…_faults_injected_total{kind=…}`` (shim faults
fired), ``…_retries_total`` (transient errors absorbed by backoff),
``…_degraded_transitions_total`` / ``…_repromotions_total`` /
``repro_storage_degraded_tenants`` (the degraded in-memory persistence
mode), ``…_volatile_ticks_total`` / ``…_volatile_dropped_total`` (the
acknowledged-but-volatile buffer), ``…_wal_corrupt_records_total``
(CRC-failed records skipped by WAL replay),
``…_checkpoint_fallbacks_total`` (generation fallbacks), plus the WAL
pressure gauges ``repro_fleet_wal_bytes{tenant=…}`` /
``repro_fleet_wal_bytes_total`` and the per-tenant
``repro_fleet_tenant_durability{tenant=…}`` mode gauge behind the
durability column of ``fleet status``.
"""

from __future__ import annotations

import json
import re
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "TimelineRing",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "FINE_BUCKETS",
    "MS_BUCKETS",
    "COUNT_BUCKETS",
]

#: Default histogram upper bounds (seconds) — spans ~1 ms to 10 s, which
#: covers everything from a single stream tick to a full suite build.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Fine-grained histogram bounds for the fleet engine: the amortized
#: per-stream tick cost target is sub-100 µs, so the default ladder's
#: 1 ms bottom bucket would swallow every observation.  The µs-scale
#: rungs are prepended to ``DEFAULT_BUCKETS`` (not substituted), so a
#: fleet histogram can still resolve the occasional slow outlier while
#: single-stream metrics keep the original bucket set untouched.
FINE_BUCKETS: Tuple[float, ...] = (
    0.000001,
    0.0000025,
    0.000005,
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
) + DEFAULT_BUCKETS

#: Millisecond-denominated ladder for instruments whose *unit* is ms
#: rather than seconds (``repro_fleet_fallout_ms``,
#: ``repro_fleet_diagnosis_lock_wait_ms``): spans 1 µs to 10 s expressed
#: in milliseconds, so a storm tick that batches thousands of fallout
#: streams and a single sub-millisecond lock wait both land in a
#: resolvable bucket.
MS_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)

#: Cardinality ladder for histograms that count things per event (how
#: many streams fell out of the vectorized path this tick) instead of
#: timing them.  Powers-of-roughly-ten up to 100k tenants.
COUNT_BUCKETS: Tuple[float, ...] = (
    0.0,
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
    25000.0,
    50000.0,
    100000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _render_labels(labelnames: Sequence[str], values: Sequence[str]) -> str:
    return ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, values)
    )


class Counter:
    """Monotonically increasing count (resets only via registry reset)."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A value that can go up and down (coverage, resident bytes, ...)."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Fixed-bucket histogram of observations (cumulative, Prometheus-style)."""

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_exemplar", "_lock")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._exemplar: Optional[Tuple[float, str]] = None
        self._lock = threading.Lock()

    def observe(
        self, value: Union[int, float], exemplar: Optional[str] = None
    ) -> None:
        value = float(value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None and (
                self._exemplar is None or value >= self._exemplar[0]
            ):
                self._exemplar = (value, exemplar)

    @property
    def exemplar(self) -> Optional[Tuple[float, str]]:
        """``(value, trace_id)`` of the worst exemplar-tagged observation."""
        return self._exemplar

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative (upper bound, count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out

    def _reset(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._exemplar = None


class MetricFamily:
    """A labeled metric: one name, one child instrument per label-value set.

    Children are created lazily by :meth:`labels` (get-or-create, like
    the registry itself) and are plain :class:`Counter` /
    :class:`Gauge` / :class:`Histogram` instances, so call sites hold a
    child handle and pay zero per-observation label cost.  Exporters
    render each child as ``name{label="value"}``.
    """

    __slots__ = ("name", "help", "labelnames", "_cls", "_kwargs",
                 "_children", "_rendered", "_lock")

    def __init__(self, cls, name: str, help: str,
                 labelnames: Sequence[str], **kwargs) -> None:
        labelnames = tuple(labelnames)
        if not labelnames:
            raise ValueError(f"metric family {name!r} needs label names")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._cls = cls
        self._kwargs = kwargs
        self._children: Dict[Tuple[str, ...], object] = {}
        self._rendered: Dict[Tuple[str, ...], str] = {}
        self._lock = threading.Lock()

    @property
    def kind(self) -> str:
        return self._cls.kind

    def labels(self, *values, **kv):
        """The child instrument for one label-value combination."""
        if values and kv:
            raise ValueError("pass label values positionally or by name")
        if kv:
            if set(kv) != set(self.labelnames):
                raise ValueError(
                    f"family {self.name!r} expects labels "
                    f"{self.labelnames}, got {sorted(kv)}"
                )
            values = tuple(str(kv[name]) for name in self.labelnames)
        else:
            if len(values) != len(self.labelnames):
                raise ValueError(
                    f"family {self.name!r} expects "
                    f"{len(self.labelnames)} label values"
                )
            values = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._cls(self.name, self.help, **self._kwargs)
                self._children[values] = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label values, child)`` pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())

    def rendered_children(self) -> List[Tuple[str, Tuple[str, ...], object]]:
        """``(rendered name, label values, child)``, sorted by values.

        The rendered ``name{label="value"}`` string for each child is
        cached on first use — label values are immutable once a child
        exists, so :meth:`MetricsRegistry.flat_sample` callers (the
        per-round timeline ring) never pay the f-string cost twice.
        """
        with self._lock:
            out = []
            for values in sorted(self._children):
                rendered = self._rendered.get(values)
                if rendered is None:
                    rendered = (
                        f"{self.name}{{"
                        f"{_render_labels(self.labelnames, values)}}}"
                    )
                    self._rendered[values] = rendered
                out.append((rendered, values, self._children[values]))
            return out

    def _reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child._reset()


class TimelineRing:
    """A bounded ring of flat registry samples — retained metric history.

    DBSherlock diagnoses databases from per-second telemetry counters,
    and the registry *is* a set of telemetry counters — about the
    diagnosis pipeline itself.  The ring closes that loop: sample it on
    a fixed cadence and :meth:`to_dataset` turns the samples into a
    :class:`~repro.data.dataset.Dataset` that ``DBSherlock.explain`` and
    the streaming detector can run on (a cache knocked out mid-run shows
    up as a miss-rate step).  Memory is fixed (``max_samples``), and
    timestamps are monotonicized: two callers sampling "at the same
    time" advance by ``interval`` instead of raising.  :meth:`window`
    feeds incident bundles, and :meth:`from_samples` rebuilds a ring
    from a bundle's stored samples.
    """

    def __init__(
        self,
        registry: Optional["MetricsRegistry"],
        max_samples: int = 512,
        interval: float = 1.0,
    ) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.registry = registry
        self.interval = float(interval)
        self._samples: "deque[Tuple[float, Dict[str, float]]]" = deque(
            maxlen=int(max_samples)
        )
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[Tuple[float, Dict[str, float]]],
        kinds: Optional[Dict[str, str]] = None,
        interval: float = 1.0,
    ) -> "TimelineRing":
        """A registry-less ring of stored ``(t, row)`` samples (an
        incident bundle's ``timeline.json``) that :meth:`to_dataset`
        treats as live ones.  Stored times must strictly advance — a
        file whose times do not is damaged — so this raises
        ``ValueError`` instead of monotonicizing them."""
        ring = cls(None, max(1, len(samples)), interval)
        for t, row in samples:
            t = float(t)
            if ring._samples and t <= ring._samples[-1][0]:
                raise ValueError(
                    f"sample time {t} does not advance past "
                    f"{ring._samples[-1][0]}"
                )
            ring._samples.append((t, dict(row)))
        ring._kinds.update(kinds or {})
        return ring

    def sample(self, t: Optional[float] = None) -> float:
        """Append one flat registry sample; returns the stamped time."""
        row, kinds = self.registry.flat_sample()  # type: ignore[union-attr]
        with self._lock:
            last = self._samples[-1][0] if self._samples else None
            if t is None:
                t = 0.0 if last is None else last + self.interval
            t = float(t)
            if last is not None and t <= last:
                t = last + self.interval
            self._samples.append((t, row))
            for name, kind in kinds.items():
                self._kinds.setdefault(name, kind)
        return t

    def window(self, n: Optional[int] = None) -> List[Tuple[float, Dict[str, float]]]:
        """The trailing *n* samples (all of them when ``n`` is ``None``)."""
        with self._lock:
            samples = list(self._samples)
        if n is not None:
            samples = samples[-int(n):]
        return samples

    def kinds(self) -> Dict[str, str]:
        """Attribute → metric kind for every attribute ever sampled."""
        with self._lock:
            return dict(self._kinds)

    def to_dataset(
        self,
        rates: bool = True,
        name: str = "obs-telemetry",
        attributes: Optional[Sequence[str]] = None,
    ):
        """The retained samples as a :class:`~repro.data.dataset.Dataset`.

        With ``rates`` (default), counters and histogram ``_count`` /
        ``_sum`` series become per-interval deltas stamped at the later
        sample — Equation 4's sliding medians expect level shifts, and a
        monotone cumulative series would look anomalous forever — so
        ``n`` samples yield ``n - 1`` rows; gauges take the later
        sample's level.  Metrics registered mid-timeline are backfilled
        with zeros.
        """
        from repro.data.dataset import Dataset

        samples = self.window()
        kinds = self.kinds()
        if rates:
            if len(samples) < 2:
                raise ValueError("rates need at least two samples")
        elif not samples:
            raise ValueError("the timeline has no samples")
        attrs = (
            list(attributes)
            if attributes is not None
            else sorted({a for _t, row in samples for a in row})
        )
        rows = [row for _t, row in samples]

        def cumulative(a: str) -> bool:
            # counters and histogram count/sum series accumulate
            if a in kinds:
                return kinds[a] == "counter"
            base, _, suffix = a.rpartition("_")
            return suffix in ("count", "sum") and kinds.get(base) == "histogram"

        if not rates:
            numeric = {a: [row.get(a, 0.0) for row in rows] for a in attrs}
            return Dataset([t for t, _ in samples], numeric=numeric, name=name)
        numeric = {
            a: (
                [
                    now.get(a, 0.0) - before.get(a, 0.0)
                    for before, now in zip(rows, rows[1:])
                ]
                if cumulative(a)
                else [row.get(a, 0.0) for row in rows[1:]]
            )
            for a in attrs
        }
        return Dataset([t for t, _ in samples[1:]], numeric=numeric, name=name)

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()
            self._kinds.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


class MetricsRegistry:
    """Name → instrument map with get-or-create semantics and exporters."""

    def __init__(self) -> None:
        self._metrics: Dict[
            str, Union[Counter, Gauge, Histogram, MetricFamily]
        ] = {}
        self._timelines: Dict[str, TimelineRing] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self,
        cls,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        **kwargs,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if labelnames:
                    if (
                        not isinstance(existing, MetricFamily)
                        or existing._cls is not cls
                        or existing.labelnames != labelnames
                    ):
                        raise TypeError(
                            f"metric {name!r} already registered with a "
                            f"different kind or label set"
                        )
                    return existing
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            if labelnames:
                metric = MetricFamily(cls, name, help, labelnames, **kwargs)
            else:
                metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Union[Counter, MetricFamily]:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Union[Gauge, MetricFamily]:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Union[Histogram, MetricFamily]:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(
        self, name: str
    ) -> Optional[Union[Counter, Gauge, Histogram, MetricFamily]]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def timeline(
        self, key: str, max_samples: int = 512, interval: float = 1.0
    ) -> TimelineRing:
        """Get-or-create the named retained-sample ring."""
        with self._lock:
            ring = self._timelines.get(key)
            if ring is None:
                ring = TimelineRing(self, max_samples, interval)
                self._timelines[key] = ring
            return ring

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid); retained
        timeline rings and histogram exemplars clear too, so benches and
        tests that share the process registry stay isolated."""
        with self._lock:
            metrics = list(self._metrics.values())
            rings = list(self._timelines.values())
        for metric in metrics:
            metric._reset()
        # Rings sample the registry under their own lock; clearing them
        # outside the registry lock avoids a lock-order inversion with a
        # concurrent ring.sample().
        for ring in rings:
            ring.clear()

    def flat_sample(self) -> Tuple[Dict[str, float], Dict[str, str]]:
        """One flat ``attribute → float`` row plus attribute kinds.

        The flat, fast-path sibling of :meth:`snapshot`: counters and
        gauges contribute their value, histograms contribute
        ``<name>_count``/``<name>_sum``
        (no bucket vectors are materialised), families expand to their
        rendered per-label names.  Cheap enough for per-round sampling.
        """
        row: Dict[str, float] = {}
        kinds: Dict[str, str] = {}
        for name, metric, _labels in self._iter_instruments():
            if isinstance(metric, Histogram):
                row[name + "_count"] = float(metric.count)
                row[name + "_sum"] = float(metric.sum)
                kinds[name] = "histogram"
            else:
                row[name] = float(metric.value)
                kinds[name] = metric.kind
        return row, kinds

    def _iter_instruments(self):
        """Yield ``(rendered name, instrument, labels dict | None)``.

        Families expand to one entry per child, rendered as
        ``name{label="value"}``; plain instruments pass through.
        """
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, MetricFamily):
                for rendered, values, child in metric.rendered_children():
                    yield rendered, child, dict(
                        zip(metric.labelnames, values)
                    )
            else:
                yield name, metric, None

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Current values as plain dicts, keyed by (rendered) metric name.

        Family children appear under their rendered ``name{k="v"}`` key
        and additionally carry a ``"labels"`` dict so consumers (the
        ``fleet status`` CLI) can group per-tenant series without
        parsing the rendered name.
        """
        out: Dict[str, dict] = {}
        for name, metric, labels in self._iter_instruments():
            if isinstance(metric, Histogram):
                entry = {
                    "kind": "histogram",
                    "help": metric.help,
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": [
                        [bound, count] for bound, count in metric.bucket_counts()
                    ],
                }
                exemplar = metric.exemplar
                if exemplar is not None:
                    entry["exemplar"] = {
                        "value": exemplar[0],
                        "trace_id": exemplar[1],
                    }
            else:
                entry = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "value": metric.value,
                }
            if labels is not None:
                entry["labels"] = labels
            out[name] = entry
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """Snapshot serialized as JSON (``inf`` bucket bound → ``"+Inf"``)."""
        snap = self.snapshot()
        for entry in snap.values():
            if entry["kind"] == "histogram":
                entry["buckets"] = [
                    ["+Inf" if bound == float("inf") else bound, count]
                    for bound, count in entry["buckets"]
                ]
        return json.dumps(snap, indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, MetricFamily):
                for values, child in metric.children():
                    label_body = _render_labels(metric.labelnames, values)
                    if isinstance(child, Histogram):
                        for bound, count in child.bucket_counts():
                            le = "+Inf" if bound == float("inf") else _fmt(bound)
                            lines.append(
                                f'{name}_bucket{{{label_body},le="{le}"}} '
                                f"{count}"
                            )
                        lines.append(
                            f"{name}_sum{{{label_body}}} {_fmt(child.sum)}"
                        )
                        lines.append(
                            f"{name}_count{{{label_body}}} {child.count}"
                        )
                    else:
                        lines.append(
                            f"{name}{{{label_body}}} {_fmt(child.value)}"
                        )
            elif isinstance(metric, Histogram):
                for bound, count in metric.bucket_counts():
                    le = "+Inf" if bound == float("inf") else _fmt(bound)
                    lines.append(f'{name}_bucket{{le="{le}"}} {count}')
                lines.append(f"{name}_sum {_fmt(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_fmt(metric.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render a float the Prometheus way: integers without a trailing .0."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: The process-wide registry every pipeline module registers against.
REGISTRY = MetricsRegistry()
