"""Hierarchical span tracing for the diagnosis pipeline.

The pipeline explains other systems' latency; this module makes its own
latency explainable.  A *span* is one timed stage of work (``explain``,
``generate_predicates``, ``rank`` ...) recorded as a JSON-lines event
with a monotonic duration, a wall-clock start, and a parent link — so a
full traced run yields a tree whose per-stage wall times attribute every
millisecond of a diagnosis.

Design constraints (mirrors the perf layer's bitwise-equivalence bar):

* **Zero dependencies** — stdlib only; importable from every layer.
* **Allocation-free when disabled** — :func:`span` returns one shared
  no-op context manager when no recorder is installed, and
  :func:`enabled` is a single global load so hot paths can skip building
  attribute dicts entirely.  ``benchmarks/bench_obs_overhead.py`` holds
  the disabled path under 2 % on the perf-engine workload.
* **Context propagation** — the current span lives in a
  :class:`contextvars.ContextVar`, so nesting needs no plumbing, and
  :func:`current_context`/:func:`attached` carry the (trace id, span id,
  sink path) triple across :func:`repro.perf.parallel.parallel_map`
  process boundaries: worker spans append to the same JSON-lines file
  and parent onto the coordinating span.

Events are plain dicts with a fixed shape (:data:`EVENT_FIELDS`);
:func:`validate_event` is the schema check the CI obs smoke runs over
every emitted event.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "TraceRecorder",
    "span",
    "stage",
    "enabled",
    "install",
    "uninstall",
    "get_recorder",
    "recording",
    "current_context",
    "attached",
    "load_trace",
    "validate_event",
    "EVENT_FIELDS",
]

import contextvars

#: Field name → (required type(s), nullable).  The whole event schema:
#: every event carries exactly these keys (``attrs`` values are JSON
#: scalars).  ``start_s`` is wall-clock (``time.time``); ``duration_s``
#: is a monotonic (``time.perf_counter``) difference.
EVENT_FIELDS: Dict[str, Tuple[tuple, bool]] = {
    "name": ((str,), False),
    "trace_id": ((str,), False),
    "span_id": ((str,), False),
    "parent_id": ((str,), True),
    "start_s": ((float, int), False),
    "duration_s": ((float, int), False),
    "pid": ((int,), False),
    "attrs": ((dict,), False),
}

_ATTR_TYPES = (str, int, float, bool, type(None))

_CURRENT: "contextvars.ContextVar[Optional[_Context]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
_RECORDER: Optional["TraceRecorder"] = None
_IDS = itertools.count(1)


def _new_id(prefix: str = "s") -> str:
    """Process-unique id (pid-prefixed so forked workers never collide)."""
    return f"{prefix}{os.getpid():x}-{next(_IDS):x}"


class _Context:
    """A parent marker carrying just the ids (used for remote attach)."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


class _NullSpan:
    """The shared disabled-path span: enters, exits, absorbs attributes."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; use via ``with span("name", key=value):``."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_start_wall",
        "_start_mono",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        if parent is None:
            self.trace_id = _new_id("t")
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = _new_id()
        self._token = _CURRENT.set(self)
        self._start_wall = time.time()
        self._start_mono = time.perf_counter()
        return self

    def set(self, **attrs) -> "Span":
        """Attach attributes to this span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_mono
        _CURRENT.reset(self._token)
        recorder = _RECORDER
        if recorder is not None:
            if exc_type is not None:
                self.attrs["error"] = exc_type.__name__
            recorder.record(
                {
                    "name": self.name,
                    "trace_id": self.trace_id,
                    "span_id": self.span_id,
                    "parent_id": self.parent_id,
                    "start_s": self._start_wall,
                    "duration_s": duration,
                    "pid": os.getpid(),
                    "attrs": self.attrs,
                }
            )
        return False


class TraceRecorder:
    """Collects span events in memory and/or appends them as JSON lines.

    Parameters
    ----------
    path:
        Optional JSON-lines sink.  Opened in append mode on first use;
        one event per line, flushed per event, so concurrent worker
        processes (which inherit or re-open the same path) interleave at
        line granularity.
    keep:
        Keep events in :attr:`events` (default).  Workers re-opening the
        sink pass ``keep=False`` — their events live only in the file.
    """

    def __init__(
        self, path: Optional[Union[str, Path]] = None, keep: bool = True
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.keep = bool(keep)
        self.events: List[dict] = []
        self._lock = threading.Lock()
        self._fh = None

    def record(self, event: dict) -> None:
        """Store one span event (thread-safe)."""
        with self._lock:
            if self.keep:
                self.events.append(event)
            if self.path is not None:
                if self._fh is None:
                    self._fh = self.path.open("a")
                json.dump(event, self._fh, separators=(",", ":"))
                self._fh.write("\n")
                self._fh.flush()

    def close(self) -> None:
        """Close the JSON-lines sink (events already written remain)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# ----------------------------------------------------------------------
# Global recorder management
# ----------------------------------------------------------------------
def install(recorder: TraceRecorder) -> TraceRecorder:
    """Make *recorder* the process-wide span sink; returns it."""
    global _RECORDER
    _RECORDER = recorder
    return recorder


def uninstall() -> Optional[TraceRecorder]:
    """Disable tracing; returns the recorder that was installed, if any."""
    global _RECORDER
    recorder, _RECORDER = _RECORDER, None
    return recorder


def get_recorder() -> Optional[TraceRecorder]:
    """The installed recorder (``None`` when tracing is disabled)."""
    return _RECORDER


def enabled() -> bool:
    """True when spans are being recorded.

    Hot paths check this once and skip attribute-building entirely when
    disabled — the check is a single module-global load.
    """
    return _RECORDER is not None


@contextmanager
def recording(
    path: Optional[Union[str, Path]] = None, keep: bool = True
) -> Iterator[TraceRecorder]:
    """Install a fresh recorder for the duration of the block.

    The previously installed recorder (if any) is restored on exit, so
    tests and CLI runs can trace without clobbering ambient state.
    """
    global _RECORDER
    previous = _RECORDER
    recorder = TraceRecorder(path=path, keep=keep)
    _RECORDER = recorder
    try:
        yield recorder
    finally:
        _RECORDER = previous
        recorder.close()


# ----------------------------------------------------------------------
# Span creation
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """Open a span named *name*; a no-op when tracing is disabled.

    ::

        with span("generate_predicates", dataset=ds.name) as sp:
            ...
            sp.set(predicates_kept=3)
    """
    if _RECORDER is None:
        return _NULL_SPAN
    return Span(name, attrs)


def stage(name: str, duration_s: float, **attrs) -> None:
    """Record an already-measured stage as a child of the current span.

    Hot loops accumulate per-stage timings in plain floats and emit one
    synthetic span per stage afterwards — same tree, no per-iteration
    context-manager overhead.  No-op when tracing is disabled.
    """
    recorder = _RECORDER
    if recorder is None:
        return
    parent = _CURRENT.get()
    if parent is None:
        trace_id, parent_id = _new_id("t"), None
    else:
        trace_id, parent_id = parent.trace_id, parent.span_id
    recorder.record(
        {
            "name": name,
            "trace_id": trace_id,
            "span_id": _new_id(),
            "parent_id": parent_id,
            "start_s": time.time() - duration_s,
            "duration_s": float(duration_s),
            "pid": os.getpid(),
            "attrs": attrs,
        }
    )


# ----------------------------------------------------------------------
# Cross-process propagation (parallel_map workers)
# ----------------------------------------------------------------------
def current_context() -> Optional[Tuple[str, str, Optional[str]]]:
    """The (trace id, span id, sink path) triple to hand a worker.

    ``None`` when tracing is disabled or no span is open — workers then
    run untraced.
    """
    recorder = _RECORDER
    if recorder is None:
        return None
    current = _CURRENT.get()
    if current is None:
        return None
    path = str(recorder.path) if recorder.path is not None else None
    return (current.trace_id, current.span_id, path)


@contextmanager
def attached(context: Optional[Tuple[str, str, Optional[str]]]) -> Iterator[None]:
    """Adopt a parent span context produced by :func:`current_context`.

    Inside the block, new spans parent onto the remote span and — when
    the context names a sink path and no recorder is installed (a
    spawned worker) — are appended to that file.  With ``None`` the
    block runs unchanged.
    """
    global _RECORDER
    if context is None:
        yield
        return
    trace_id, span_id, path = context
    installed_here = False
    if _RECORDER is None and path is not None:
        _RECORDER = TraceRecorder(path=path, keep=False)
        installed_here = True
    token = _CURRENT.set(_Context(trace_id, span_id))
    try:
        yield
    finally:
        _CURRENT.reset(token)
        if installed_here:
            recorder, _RECORDER = _RECORDER, None
            if recorder is not None:
                recorder.close()


# ----------------------------------------------------------------------
# Event schema
# ----------------------------------------------------------------------
def validate_event(event: dict) -> None:
    """Raise ``ValueError`` unless *event* matches the span-event schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    extra = set(event) - set(EVENT_FIELDS)
    if extra:
        raise ValueError(f"unknown event fields: {sorted(extra)}")
    for field, (types, nullable) in EVENT_FIELDS.items():
        if field not in event:
            raise ValueError(f"event missing field {field!r}")
        value = event[field]
        if value is None:
            if not nullable:
                raise ValueError(f"field {field!r} must not be null")
            continue
        if not isinstance(value, types) or isinstance(value, bool):
            raise ValueError(
                f"field {field!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if event["duration_s"] < 0:
        raise ValueError("duration_s must be non-negative")
    for key, value in event["attrs"].items():
        if not isinstance(key, str):
            raise ValueError(f"attr key {key!r} must be a string")
        if not isinstance(value, _ATTR_TYPES):
            raise ValueError(
                f"attr {key!r} has non-scalar type {type(value).__name__}"
            )


def load_trace(path: Union[str, Path]) -> List[dict]:
    """Read a JSON-lines trace file (tolerating a torn final line)."""
    events: List[dict] = []
    with Path(path).open("r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail from a killed writer
    return events
