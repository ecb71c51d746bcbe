"""Benchmark-side spans around the program's public calls.

:class:`SpanRecorder` wraps callables so each call records a span:
name (``layer:call``), start, end, parent span, thread and request id.  The
parent is the innermost open span on the same thread; a span without an
explicit request id inherits its parent's.  Spans stay in memory and are
written out once, when the run ends.

:meth:`SpanRecorder.patch` swaps an attribute of an instance, class or
module for a wrapped copy and :meth:`SpanRecorder.unpatch` puts every
original back, so traced and untraced blocks of one run share the same
objects.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

from measure import Span


class SpanRecorder:
    """In-memory span sink fed by wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        request_of: Optional[Callable[..., object]] = None,
    ) -> Callable:
        """*fn* with a span named *name* recorded around every call."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if request_of is not None:
                request = request_of(*args, **kwargs)
            else:
                request = parent[1] if parent is not None else None
            sid = next(self._ids)
            stack.append((sid, request))
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(
                    (
                        sid,
                        name,
                        start,
                        end,
                        parent[0] if parent is not None else None,
                        threading.get_ident(),
                        request,
                    )
                )

        return traced

    def call(self, name: str, request: object, fn: Callable, *args):
        """Call ``fn(*args)`` inside a root span carrying *request*."""
        return self.wrap(name, fn, lambda *_a, **_k: request)(*args)

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        request_of: Optional[Callable[..., object]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a copy recording ``layer:attr`` spans
        until :meth:`unpatch`."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else original
        setattr(
            owner, attr, self.wrap(f"{layer}:{attr}", original, request_of)
        )
        self._patches.append((owner, attr, raw, own))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path: Path) -> None:
        """Write the spans, one JSON object per line, ordered by start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(dict(zip(keys, span)), default=str))
                fh.write("\n")
