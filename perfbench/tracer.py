"""Span tracing from outside the program under test.

The benchmark measures each layer by wrapping that layer's public entry
points (bound methods on the live objects of a built deployment) with a
recording shim.  Nothing inside ``src/`` is modified: a wrapper is an
instance attribute shadowing the class method, so the program's own
``self.method(...)`` calls go through it too.

Each wrapped call is a span ``(name, start_ns, end_ns, parent)``.  Self
time is a span's duration minus the time covered by its direct children,
so the self times of every span in a run add up to the summed duration
of the root spans; what is left of the traced wall time is the
benchmark's own loop, reported as ``unattributed``.

Self times are aggregated online (a long traced run makes millions of
spans); the first ``keep`` spans are also kept verbatim so they can be
written out and re-checked with :func:`self_times`.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One finished span: (name, start_ns, end_ns, parent index or -1).
Span = Tuple[str, int, int, int]


class Tracer:
    """Records spans and per-name call counts and self times."""

    enabled = True

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep: int = 20000):
        self.clock = clock
        self.keep = keep
        #: The first ``keep`` spans, in start order (parents point back).
        self.spans: List[Optional[Span]] = []
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.root_ns = 0
        # Open spans: [name, start, child_ns, kept-index].
        self._stack: List[list] = []

    def _enter(self, name: str) -> list:
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0, 0, index]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        name, start, child_ns, index = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if stack:
            stack[-1][2] += duration
        else:
            self.root_ns += duration
        if index >= 0:
            parent = stack[-1][3] if stack else -1
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one ``name`` span."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def patch(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def ledger(self, wall_ns: int) -> Dict[str, float]:
        """Per-name ``calls`` / ``self_ms`` plus the unattributed
        remainder of ``wall_ns``; the self times and the remainder sum
        to the wall time exactly."""
        out: Dict[str, float] = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        unattributed = wall_ns - self.root_ns
        out["ledger.wall_ms"] = wall_ns / 1e6
        out["ledger.unattributed_ms"] = unattributed / 1e6
        out["ledger.unattributed_pct"] = (
            100.0 * unattributed / wall_ns if wall_ns else 0.0
        )
        return out

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


class NullTracer:
    """The untraced run: wrapping and calling are pass-throughs."""

    enabled = False

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def patch(self, obj, attr: str, name: str) -> None:
        pass


def self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Self time per span name from finished spans: each span's
    duration minus the durations of the spans whose parent it is."""
    spans = list(spans)
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start) - child_ns[i]
    return out
