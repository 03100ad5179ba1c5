"""In-memory spans recorded around calls into bellsim's layers.

A span is ``[name, parent, start_ns, end_ns]``; ``parent`` is the index
of the enclosing span or -1.  Spans stay in memory and are written out
once, when the benchmark ends.  ``NullTracer`` has the same interface and
records nothing, so one call sequence runs traced or untraced.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, parent, _now(), 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[3] = _now()
        self._open.pop()

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        rec = self._begin(name)
        try:
            return fn(*args)
        finally:
            self._end(rec)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)


class NullTracer:
    def call(self, name: str, fn, *args):
        return fn(*args)

    def span(self, name: str):
        return contextlib.nullcontext()


def durations(spans: list[list]) -> tuple[dict[str, list[int]], list[int]]:
    """Per-name span durations, and each span's self time (both in ns).

    Self time is the span's duration minus the time its child spans
    cover; children of one parent never overlap (one thread).
    """
    covered = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    by_name: dict[str, list[int]] = defaultdict(list)
    self_ns = []
    for i, (name, parent, start, end) in enumerate(spans):
        by_name[name].append(end - start)
        self_ns.append(end - start - covered[i])
    return by_name, self_ns
