"""Harness-side spans: name, group, start, end, parent, op id.

Spans are recorded by the benchmark's own code around its calls into
each layer's public entry points; no program file is instrumented.
Where one public function calls the next layer's, the inner call is
timed separately on a twin object fed the same input and recorded as a
child (``parent=``) of the outer span: a span's *self time* is its
duration minus its children's, wherever the children ran.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    #: the time group the span's self time is charged to (spec.GROUPS)
    group: str
    parent: "int | None"
    #: script position of the operation this span belongs to
    op: "int | None"
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Spans held in memory; the traced run writes them out at its end."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, group: str, op=None, parent=None):
        """Time a block; nests under the open span unless ``parent`` says."""
        if not self.enabled:
            yield None
            return
        above = parent if parent is not None else (
            self._open[-1] if self._open else None
        )
        span = Span(
            len(self.spans), name, group,
            None if above is None else above.id,
            op if op is not None else (above.op if above else None),
            time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()


def self_times(spans: list) -> dict:
    """``span id -> self time in ns`` (never below zero)."""
    own = {span.id: span.duration_ns for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration_ns
    return {span_id: max(0, value) for span_id, value in own.items()}


def group_seconds(spans: list, ops: "set | None" = None) -> dict:
    """``group -> summed self seconds`` over spans of the given ops."""
    own = self_times(spans)
    totals: dict = {}
    for span in spans:
        if ops is None or span.op in ops:
            totals[span.group] = totals.get(span.group, 0.0) + (
                own[span.id] / 1e9
            )
    return totals
