"""In-memory span recorder for the traced run.

A span is one timed call from the benchmark into a ``repro`` layer: its name is
the layer metric it feeds (``perfmodel.eval``, ``io.json_save``, ...), and it
records its start, end, parent span and the id of the pass it belongs to.  Spans
stay in memory while the run measures and are written out as JSON lines when it
ends, so recording costs one ``perf_counter`` pair and one list append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    """One recorded call.

    ``count`` is the number of items the call processed (configs, rows,
    evaluations) and ``nbytes`` the bytes it wrote; per-item layer metrics divide
    by them.  A ``probe`` span measures extra work the untraced pass does not do
    (for example the noise hash timed on its own), so the tracing overhead
    excludes it.
    """

    span_id: int
    trace_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0
    nbytes: int = 0
    probe: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping children are
    merged first, so time covered twice is subtracted once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration - covered
    return out


class Tracer:
    """Records nested spans; every span opened during one pass shares its trace id."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[Span] = []
        self._trace_id = 0

    def new_trace(self) -> int:
        """Start a new pass: later spans carry a fresh trace id."""
        self._trace_id += 1
        return self._trace_id

    @contextmanager
    def span(self, name: str, count: int = 0, probe: bool = False) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(span_id=len(self.spans), trace_id=self._trace_id, name=name,
                    parent=parent, start=self._clock(), count=count, probe=probe)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def records(self) -> list[dict]:
        """Every span as a plain dictionary, with its self time under ``"self"``."""
        own = self_times(self.spans)
        return [{**asdict(span), "self": own[span.span_id]} for span in self.spans]

    def write(self, path: Path) -> Path:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in self.records()), encoding="utf-8")
        return path
