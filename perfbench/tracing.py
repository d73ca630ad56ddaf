"""In-memory spans around calls into gplattice's modules.

A span records its name, start, end and the span that was open when it
began.  Spans live in a list until the run ends.  A layer's self time is the
span's duration minus the durations of its direct children; the replay is
serial, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child_time):
            out[s.name] += (s.end - s.start) - covered
        return dict(out)

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)
