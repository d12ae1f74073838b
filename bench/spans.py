"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent span id, graph id); start and end are
readings of the process's CPU clock, as the benchmark's other timings are.
Spans are kept in a list while the run goes and written out once it ends.
The untraced run uses ``NullTracer``, which calls straight through, so both
runs execute the same benchmark code.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import process_time


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, graph=None):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # [name, start, end, parent id or None, graph id or None]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, graph: str | None = None):
        parent = self._open[-1] if self._open else None
        if graph is None and parent is not None:
            graph = self.spans[parent][4]
        record = [name, process_time(), None, parent, graph]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = process_time()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median(self, name: str) -> float | None:
        values = self.durations(name)
        return statistics.median(values) if values else None

    def busy_fractions(self, graph_span: str) -> dict[str, float]:
        """Per module: self time inside graph spans over total graph time."""
        total = sum(self.durations(graph_span))
        busy = defaultdict(float)
        for (name, _, _, _, graph), own in zip(self.spans, self.self_times()):
            # spans outside every graph (set-up) carry no graph id
            if name != graph_span and graph is not None:
                busy[name.split(".")[0]] += own
        return {module: t / total for module, t in busy.items()} if total > 0 else {}
