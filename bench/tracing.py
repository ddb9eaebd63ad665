"""In-memory spans and counters for the traced benchmark run.

The traced run first makes an op's real call inside one span, then replays
the layer calls that op makes, with identical inputs, one after another.
Spans therefore never nest while they run; `parent` records the call tree
the replayed calls come from, and a layer's self time is derived afterwards
by subtracting the time of its children.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import NamedTuple


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    ns: int = 0
    peak_bytes: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class OpTimes(NamedTuple):
    """Per span name, for one op: total ns, derived self ns, peak bytes."""

    total: dict[str, int]
    self: dict[str, int]
    peak: dict[str, int]


class Tracer:
    """Spans, per-op work counts and per-layer exception counts of one run.

    A span's peak is the tracemalloc peak above the memory traced when the
    span began; it reads 0 unless tracemalloc is running.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_spans: dict[int, list[Span]] = {}
        self.counts: dict[int, Counter[str]] = {}
        self.errors: Counter[str] = Counter()
        self.op = -1

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_spans[op] = []
        self.counts[op] = Counter()

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        span = Span(len(self.spans), name, self.op, None if parent is None else parent.id)
        self.spans.append(span)
        self.op_spans[self.op].append(span)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter_ns()
        try:
            yield span
        except Exception:
            self.errors[span.layer] += 1
            raise
        finally:
            span.ns = time.perf_counter_ns() - start
            span.peak_bytes = tracemalloc.get_traced_memory()[1] - base

    def call(self, name: str, parent: Span | None, fn, *args, **kwargs):
        """Make one library call inside a span and return its result."""
        with self.span(name, parent):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[self.op][name] += n

    def op_times(self, op: int) -> OpTimes:
        """Total ns, derived self ns and the largest peak per span name.
        Self time is the total minus the total of the span's children."""
        spans = self.op_spans[op]
        by_id = {s.id: s for s in spans}
        total: Counter[str] = Counter()
        children: Counter[str] = Counter()
        peak: Counter[str] = Counter()
        for s in spans:
            total[s.name] += s.ns
            peak[s.name] = max(peak[s.name], s.peak_bytes)
            if s.parent is not None:
                children[by_id[s.parent].name] += s.ns
        self_ns = {name: total[name] - children[name] for name in total}
        return OpTimes(dict(total), self_ns, dict(peak))

    def to_list(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
