"""In-memory spans for the traced run.

A span records name, start, end, parent span, op id and the work units it
covered (trials, samples). Spans live in a list until the run ends;
``summary`` folds them into per-name totals, where self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, units]
        self.counts = Counter()
        self.missing = set()
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name: str, units: int = 1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op_id, units]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, units: int = 1, **kwargs):
        """Call ``fn`` inside a span. A public function the program no longer
        has (``fn is None``) is reported as a missing span and raises
        LookupError, which ends that op's replay."""
        if fn is None:
            self.missing.add(name)
            raise LookupError(f"no public function for span {name!r}")
        with self.span(name, units):
            return fn(*args, **kwargs)

    def summary(self) -> dict:
        """name -> {calls, units, total_s, self_s}."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _units in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _parent, _op, units) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["units"] += units
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "units")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def layer_metrics(summary: dict, table: dict) -> dict:
    """Per-layer metrics from ``summary``. ``table`` maps a metric to
    (span name, "self_s" or "total_s", "calls" or "units", scale); a span
    that never ran gives 0."""
    out = {}
    for metric, (span, field, divisor, scale) in table.items():
        agg = summary.get(span)
        out[metric] = scale * agg[field] / agg[divisor] if agg and agg[divisor] else 0.0
    return out
