"""Timing of calls into dspkit, with optional span recording.

Every call a workload makes into the program goes through `Meter.call`, which
adds the call's wall time to the operation in progress.  With tracing on, it
also records a span (name, start, end, parent, units); `Meter.span` records a
span around the benchmark's own grouping (an operation, a set-up step).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter


class Meter:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []  # [name, start, end, parent index, units]
        self._open: list[int] = []
        self.program_s = 0.0  # program time of the operation in progress
        self.counts: dict[str, int] = defaultdict(int)

    def _begin(self, name: str, units: int) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, units])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, _units: int = 1, **kwargs):
        """Call fn(*args, **kwargs) as program work named `name`."""
        index = self._begin(name, _units) if self.trace else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.program_s += perf_counter() - t0
            if index is not None:
                self._end(index)

    def set_last_units(self, units: int) -> None:
        """Set the units of the span recorded last (a call without children)."""
        if self.trace:
            self.spans[-1][4] = units

    @contextmanager
    def span(self, name: str):
        """Group the calls made inside the block under one span."""
        if not self.trace:
            yield
            return
        index = self._begin(name, 1)
        try:
            yield
        finally:
            self._end(index)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def self_times(self) -> dict[str, tuple[float, int, int]]:
        """name -> (total self seconds, span count, total units).

        A span's self time is its duration minus the time its child spans
        cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, units in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, parent, units), inner in zip(self.spans, child_time):
            if end is None:
                continue
            agg = out.setdefault(name, [0.0, 0, 0])
            agg[0] += end - start - inner
            agg[1] += 1
            agg[2] += units
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Spans as rows [name index, start s, end s, parent row, units]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(n, len(names)), round(s - t0, 7), round(e - t0, 7), p, u]
            for n, s, e, p, u in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows, "counts": dict(self.counts)}, fh,
                      separators=(",", ":"))


def per_call(agg: dict, name: str, scale: float) -> float:
    """Mean self time per span unit of `name`, times `scale`; 0 if absent."""
    total, _, units = agg.get(name, (0.0, 0, 0))
    return total / units * scale if units else 0.0
