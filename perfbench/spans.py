"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the program: name, start, end,
the span that caused it (``parent``) and the workload.  Spans are kept
in memory and written out with the run's result file when the run
ends, so recording costs two clock reads and a list append per call.

Spans made by overlapping callers (the two closed-loop clients of the
planner-daemon workload) are recorded with :meth:`Tracer.add` and
marked ``concurrent``: they are reported, but their time stays with the
parent's self time, so the self times of the sequential span tree still
add up to the traced total.  Self time subtracts the *union* of a
span's children, so a child that escaped its parent or overlapped a
sibling would break that sum — which is what the traced run checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records spans in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "concurrent": False,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed concurrent span under the open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "concurrent": True,
                "start": start,
                "end": end,
            }
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its sequential children cover."""
        children: Dict[int, List[Dict[str, object]]] = {}
        for s in self.spans:
            if s["parent"] is not None and not s["concurrent"]:
                children.setdefault(s["parent"], []).append(s)
        result: Dict[int, float] = {}
        for s in self.spans:
            if s["concurrent"]:
                continue
            covered = _union_length(
                [(c["start"], c["end"]) for c in children.get(s["id"], [])]
            )
            result[s["id"]] = (s["end"] - s["start"]) - covered
        return result

    def self_time_by_name(self) -> Dict[str, float]:
        by_name: Dict[str, float] = {}
        for span_id, value in self.self_times().items():
            name = self.spans[span_id]["name"]
            by_name[name] = by_name.get(name, 0.0) + value
        return by_name

    def root(self) -> Optional[Dict[str, object]]:
        return self.spans[0] if self.spans else None


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total
