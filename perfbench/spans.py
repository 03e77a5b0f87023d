"""In-memory span recorder shared by perfbench/run.py and its child processes.

A span is one timed call at a layer boundary: ``name``, ``start``, ``end``
(``time.perf_counter`` seconds, which on Linux is CLOCK_MONOTONIC and so
comparable between processes), the ``parent`` span that caused it and the
``request`` every span of one CLI request shares. Spans stay in memory and
are written out once, when the process that recorded them ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Recorder:
    """Collects the spans of one request, nesting them by call order."""

    def __init__(self, request: str, root_parent: str | None = None, tag: str = "p"):
        self.request = request
        self.tag = tag
        self.spans: list[dict] = []
        self._stack: list[str] = [] if root_parent is None else [root_parent]

    @contextmanager
    def span(self, name: str):
        span_id = f"{self.request}.{self.tag}{len(self.spans)}"
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name, fn):
        """``fn`` timed as a span; ``name`` may be a callable of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping children (threads) are not subtracted twice.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(s["id"], [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[s["id"]] = (end - start) - covered
    return result


def totals_by_name(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Name -> {"calls", "total_s", "self_s"} summed over all spans of that name."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return out
