"""Spans recorded by the benchmark around its calls into each layer.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that caused it, and the id of the operation it belongs to.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class Spans:
    def __init__(self) -> None:
        self.rows: list[list] = []  # [name, start, end, parent, op]

    def start(self, name: str, op: int, parent: int | None = None) -> int:
        self.rows.append([name, time.perf_counter(), None, parent, op])
        return len(self.rows) - 1

    def end(self, sid: int) -> None:
        self.rows[sid][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: int, parent: int | None = None) -> int:
        self.rows.append([name, start, end, parent, op])
        return len(self.rows) - 1

    def median_ms(self, name: str) -> float:
        return statistics.median((r[2] - r[1]) * 1e3 for r in self.rows if r[0] == name)

    def median_self_ms(self, name: str) -> float:
        """Median of a span's duration minus the time its child spans cover."""
        child_s: dict[int, float] = {}
        for r in self.rows:
            if r[3] is not None:
                child_s[r[3]] = child_s.get(r[3], 0.0) + (r[2] - r[1])
        return statistics.median(
            (r[2] - r[1] - child_s.get(i, 0.0)) * 1e3
            for i, r in enumerate(self.rows) if r[0] == name)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, r)) for r in self.rows]))


class OpScope:
    """One operation's span; ``call`` runs a layer function in a child span.

    With ``spans=None`` (the untraced run) ``call`` only calls the function.
    """

    def __init__(self, spans: Spans | None, name: str, op: int) -> None:
        self.spans = spans
        self.op = op
        self.sid = spans.start(name, op) if spans is not None else None

    def call(self, name: str, fn, *args):
        if self.spans is None:
            return fn(*args)
        sid = self.spans.start(name, self.op, self.sid)
        try:
            return fn(*args)
        finally:
            self.spans.end(sid)

    def close(self) -> None:
        if self.spans is not None:
            self.spans.end(self.sid)
