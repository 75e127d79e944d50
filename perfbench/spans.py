"""In-memory span tracer for the benchmark's traced run.

A span records (id, name, parent, start, end) around one call into a
layer; counts are recorded at the same boundaries. Spans stay in
memory until the run ends and are then written out as JSON. A layer's
self time is its span durations minus the part covered by its child
spans.

``NullTracer`` has the same interface and records nothing; the
untraced passes use it, so the difference between a traced and an
untraced run of the same code is the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    enabled = True

    def __init__(self, trace_id: str = "run") -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"trace": self.trace_id, "id": len(self.spans), "name": name,
               "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def set(self, key: str, value) -> None:
        self.counts[key] = value

    def self_times(self) -> dict[str, float]:
        """name -> summed self time (duration minus child durations)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def total(self, name: str) -> float:
        """Summed full duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class NullTracer(Tracer):
    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None

    def count(self, key: str, value) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass


@contextmanager
def wrapped(tr: Tracer, owner, attr: str, name: str):
    """Temporarily replace ``owner.attr`` (a module function or a class
    method) by a wrapper that records a span called ``name`` per call."""
    orig = getattr(owner, attr)

    def call(*args, **kwargs):
        with tr.span(name):
            return orig(*args, **kwargs)

    setattr(owner, attr, call)
    try:
        yield
    finally:
        setattr(owner, attr, orig)
