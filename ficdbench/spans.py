"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent id, run id), with times from
``time.perf_counter``. Spans are opened around the benchmark's own calls
into each layer, and leaf spans come from wrapping the public methods of
the model and energy objects for the duration of one traced operation.
The sampler's worker threads have no open span of their own, so their
leaf spans hang under the operation's open sampler span. Nothing is
written until ``dump`` runs at the end of the benchmark.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "union_length", "check_tree"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._run = "setup"
        # Parent for leaf spans recorded on threads with no open span.
        self._fallback: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_run(self, run_id: str) -> None:
        self._run = run_id

    def add(self, name: str, start: float, end: float) -> None:
        """Record a root span for an interval timed before tracing could start."""
        self.spans.append((next(self._ids), name, start, end, None, self._run))

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        outer_fallback = self._fallback
        stack.append(span_id)
        self._fallback = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._fallback = outer_fallback
            self.spans.append((span_id, name, start, end, parent, self._run))

    def _leaf(self, name: str, start: float, end: float) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else self._fallback
        self.spans.append((next(self._ids), name, start, end, parent, self._run))

    @contextmanager
    def wrapped(self, targets):
        """Trace calls to ``(obj, method, span name)`` targets inside the block.

        The wrapper is an instance attribute shadowing the class method,
        so removing it restores the untraced object exactly.
        """
        for obj, method, name in targets:
            setattr(obj, method, self._wrap(getattr(obj, method), name))
        try:
            yield
        finally:
            for obj, method, _ in targets:
                delattr(obj, method)

    def _wrap(self, inner, name: str):
        leaf = self._leaf
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                leaf(name, start, clock())

        return traced

    def of_run(self, run_id: str) -> list[tuple]:
        return [s for s in self.spans if s[5] == run_id]

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def check_tree(spans: list[dict]) -> list[str]:
    """Problems with a dumped span list: unknown parents, other runs, escapes."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} {s['name']} has unknown parent {s['parent']}")
            continue
        if parent["run"] != s["run"]:
            problems.append(f"span {s['id']} {s['name']} is in another run than its parent")
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(
                f"span {s['id']} {s['name']} lies outside its parent {parent['name']}"
            )
    return problems
