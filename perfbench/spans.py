"""In-memory spans recorded by wrapping the program's public functions.

The benchmark never edits the program: :class:`Tracer` patches a class
or module attribute with a timing wrapper for the traced phase and puts
the original back afterwards.  Each span records its name, start, end,
the span open on the same thread when it began (its parent) and the
request id the caller set, so the spans of one request share an id.
Spans stay in memory until the run ends; :func:`self_times` then
subtracts from each span the part of its interval its children cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "req", "extra")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int],
                 req: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.req = req
        self.extra: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "req": self.req,
                "extra": self.extra}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["sid"], d["name"], d["start"], d["parent"], d["req"])
        span.end = d["end"]
        span.extra = dict(d.get("extra", {}))
        return span


class Tracer:
    """Collects spans and counters; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids), name, time.perf_counter(),
            parent.sid if parent is not None else None,
            parent.req if parent is not None else getattr(self._local, "req", None),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @contextmanager
    def span(self, name: str, req: Optional[int] = None):
        if req is not None:
            self._local.req = req
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            if req is not None:
                self._local.req = None

    def enclosing(self, name: str) -> Optional[Span]:
        """The innermost span named ``name`` open on this thread."""
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- wrapping ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_return(span, args, result)`` runs inside the span, so it
        may attach values to it or to the span that encloses it.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(span, args, result)
                return result
            finally:
                tracer.close(span)

        self._patch(owner, attr, wrapper)

    def wrap_steps(self, owner, attr: str, name: str,
                   on_call: Optional[Callable] = None) -> None:
        """Record one span per ``next()`` of the generator ``owner.attr`` returns.

        Only the generator's own steps are timed; what the consumer does
        between steps is not.  ``on_call(args)`` may return a callback
        run after each step with the yielded item.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            after = on_call(args) if on_call is not None else None
            return tracer._steps(original(*args, **kwargs), name, after)

        self._patch(owner, attr, wrapper)

    def _steps(self, iterator, name: str, after: Optional[Callable]):
        while True:
            span = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            if after is not None:
                after(item)
            yield item

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for span in spans:
        row = out[span.name]
        row["count"] += 1
        row["total"] += span.duration
        row["self"] += selfs[span.sid]
    return out
