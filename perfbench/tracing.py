"""Span tracing from outside the measured program.

The benchmark never edits the code it measures.  In a traced repetition
it rebinds public functions and methods of ``repro`` to wrappers that
record one span per call: name, start, end, parent span and trace id.
Spans stay in memory and are written out once, after the measured work.

A layer's *self time* is the share of the traced wall-clock that
:func:`self_times` attributes to it.  Every instant goes to the deepest
span open at that instant, so on one thread a span's self time is its
duration minus the part its children cover, and the self times of all
layers plus the unaccounted remainder add up to the wall-clock exactly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["NULL_TRACER", "Span", "Tracer", "self_times", "span_totals"]


class Span:
    """One recorded call.  Times are ``time.monotonic()`` seconds."""

    __slots__ = ("id", "name", "start", "end", "parent", "trace_id",
                 "thread", "rank")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 trace_id: Optional[str], rank: int) -> None:
        self.id = span_id
        self.name = name
        self.start = time.monotonic()
        self.end = self.start
        self.parent = parent
        self.trace_id = trace_id
        self.thread = threading.current_thread().name
        self.rank = rank

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans and counters in memory; all spans of one traced
    repetition share its trace id.

    ``rank`` orders spans at the same depth when they overlap in time
    on different threads: a span that waits (rank -1) yields the
    overlap to one that works (rank 0).
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.lists: Dict[str, List[Any]] = defaultdict(list)
        # Parent of a span opened on a thread with no span open, such as
        # the serving engine's worker thread.
        self.fallback_parent: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, rank: int = 0,
             root: bool = False) -> Iterator[Span]:
        """Record the enclosed block as a span; ``root`` makes it the
        fallback parent for threads that have no span open."""
        stack = self._stack()
        parent = stack[-1] if stack else self.fallback_parent
        record = Span(next(self._ids), name, parent, self.trace_id, rank)
        stack.append(record.id)
        if root:
            self.fallback_parent = record.id
        try:
            yield record
        finally:
            record.end = time.monotonic()
            stack.pop()
            if root:
                self.fallback_parent = parent
            self.spans.append(record)

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, owner: Any, attr: str, name: "str | Callable[[], str]",
             note: Optional[Callable[..., None]] = None) -> None:
        """Rebind ``owner.attr`` to a wrapper that records a span per call.

        ``name`` may be a callable evaluated per call.  ``note(tracer,
        span, args, kwargs, result)`` runs after a call that returned.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name() if callable(name) else name
            with tracer.span(label) as record:
                result = original(*args, **kwargs)
            if note is not None:
                note(tracer, record, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(record.as_dict()) + "\n")


class _NullTracer:
    """Stands in for a :class:`Tracer` in untraced repetitions."""

    enabled = False

    def span(self, *args: Any, **kwargs: Any) -> "contextlib.nullcontext":
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def _depths(spans: List[Span]) -> Dict[int, int]:
    parents = {s.id: s.parent for s in spans}
    depths: Dict[int, int] = {}

    def depth(span_id: int) -> int:
        if span_id not in depths:
            parent = parents.get(span_id)
            depths[span_id] = 0 if parent not in parents else depth(parent) + 1
        return depths[span_id]

    for span_id in sorted(parents):  # a parent's id is below its children's
        depth(span_id)
    return depths


def self_times(spans: List[Span], start: float,
               end: float) -> Tuple[Dict[str, float], float]:
    """Partition ``[start, end]`` among span names.

    Returns ``(self seconds per span name, unaccounted seconds)``; the
    values sum to ``end - start``.  Each instant goes to the open span
    with the greatest (depth, rank, start); instants with no open span
    are unaccounted.
    """
    depths = _depths(spans)
    events: List[Tuple[float, int, Span]] = []
    for s in spans:
        lo, hi = max(s.start, start), min(s.end, end)
        if hi > lo:
            events.append((lo, 1, s))
            events.append((hi, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    owned: Dict[str, float] = defaultdict(float)
    unaccounted = 0.0
    active: Dict[int, Span] = {}
    cursor = start

    def charge(until: float) -> None:
        nonlocal unaccounted
        if until <= cursor:
            return
        if active:
            owner = max(active.values(),
                        key=lambda s: (depths[s.id], s.rank, s.start, s.id))
            owned[owner.name] += until - cursor
        else:
            unaccounted += until - cursor

    for t, opening, s in events:
        charge(t)
        cursor = max(cursor, t)
        if opening:
            active[s.id] = s
        else:
            active.pop(s.id, None)
    charge(end)
    return dict(owned), unaccounted


def span_totals(spans: List[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, summed duration in seconds)``."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = totals[s.name]
        entry[0] += 1
        entry[1] += s.end - s.start
    return {name: (int(n), d) for name, (n, d) in totals.items()}
