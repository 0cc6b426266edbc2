"""In-memory spans recorded from outside the program, around calls into
its public functions.

The benchmark never edits ``src/``: it wraps a function or method where
the program looks it up (``module.name`` or ``Class.method``) with
:meth:`SpanRecorder.wrap`, records a span per call in a list, and writes
the list out when the run ends.  A span knows its parent (the innermost
open span on the same thread), so self time — duration minus the part
its child spans cover — can be computed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from typing import Callable, Iterator

__all__ = ["SpanRecorder", "self_times"]


class SpanRecorder:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._prefix = f"{os.getpid()}."
        self._wrapped: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record one span; the yielded dict takes attributes known only
        at the end (counts of work done)."""
        stack = self._stack()
        span_id = self._prefix + str(next(self._ids))
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                    **attrs,
                }
            )

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        describe: Callable[..., dict] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper that records a span
        named ``name`` per call.  ``describe(result, *args, **kwargs)``
        returns attributes for the span (sizes, site names); a call that
        raises gets an ``error`` attribute instead."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    attrs["error"] = type(exc).__name__
                    raise
                if describe is not None:
                    attrs.update(describe(result, *args, **kwargs))
                return result

        self._wrapped.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def mark(self, name: str, **attrs) -> None:
        """Record an instant (a span of zero duration, without parent)."""
        now = time.perf_counter()
        self.spans.append(
            {
                "id": self._prefix + str(next(self._ids)),
                "parent": None,
                "name": name,
                "start": now,
                "end": now,
                "thread": threading.get_ident(),
                **attrs,
            }
        )

    def restore(self) -> None:
        """Put back everything :meth:`wrap` replaced."""
        while self._wrapped:
            owner, attribute, original = self._wrapped.pop()
            setattr(owner, attribute, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus
    the durations of its direct children."""
    covered: dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
