"""Span-based tracer with a zero-overhead disabled default.

The ambient tracer is context-local: it lives in a
:class:`contextvars.ContextVar`, so each thread and each asyncio task
sees its own.  It defaults to :data:`NULL_TRACER`, whose every
operation is a constant-time no-op that allocates nothing —
instrumented hot paths guard event construction behind
``tracer.enabled`` so the disabled cost is one attribute read and a
branch.  Enable tracing by scoping a real :class:`Tracer` with the
:func:`use_tracer` context manager.  A new thread starts with
:data:`NULL_TRACER`; to carry the caller's tracer into a worker, run
the worker under ``contextvars.copy_context().run``.

Data model: a tracer keeps one flat ``records`` list containing
:class:`Span` and :class:`~repro.obs.events.Event` objects in emission
order (a span is appended when it *opens*, so nesting order is
deterministic).  Spans measure wall time with
:func:`time.perf_counter`, relative to the tracer's creation so exported
timestamps are small and runs are comparable.  Metrics live in the
tracer's :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator, Optional, Union

from repro.obs.events import Event
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class Span:
    """A named, attributed wall-time interval (possibly nested)."""

    __slots__ = ("name", "attrs", "start", "end", "depth")

    def __init__(self, name: str, attrs: dict, depth: int) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end: Optional[float] = None
        self.depth = depth

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Seconds from open to close (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def as_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "dur": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Span({self.name!r}, dur={self.duration * 1e3:.3f}ms)"


class _NullSpan:
    """Shared do-nothing span; also its own context manager."""

    __slots__ = ()
    name = "null"
    attrs: dict = {}
    start = 0.0
    end = 0.0
    depth = 0
    duration = 0.0

    def set(self, **attrs) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans, typed events, and metrics for one run."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[Union[Span, Event]] = []
        self.metrics = MetricsRegistry()
        self._stack: list[Span] = []
        self._epoch = perf_counter()
        self._absorb_lock = threading.Lock()

    def _now(self) -> float:
        return perf_counter() - self._epoch

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; attributes may be added via ``span.set``."""
        span = Span(name, attrs, depth=len(self._stack))
        span.start = self._now()
        self.records.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self._now()

    def event(self, event: Event) -> None:
        """Record a typed event, stamping its timestamp."""
        event.ts = self._now()
        self.records.append(event)

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    def absorb(self, other: "Tracer") -> None:
        """Fold another tracer's records and metrics into this one.

        Spans and events are re-based onto this tracer's timeline (the
        epochs differ), so an exported trace stays monotonic; counters
        add and histograms concatenate.  Used by the api facade, which
        runs every request under a private tracer for exact per-request
        accounting and then forwards the capture to the ambient
        ``--trace`` tracer.  Concurrent requests may absorb into one
        tracer at once, so the fold runs under a lock.
        """
        delta = other._epoch - self._epoch
        with self._absorb_lock:
            for record in other.records:
                if isinstance(record, Span):
                    record.start += delta
                    if record.end is not None:
                        record.end += delta
                else:
                    record.ts += delta
                self.records.append(record)
            self.metrics.merge(other.metrics)

    # -- views ---------------------------------------------------------------

    def spans(self) -> list[Span]:
        return [r for r in self.records if isinstance(r, Span)]

    def events(self) -> list[Event]:
        return [r for r in self.records if isinstance(r, Event)]

    def events_of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events() if e.kind == kind]

    def span_named(self, name: str) -> Optional[Span]:
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Tracer(spans={len(self.spans())}, events={len(self.events())})"
        )


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    records: tuple = ()
    metrics = NULL_REGISTRY

    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, event: Event) -> None:
        return None

    def counter(self, name: str):
        return NULL_REGISTRY.counter(name)

    def histogram(self, name: str):
        return NULL_REGISTRY.histogram(name)

    def spans(self) -> list:
        return []

    def events(self) -> list:
        return []

    def events_of_kind(self, kind: str) -> list:
        return []

    def span_named(self, name: str) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return "NullTracer()"


NULL_TRACER = NullTracer()

_current: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_tracer", default=NULL_TRACER
)


def get_tracer() -> Union[Tracer, NullTracer]:
    """The current context's tracer (the no-op tracer by default)."""
    return _current.get()


def set_tracer(tracer: Union[Tracer, NullTracer, None]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` in the current context (``None`` → no-op);
    returns the previous one."""
    previous = _current.get()
    _current.set(tracer if tracer is not None else NULL_TRACER)
    return previous


@contextlib.contextmanager
def use_tracer(
    tracer: Union[Tracer, NullTracer, None],
) -> Iterator[Union[Tracer, NullTracer]]:
    """Install ``tracer`` in the current context for the ``with`` block."""
    token = _current.set(tracer if tracer is not None else NULL_TRACER)
    try:
        yield _current.get()
    finally:
        _current.reset(token)
