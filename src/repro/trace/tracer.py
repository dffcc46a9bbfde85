"""The :class:`Tracer`: thread-safe event collection on the virtual clock.

One tracer per :class:`~repro.core.environment.CloudEnvironment`; every
layer holds a reference and guards emission with ``tracer is not None and
tracer.enabled`` so a disabled spine costs two attribute loads per site.

Causal ids flow *ambiently*: :meth:`Tracer.bind` sets an id mapping in a
context variable, and every virtual-time kernel task starts in a copy of
its spawner's context (the same mechanism ``repro.core.context`` uses), so
a COS request issued deep inside a running cloud function is automatically
stamped with the job/call/activation ids the controller bound around the
handler.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.trace import events as ev
from repro.vtime.kernel import Kernel

# Ambient ids of the running task; never mutated in place, only replaced.
_IDS: contextvars.ContextVar[Optional[dict[str, Any]]] = contextvars.ContextVar(
    "repro_trace_ids", default=None
)


class Tracer:
    """Append-only, thread-safe collector of :class:`TraceEvent` records."""

    def __init__(self, kernel: Kernel, enabled: bool = False) -> None:
        self.kernel = kernel
        #: the master switch every emission site checks first
        self.enabled = bool(enabled)
        self._events: list[ev.TraceEvent] = []
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[ev.TraceEvent], None]] = []

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _merged_ids(self, ids: Optional[Mapping[str, Any]]) -> dict[str, Any]:
        ambient = _IDS.get()
        if ambient and ids:
            return {**ambient, **ids}
        if ambient:
            return dict(ambient)
        return dict(ids) if ids else {}

    def _append(self, event: ev.TraceEvent) -> None:
        with self._lock:
            self._events.append(event)
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)

    def point(
        self,
        name: str,
        layer: str,
        t: Optional[float] = None,
        ids: Optional[Mapping[str, Any]] = None,
        **attrs: Any,
    ) -> None:
        """Record an instantaneous event (no-op when disabled)."""
        if not self.enabled:
            return
        when = self.kernel.now() if t is None else t
        self._append(ev.point(name, layer, when, self._merged_ids(ids), attrs))

    def span_at(
        self,
        name: str,
        layer: str,
        t0: float,
        t1: float,
        ids: Optional[Mapping[str, Any]] = None,
        **attrs: Any,
    ) -> None:
        """Record a span with explicit endpoints (no-op when disabled)."""
        if not self.enabled:
            return
        self._append(ev.span(name, layer, t0, t1, self._merged_ids(ids), attrs))

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        layer: str,
        ids: Optional[Mapping[str, Any]] = None,
        **attrs: Any,
    ) -> Iterator[None]:
        """Measure the enclosed block as a span on the virtual clock."""
        if not self.enabled:
            yield
            return
        t0 = self.kernel.now()
        try:
            yield
        finally:
            self.span_at(name, layer, t0, self.kernel.now(), ids, **attrs)

    @contextlib.contextmanager
    def bind(self, **ids: Any) -> Iterator[None]:
        """Push ambient causal ids for the current task (and its spawns)."""
        if not self.enabled or not ids:
            yield
            return
        previous = _IDS.get()
        token = _IDS.set({**previous, **ids} if previous else dict(ids))
        try:
            yield
        finally:
            _IDS.reset(token)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def subscribe(
        self, callback: Callable[[ev.TraceEvent], None]
    ) -> Callable[[], None]:
        """Register a live listener; returns an unsubscribe function.

        Listeners run synchronously on the emitting task — keep them cheap
        (the progress bar is the canonical subscriber).
        """
        with self._lock:
            self._subscribers.append(callback)

        def _unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return _unsubscribe

    def events(self) -> list[ev.TraceEvent]:
        """All events in deterministic (time, content) order."""
        with self._lock:
            snapshot = list(self._events)
        return sorted(snapshot, key=ev.TraceEvent.sort_key)

    def raw_events(self) -> list[ev.TraceEvent]:
        """All events in append order (interleaving-dependent)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
