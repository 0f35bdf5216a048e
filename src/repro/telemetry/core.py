"""Process-wide toolchain telemetry: spans, counters, gauges.

The paper's thesis is that you cannot optimize what you cannot see — it
makes the *simulated hardware* observable through Paraver traces.  This
module applies the same idea to the toolchain itself: every layer of
the compile→simulate→trace pipeline (frontend, HLS, simulator,
profiling recorder, Paraver writer) reports wall-clock **spans** and
cheap **counters**/**gauges** into one process-wide registry, which the
exporters (:mod:`repro.telemetry.exporters`) render as a summary table,
a JSON-lines metrics file, or a Chrome trace-event file loadable in
Perfetto / ``chrome://tracing``.

Design constraints:

* **Disabled by default, near-zero overhead when off.**  ``span()``
  returns a shared no-op context manager and ``add()``/``set_gauge()``
  return after one attribute check, so instrumentation may be left in
  hot-ish paths unconditionally.  (Truly hot loops — the discrete-event
  engine — keep plain integer counters of their own and report them
  once per run; see :meth:`repro.sim.engine.Engine.stats`.)
* **Never perturbs simulated results.**  Telemetry measures wall time
  and tool-level quantities only; the simulated cycle counts are
  bit-identical with telemetry on or off.
* **Two clocks.**  Span timestamps come from the monotonic
  ``time.perf_counter_ns`` clock (relative to the session origin);
  the session additionally records a wall-clock start so exported
  metrics can be placed in calendar time.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "SNAPSHOT_SCHEMA", "SpanRecord", "Telemetry", "get_telemetry",
    "configure", "telemetry_enabled", "span", "add", "set_gauge",
    "max_gauge", "traced",
]

#: schema tag of the lossless :meth:`Telemetry.snapshot` wire format
SNAPSHOT_SCHEMA = "repro.telemetry/1"


@dataclass
class SpanRecord:
    """One completed span (a timed, named region of toolchain work)."""

    id: int
    parent: int          # id of the enclosing span, -1 for roots
    name: str
    category: str
    start_ns: int        # monotonic ns relative to the session origin
    end_ns: int
    depth: int           # nesting depth at entry (0 for roots)
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def start_us(self) -> float:
        return self.start_ns / 1e3

    @property
    def duration_us(self) -> float:
        return (self.end_ns - self.start_ns) / 1e3


class _NullSpan:
    """Shared no-op span used on the disabled path (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live (open) span; records itself into the registry on exit."""

    __slots__ = ("_telemetry", "name", "category", "args",
                 "id", "parent", "depth", "start_ns")

    def __init__(self, telemetry: "Telemetry", name: str, category: str,
                 args: dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self.category = category
        self.args = args

    def set(self, **args: Any) -> None:
        """Attach key/value annotations to the span."""

        self.args.update(args)

    def __enter__(self) -> "_Span":
        t = self._telemetry
        self.id = next(t._ids)
        self.parent = t._stack[-1].id if t._stack else -1
        self.depth = len(t._stack)
        t._stack.append(self)
        self.start_ns = time.perf_counter_ns() - t.origin_ns
        return self

    def __exit__(self, *exc: object) -> bool:
        end_ns = time.perf_counter_ns() - self._telemetry.origin_ns
        t = self._telemetry
        if t._stack and t._stack[-1] is self:
            t._stack.pop()
        t.spans.append(SpanRecord(self.id, self.parent, self.name,
                                  self.category, self.start_ns, end_ns,
                                  self.depth, self.args))
        return False


class Telemetry:
    """A registry of spans, counters and gauges for one session."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.origin_ns = time.perf_counter_ns()
        self.wall_start = time.time()
        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: tagged per-job snapshots folded back in by the sweep runner
        self.job_snapshots: list[dict[str, Any]] = []
        self._stack: list[_Span] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded data and restart the clocks."""

        self.origin_ns = time.perf_counter_ns()
        self.wall_start = time.time()
        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.job_snapshots = []
        self._stack = []
        self._ids = itertools.count()

    @contextmanager
    def capture(self, enabled: Optional[bool] = None) -> Iterator["Telemetry"]:
        """Temporarily swap in fresh, isolated recording state.

        Everything recorded inside the ``with`` block — spans, counters,
        gauges — lands in a clean registry whose clocks start at entry,
        and is thrown away at exit when the previous state (including
        any *open* spans) is restored; take :meth:`snapshot` before the
        block ends to keep it.  ``enabled`` optionally overrides the
        enablement for the duration (the sweep runner uses
        ``capture(enabled=True)`` to collect per-job telemetry even
        when the surrounding session is off).

        This is what keeps per-job numbers attributable: consecutive
        in-process sweep jobs no longer accumulate counters into one
        shared registry.
        """

        saved = (self.enabled, self.origin_ns, self.wall_start, self.pid,
                 self.tid, self.spans, self.counters, self.gauges,
                 self.job_snapshots, self._stack, self._ids)
        self.reset()
        if enabled is not None:
            self.enabled = enabled
        try:
            yield self
        finally:
            (self.enabled, self.origin_ns, self.wall_start, self.pid,
             self.tid, self.spans, self.counters, self.gauges,
             self.job_snapshots, self._stack, self._ids) = saved

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "toolchain",
             **args: Any):
        """Context manager timing a named region (nests via a stack)."""

        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, category, args)

    def traced(self, name: Optional[str] = None,
               category: str = "toolchain") -> Callable:
        """Decorator form of :meth:`span`."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.span(span_name, category=category):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into counter ``name`` (no-op when off)."""

        if not self.enabled or not amount:
            return
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name`` (no-op when off)."""

        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Record the high-water mark of gauge ``name`` (no-op when off)."""

        if not self.enabled:
            return
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = float(value)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def phase_totals_ms(self) -> dict[str, float]:
        """Total wall milliseconds per *root* span name (pipeline phase)."""

        totals: dict[str, float] = {}
        for record in self.spans:
            if record.parent == -1:
                totals[record.name] = (totals.get(record.name, 0.0)
                                       + record.duration_ms)
        return totals

    def snapshot(self) -> dict[str, Any]:
        """Lossless plain-dict export of the registry.

        The dict doubles as the cross-process wire format
        (schema ``repro.telemetry/1``): sweep workers snapshot their
        registry and ship it back through the job-result envelope, and
        the parent merges many snapshots into one timeline
        (:mod:`repro.telemetry.merge`).
        ``phases_ms`` / ``num_spans`` are derived conveniences kept for
        quick summaries; ``spans`` carries every record verbatim.
        """

        spans: list[dict[str, Any]] = []
        for record in self.spans:
            entry: dict[str, Any] = {
                "id": record.id, "parent": record.parent,
                "name": record.name, "cat": record.category,
                "start_ns": record.start_ns, "end_ns": record.end_ns,
                "depth": record.depth,
            }
            if record.args:
                entry["args"] = dict(record.args)
            spans.append(entry)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "wall_start": self.wall_start,
            "pid": self.pid,
            "tid": self.tid,
            "phases_ms": self.phase_totals_ms(),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "num_spans": len(self.spans),
            "spans": spans,
        }


#: The process-wide registry all instrumentation reports into.  It is a
#: single long-lived object (never rebound) so modules may cache it.
_GLOBAL = Telemetry(enabled=False)


def get_telemetry() -> Telemetry:
    """The process-wide telemetry registry (disabled by default)."""

    return _GLOBAL


def configure(enabled: bool = True) -> Telemetry:
    """Reset the process-wide registry and set its enablement."""

    _GLOBAL.reset()
    _GLOBAL.enabled = enabled
    return _GLOBAL


def telemetry_enabled() -> bool:
    return _GLOBAL.enabled


# Module-level conveniences routing to the process-wide registry -------
def span(name: str, category: str = "toolchain", **args: Any):
    if not _GLOBAL.enabled:
        return _NULL_SPAN
    return _Span(_GLOBAL, name, category, args)


def add(name: str, amount: float = 1.0) -> None:
    if _GLOBAL.enabled and amount:
        _GLOBAL.counters[name] = _GLOBAL.counters.get(name, 0.0) + amount


def set_gauge(name: str, value: float) -> None:
    if _GLOBAL.enabled:
        _GLOBAL.gauges[name] = float(value)


def max_gauge(name: str, value: float) -> None:
    if _GLOBAL.enabled:
        _GLOBAL.max_gauge(name, value)


def traced(name: Optional[str] = None, category: str = "toolchain") -> Callable:
    """Decorator timing a function through the process-wide registry.

    Enablement is checked at *call* time, so decorated functions keep
    the no-op fast path while telemetry is off.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not _GLOBAL.enabled:
                return fn(*args, **kwargs)
            with _GLOBAL.span(span_name, category=category):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
