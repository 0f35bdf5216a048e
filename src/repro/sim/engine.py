"""A small discrete-event simulation kernel.

Processes are Python generators that yield *commands*:

* an ``int``    — advance this process by that many cycles (exactly
  ``int``: a ``bool`` or ``IntEnum`` is rejected);
* an ``Event``  — suspend until the event fires;
* a ``Process`` — suspend until that process finishes.

The engine keeps a single global clock in cycles.  Heavy inner loops
(pipelined kernel loops) deliberately do *not* yield per iteration —
they run chunked and yield once per chunk (see
:mod:`repro.sim.executor`), keeping the event count per simulation low.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generator, Optional, Union

__all__ = ["Engine", "Event", "Process", "Subrun", "Command"]


class Event:
    """A one-shot level-triggered event."""

    __slots__ = ("triggered", "waiters", "name")

    def __init__(self, name: str = ""):
        self.triggered = False
        self.waiters: list[Process] = []
        self.name = name

    def set(self, engine: "Engine") -> None:
        if self.triggered:
            return
        self.triggered = True
        waiters, self.waiters = self.waiters, []
        for process in waiters:
            engine.schedule(engine.now, process)

    def __repr__(self) -> str:
        # Safe at any lifecycle point: uses only this object's own slots
        # (pre-trigger there is no engine reference to reach for).
        label = self.name or f"@{id(self):#x}"
        if self.triggered:
            return f"Event({label}, fired)"
        return f"Event({label}, pending, waiters={len(self.waiters)})"


class Subrun:
    """Engine command: run ``generator`` in the yielding process's slot.

    Semantically identical to ``yield from generator`` — the caller
    resumes in the same dispatch slot once the sub-generator is
    exhausted — but the engine swaps the process's generator pointer so
    every resume enters the sub-generator directly instead of walking
    the caller's ``yield from`` delegation chain frame by frame.  Used
    by long-running generated drivers (hundreds of thousands of
    resumptions) where the per-resume chain walk dominates.
    """

    __slots__ = ("generator",)

    def __init__(self, generator: Generator["Command", None, None]):
        self.generator = generator


Command = Union[int, Event, "Process", Subrun]


class Process:
    """A running generator with a completion event."""

    __slots__ = ("generator", "done", "name", "stack")

    def __init__(self, generator: Generator[Command, None, None], name: str = ""):
        self.generator = generator
        self.done = Event(f"done:{name}")
        self.name = name
        #: suspended caller generators while a Subrun command is active
        self.stack: Optional[list] = None

    def __repr__(self) -> str:
        state = "done" if self.done.triggered else "running"
        return f"Process({self.name or f'@{id(self):#x}'}, {state})"


class Engine:
    """Discrete-event scheduler over a single cycle clock."""

    def __init__(self):
        self.now: int = 0
        self._heap: list[tuple[int, int, Process]] = []
        self._seq = itertools.count()
        self._active = 0
        # Plain-int counters (cheap enough for the hot loop); surfaced
        # through stats() for telemetry and tests alike.
        self.events_fired = 0
        self.processes_spawned = 0
        self.heap_peak = 0

    # ------------------------------------------------------------------
    def spawn(self, generator: Generator[Command, None, None],
              name: str = "", at: Optional[int] = None) -> Process:
        """Register a new process starting at time ``at`` (default: now)."""

        process = Process(generator, name)
        self._active += 1
        self.processes_spawned += 1
        self.schedule(self.now if at is None else at, process)
        return process

    def schedule(self, when: int, process: Process) -> None:
        if when < self.now:
            raise RuntimeError(
                f"causality violation: scheduling {process.name!r} at {when} "
                f"but the clock is already at {self.now}")
        heapq.heappush(self._heap, (when, next(self._seq), process))
        if len(self._heap) > self.heap_peak:
            self.heap_peak = len(self._heap)

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run until no events remain (or the ``until`` horizon); returns now.

        Pausing at a horizon and resuming is *exactly* equivalent to an
        uninterrupted run: over-horizon events stay in the heap (peeked,
        never re-popped) or are parked with a fresh sequence number only
        when no same-cycle competitor exists, so same-cycle FIFO order
        is identical either way, and a drained heap still advances the
        clock to the horizon.

        The dispatch loop is inlined (no per-event ``_step`` call) and
        the dominant ``yield int`` command takes a fast path: while the
        woken process remains the *sole* runnable one (its wakeup is
        strictly earlier than the next queued event), it keeps stepping
        without a heap round-trip.  Tie cases always go through the
        heap, preserving FIFO order among same-cycle events.
        """

        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq_next = self._seq.__next__
        fired = self.events_fired
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return until
                when, _, process = pop(heap)
                self.now = when
                generator = process.generator
                while True:
                    fired += 1
                    try:
                        command = next(generator)
                    except StopIteration:
                        stack = process.stack
                        if stack:
                            # a Subrun finished: resume its caller in
                            # the same dispatch slot (yield-from law)
                            generator = process.generator = stack.pop()
                            continue
                        self._active -= 1
                        process.done.set(self)
                        break
                    if type(command) is int:
                        if command < 0:
                            raise RuntimeError(
                                f"negative delay {command} from "
                                f"{process.name!r}")
                        wake = self.now + command
                        if (until is None or wake <= until) and \
                                (not heap or wake < heap[0][0]):
                            self.now = wake  # sole runnable: step inline
                            continue
                        push(heap, (wake, seq_next(), process))
                        if len(heap) > self.heap_peak:
                            self.heap_peak = len(heap)
                        break
                    if type(command) is Subrun:
                        stack = process.stack
                        if stack is None:
                            stack = process.stack = []
                        stack.append(generator)
                        generator = process.generator = command.generator
                        continue  # first step of the sub-generator
                    if isinstance(command, Event):
                        if command.triggered:
                            push(heap, (self.now, seq_next(), process))
                            if len(heap) > self.heap_peak:
                                self.heap_peak = len(heap)
                        else:
                            command.waiters.append(process)
                        break
                    if isinstance(command, Process):
                        done = command.done
                        if done.triggered:
                            push(heap, (self.now, seq_next(), process))
                            if len(heap) > self.heap_peak:
                                self.heap_peak = len(heap)
                        else:
                            done.waiters.append(process)
                        break
                    raise TypeError(f"process {process.name!r} yielded "
                                    f"unsupported command {command!r}")
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self.events_fired = fired

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Engine counters — one source of truth for telemetry and tests.

        ``events_fired`` counts process dispatches (generator
        resumptions, whether reached via a heap pop or the inline
        fast path), ``queue_length`` the events still pending,
        ``heap_peak`` the event-queue high-water mark.
        """

        return {
            "now": self.now,
            "events_fired": self.events_fired,
            "queue_length": len(self._heap),
            "active_processes": self._active,
            "processes_spawned": self.processes_spawned,
            "heap_peak": self.heap_peak,
        }
