"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import Engine, Event


def test_delay_advances_clock():
    engine = Engine()
    trace = []

    def proc():
        yield 10
        trace.append(engine.now)
        yield 5
        trace.append(engine.now)

    engine.spawn(proc())
    engine.run()
    assert trace == [10, 15]


def test_two_processes_interleave():
    engine = Engine()
    trace = []

    def proc(name, delay):
        yield delay
        trace.append((name, engine.now))
        yield delay
        trace.append((name, engine.now))

    engine.spawn(proc("a", 3))
    engine.spawn(proc("b", 5))
    engine.run()
    assert trace == [("a", 3), ("b", 5), ("a", 6), ("b", 10)]


def test_event_wait_and_set():
    engine = Engine()
    event = Event("go")
    trace = []

    def waiter():
        yield event
        trace.append(("woke", engine.now))

    def setter():
        yield 7
        event.set(engine)

    engine.spawn(waiter())
    engine.spawn(setter())
    engine.run()
    assert trace == [("woke", 7)]


def test_wait_on_already_triggered_event():
    engine = Engine()
    event = Event()
    event.set(engine)

    trace = []

    def waiter():
        yield event
        trace.append(engine.now)

    engine.spawn(waiter())
    engine.run()
    assert trace == [0]


def test_join_process():
    engine = Engine()
    trace = []

    def child():
        yield 12

    def parent():
        proc = engine.spawn(child())
        yield proc
        trace.append(engine.now)

    engine.spawn(parent())
    engine.run()
    assert trace == [12]


def test_spawn_at_future_time():
    engine = Engine()
    trace = []

    def proc():
        trace.append(engine.now)
        yield 0

    engine.spawn(proc(), at=42)
    engine.run()
    assert trace == [42]


def test_fifo_order_same_timestamp():
    engine = Engine()
    trace = []

    def proc(name):
        yield 5
        trace.append(name)

    for name in "abc":
        engine.spawn(proc(name))
    engine.run()
    assert trace == ["a", "b", "c"]


def test_run_until_horizon():
    engine = Engine()

    def proc():
        yield 100

    engine.spawn(proc())
    now = engine.run(until=30)
    assert now == 30


def test_run_until_horizon_advances_clock_when_heap_drains():
    engine = Engine()

    def proc():
        yield 10

    engine.spawn(proc())
    # every event fires by t=10; "run until 50" still means the clock
    # reaches the horizon (documented "run until the horizon" semantics)
    assert engine.run(until=50) == 50
    assert engine.now == 50


def _interleaved_workload(engine, trace):
    """Processes with same-cycle collisions; logs (time, name) tuples."""

    def worker(name, delay):
        for _ in range(4):
            yield delay
            trace.append((engine.now, name))

    event = Event("go")

    def setter():
        yield 6
        event.set(engine)

    def waiter():
        yield event
        trace.append((engine.now, "waiter"))

    # identical delays force same-timestamp FIFO ties every 6 cycles
    engine.spawn(worker("a", 3))
    engine.spawn(worker("b", 3))
    engine.spawn(worker("c", 2))
    engine.spawn(setter())
    engine.spawn(waiter())


def test_sliced_run_matches_uninterrupted_run():
    """Pausing at horizons must not reorder same-cycle events (determinism)."""

    straight = Engine()
    trace_straight = []
    _interleaved_workload(straight, trace_straight)
    straight.run()

    sliced = Engine()
    trace_sliced = []
    _interleaved_workload(sliced, trace_sliced)
    for horizon in range(0, 13):  # resume mid-collision repeatedly
        sliced.run(until=horizon)
    sliced.run()

    assert trace_sliced == trace_straight
    assert sliced.stats() == straight.stats()


def test_sliced_run_resumes_with_original_fifo_order():
    """Pausing just before a same-cycle tie must not rotate its FIFO order."""

    engine = Engine()
    trace = []

    def proc(name):
        yield 5
        trace.append(name)

    engine.spawn(proc("a"))
    engine.spawn(proc("b"))
    engine.run(until=2)  # pause with the t=5 tie still queued
    engine.run()
    assert trace == ["a", "b"]


def test_negative_delay_rejected():
    engine = Engine()

    def proc():
        yield -1

    engine.spawn(proc())
    with pytest.raises(RuntimeError, match="negative delay"):
        engine.run()


def test_bad_command_rejected():
    engine = Engine()

    def proc():
        yield "nope"

    engine.spawn(proc())
    with pytest.raises(TypeError, match="unsupported command"):
        engine.run()


def test_bool_delay_rejected():
    # a delay is a plain int; bool (an int subclass) is not one
    engine = Engine()

    def proc():
        yield True

    engine.spawn(proc())
    with pytest.raises(TypeError, match="unsupported command"):
        engine.run()


def test_causality_violation_detected():
    engine = Engine()

    def proc():
        yield 5

    process = engine.spawn(proc())
    engine.run()
    with pytest.raises(RuntimeError, match="causality"):
        engine.schedule(2, process)


def test_done_event_fires_on_completion():
    engine = Engine()

    def proc():
        yield 3

    process = engine.spawn(proc())
    assert not process.done.triggered
    engine.run()
    assert process.done.triggered


def test_event_repr_safe_before_and_after_trigger():
    engine = Engine()
    event = Event("go")
    assert repr(event) == "Event(go, pending, waiters=0)"

    def waiter():
        yield event

    engine.spawn(waiter())
    engine.run(until=0)
    assert "waiters=1" in repr(event)
    event.set(engine)
    assert repr(event) == "Event(go, fired)"
    anonymous = Event()
    assert "pending" in repr(anonymous)  # unnamed events are safe too


def test_process_repr():
    engine = Engine()

    def proc():
        yield 1

    process = engine.spawn(proc(), name="worker")
    assert repr(process) == "Process(worker, running)"
    engine.run()
    assert repr(process) == "Process(worker, done)"


def test_stats_counts_events_and_processes():
    engine = Engine()

    def proc(delay):
        yield delay
        yield delay

    engine.spawn(proc(2))
    engine.spawn(proc(3))
    stats = engine.stats()
    assert stats["processes_spawned"] == 2
    assert stats["queue_length"] == 2
    assert stats["heap_peak"] == 2
    assert stats["events_fired"] == 0

    engine.run()
    stats = engine.stats()
    assert stats["now"] == 6
    assert stats["queue_length"] == 0
    assert stats["active_processes"] == 0
    # each process dispatches 3 times: start, after 1st yield, completion
    assert stats["events_fired"] == 6
    assert stats["processes_spawned"] == 2


def test_stats_queue_length_respects_horizon():
    engine = Engine()

    def proc():
        yield 100

    engine.spawn(proc())
    engine.run(until=30)
    stats = engine.stats()
    assert stats["now"] == 30
    assert stats["queue_length"] == 1  # the pending wakeup at t=100


def test_all_of_helper():
    """A process that yields each of its children in turn resumes when
    the last of them is done."""

    engine = Engine()
    trace = []

    def child(delay):
        yield delay

    def parent():
        procs = [engine.spawn(child(d)) for d in (3, 9, 6)]
        for process in procs:
            yield process
        trace.append(engine.now)

    engine.spawn(parent())
    engine.run()
    assert trace == [9]
