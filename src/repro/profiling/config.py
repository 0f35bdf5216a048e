"""Configuration of the embedded profiling unit (§IV of the paper).

The profiling unit snoops the accelerator's pipelines and collects two
kinds of Paraver records:

* **states** — one 2-bit state per hardware thread (Idle / Running /
  Critical / Spinning, Fig. 2).  Whenever at least one thread changes
  state, a record of ``2*N_threads + 32`` bits (all states + clock) is
  pushed into the trace buffer (§IV-B.1).
* **events** — per-thread aggregating counters (stalls, floating-point
  and integer operation counts, memory bytes read/written), flushed to
  the trace every ``sampling_period`` cycles (§IV-B.2).

The trace buffer is ``buffer_width`` bits wide (512 by default, the
external memory controller's data width; it sizes the unit's registers
in the area model).  Every ``sampling_period`` cycles the simulator
(``_Runtime.flush_ticker``) writes one flush to external memory — all
threads' counters plus the state records made since the previous flush
— consuming real bus bandwidth; the buffer's fill level never triggers
a flush.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ThreadState", "EventKind", "ProfilingConfig", "STATE_ENCODING",
           "ATTRIBUTION_EVENTS", "COUNTER_WIDTH"]

#: event counter width in bits (64-bit counters, §IV-B.2)
COUNTER_WIDTH = 64


class ThreadState(enum.IntEnum):
    """Per-thread execution state with its 2-bit hardware encoding (§IV-B.1)."""

    IDLE = 0b00
    RUNNING = 0b01
    CRITICAL = 0b10
    SPINNING = 0b11


#: state -> 2-bit encoding, as listed in the paper
STATE_ENCODING = {state: int(state) for state in ThreadState}


class EventKind(enum.Enum):
    """Event counter types supported by the profiling unit (§IV-B.2)."""

    STALLS = "stalls"
    FLOPS = "flops"
    INTOPS = "intops"
    MEM_READ_BYTES = "mem_read_bytes"
    MEM_WRITE_BYTES = "mem_write_bytes"
    # cycle-accounting counters (SimConfig.attribution).  These are
    # *virtual*: produced by the simulator's accounting layer rather
    # than the modeled hardware unit, so they are never part of
    # ProfilingConfig.events and contribute no flush traffic — the
    # simulated cycles are identical with attribution on or off.
    ATTR_USEFUL = "attr_useful"
    ATTR_II_LIMIT = "attr_ii_limit"
    ATTR_LOCAL_PORT_CONFLICT = "attr_local_port_conflict"
    ATTR_DRAM_LATENCY = "attr_dram_latency"
    ATTR_DRAM_ARBITRATION = "attr_dram_arbitration"
    ATTR_DRAM_ROW_MISS = "attr_dram_row_miss"
    ATTR_SYNC_WAIT = "attr_sync_wait"
    ATTR_DRAIN = "attr_drain"
    ATTR_CONTROL = "attr_control"

    # members are singletons and compare by identity, so the identity
    # hash is consistent with equality — and C-level, unlike
    # ``Enum.__hash__`` which rehashes the member name on every dict or
    # set lookup (the executor's add_many calls look each kind up in the
    # recorder's column map, and attribution deposits key dicts by kind)
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: the attribution counters in :class:`~repro.profiling.attribution.Cause`
#: slot order (USEFUL first)
ATTRIBUTION_EVENTS: tuple[EventKind, ...] = (
    EventKind.ATTR_USEFUL, EventKind.ATTR_II_LIMIT,
    EventKind.ATTR_LOCAL_PORT_CONFLICT, EventKind.ATTR_DRAM_LATENCY,
    EventKind.ATTR_DRAM_ARBITRATION, EventKind.ATTR_DRAM_ROW_MISS,
    EventKind.ATTR_SYNC_WAIT, EventKind.ATTR_DRAIN, EventKind.ATTR_CONTROL,
)


@dataclass(frozen=True)
class ProfilingConfig:
    """What the profiling unit records and how."""

    enabled: bool = True
    record_states: bool = True
    events: tuple[EventKind, ...] = (
        EventKind.STALLS, EventKind.FLOPS, EventKind.INTOPS,
        EventKind.MEM_READ_BYTES, EventKind.MEM_WRITE_BYTES,
    )
    #: cycles between event-counter flushes ("user-adjustable, a proxy over
    #: how fine-grained information is required", §IV-B.2)
    sampling_period: int = 2048
    #: trace buffer line width in bits (the external controller data width)
    buffer_width: int = 512

    @staticmethod
    def disabled() -> "ProfilingConfig":
        """A configuration with the whole unit absent (baseline hardware)."""

        return ProfilingConfig(enabled=False, record_states=False, events=())

    def state_record_bits(self, num_threads: int) -> int:
        """Size of one state record: 2 bits per thread + 32-bit clock (§IV-B.1)."""

        return 2 * num_threads + 32

    def event_record_bits(self, num_threads: int) -> int:
        """Size of one event flush: one counter per event per thread + clock."""

        return COUNTER_WIDTH * len(self.events) * num_threads + 32
