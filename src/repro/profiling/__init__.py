"""The embedded profiling unit: configuration and runtime recording.

See §IV of the paper and DESIGN.md §3/§5.
"""

from .config import EventKind, ProfilingConfig, STATE_ENCODING, ThreadState
from .recorder import ProfilingRecorder, RunTrace, StateColumns, StateInterval

__all__ = [
    "EventKind", "ProfilingConfig", "STATE_ENCODING", "ThreadState",
    "ProfilingRecorder", "RunTrace", "StateColumns", "StateInterval",
]
