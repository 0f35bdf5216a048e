"""Paraver toolchain: trace writing, parsing, analysis and ASCII rendering.

The writer produces genuine Paraver ``.prv``/``.pcf``/``.row`` files that
load in the actual tool; the analysis module computes programmatically
what the paper's figures show visually.  See DESIGN.md §3.
"""

from .analysis import (
    PhaseStats, bandwidth_series_gbs, gflops_series, phase_overlap,
    temporal_overlap, thread_activity_windows,
)
from .format import (
    CommRecord, EVENT_TYPE_IDS, STATE_IDS, ParaverFiles, write_trace,
)
from .metadata import (
    PcfInfo, RowInfo, companion_paths, parse_pcf, parse_row,
)
from .parser import (
    ParaverParseError, ParsedComm, ParsedEvent, ParsedState, ParsedTrace,
    PrvHeader, parse_prv, stream_prv,
)
from .reconstruct import (
    ReconstructedRun, reconstruct_run, reconstruct_trace,
    recover_sampling_period,
)
from .render import (
    STATE_GLYPHS, render_series, render_state_timeline, state_occupancy,
)

__all__ = [
    "PhaseStats", "bandwidth_series_gbs", "gflops_series", "phase_overlap",
    "temporal_overlap", "thread_activity_windows",
    "CommRecord", "EVENT_TYPE_IDS", "STATE_IDS", "ParaverFiles",
    "write_trace",
    "PcfInfo", "RowInfo", "companion_paths", "parse_pcf", "parse_row",
    "ParaverParseError", "ParsedComm", "ParsedEvent", "ParsedState",
    "ParsedTrace", "PrvHeader", "parse_prv", "stream_prv",
    "ReconstructedRun", "reconstruct_run", "reconstruct_trace",
    "recover_sampling_period",
    "STATE_GLYPHS", "render_series", "render_state_timeline",
    "state_occupancy",
]
