"""Cycle accounting: attribute every non-useful cycle to a cause.

The profiling unit's ``STALLS`` counter says *how much* the pipelines
waited; this module says *why*.  When ``SimConfig.attribution`` is on,
the executor decomposes each thread's wall clock — every cycle between
0 and the end of the run — into **useful** work plus eight loss causes,
per (thread, region):

* ``II_LIMIT`` — waiting for the shared datapath's initiation interval
  (the leaky-bucket issue slot, §III-B C-slow interleaving);
* ``LOCAL_PORT_CONFLICT`` — BRAM port booking against other threads;
* ``DRAM_LATENCY`` / ``DRAM_ARBITRATION`` / ``DRAM_ROW_MISS`` — a late
  external-memory response stalling the pipeline, split into the base
  latency/bus-transfer share, the channel-arbitration share and the
  row-activation share;
* ``SYNC_WAIT`` — semaphore spinning, barriers and end-of-run join;
* ``DRAIN`` — pipeline drain after the last issue of a loop;
* ``CONTROL`` — loop/branch control bubbles and the host-driven
  staggered launch.

The decomposition is exact by construction: for every thread,
``useful + Σ causes == end_cycle`` holds as an integer identity (see
:meth:`AttributionTable.check`), and the scalar reference and the
vectorized fast path produce bit-identical tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Cause", "N_SLOTS", "CAUSE_SLOTS", "AttributionTable",
           "REGION_LAUNCH", "REGION_JOIN", "REGION_SYNC", "REGION_CONTROL",
           "REGION_OTHER", "loop_region", "segment_region"]


class Cause(enum.IntEnum):
    """Slot index of each accounting bucket (``USEFUL`` is slot 0)."""

    USEFUL = 0
    II_LIMIT = 1
    LOCAL_PORT_CONFLICT = 2
    DRAM_LATENCY = 3
    DRAM_ARBITRATION = 4
    DRAM_ROW_MISS = 5
    SYNC_WAIT = 6
    DRAIN = 7
    CONTROL = 8


#: number of accounting slots per (region, thread) cell
N_SLOTS = len(Cause)

#: slots that are losses (everything but USEFUL), in slot order
CAUSE_SLOTS = tuple(cause for cause in Cause if cause is not Cause.USEFUL)

# Pseudo-region keys for cycles that belong to no schedule item.  Real
# regions use non-negative keys: ``2*uid`` for loops, ``2*uid + 1`` for
# segments (loop and segment uid namespaces are independent).
REGION_LAUNCH = -2   #: host-driven staggered thread start
REGION_JOIN = -3     #: finished thread waiting for the run to end
REGION_SYNC = -4     #: critical-section acquire / barrier wait
REGION_CONTROL = -5  #: branch bubbles outside any loop
REGION_OTHER = -6    #: hand-built schedule items without a stable uid


def loop_region(uid: int) -> int:
    """Region key of a pipelined/sequential loop with schedule uid ``uid``."""

    return 2 * uid if uid >= 0 else REGION_OTHER


def segment_region(uid: int) -> int:
    """Region key of a straight-line segment with schedule uid ``uid``."""

    return 2 * uid + 1 if uid >= 0 else REGION_OTHER


_PSEUDO_LABELS = {
    REGION_LAUNCH: "(launch)",
    REGION_JOIN: "(join)",
    REGION_SYNC: "(sync)",
    REGION_CONTROL: "(control)",
    REGION_OTHER: "(other)",
}


def pseudo_regions() -> dict[int, str]:
    """Labels for the pseudo-regions every table starts with."""

    return dict(_PSEUDO_LABELS)


@dataclass
class AttributionTable:
    """Per-(region, thread) cycle-accounting cells.

    ``cells[(region, thread)]`` is a length-:data:`N_SLOTS` list of
    integer cycle counts indexed by :class:`Cause`.  ``regions`` maps
    every region key (real or pseudo) to a display label.
    """

    num_threads: int
    regions: dict[int, str] = field(default_factory=pseudo_regions)
    cells: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def deposit(self, region: int, thread: int, amounts) -> None:
        """Accumulate ``amounts`` (length :data:`N_SLOTS`) into a cell."""

        cell = self.cells.get((region, thread))
        if cell is None:
            cell = self.cells[(region, thread)] = [0] * N_SLOTS
        for slot, amount in enumerate(amounts):
            if amount:
                cell[slot] += amount

    # ------------------------------------------------------------------
    def thread_totals(self) -> list[list[int]]:
        """Per-thread slot sums: ``[threads][N_SLOTS]``."""

        totals = [[0] * N_SLOTS for _ in range(self.num_threads)]
        for (_region, thread), cell in self.cells.items():
            if 0 <= thread < self.num_threads:
                row = totals[thread]
                for slot in range(N_SLOTS):
                    row[slot] += cell[slot]
        return totals

    def slot_totals(self) -> list[int]:
        """Whole-run slot sums across all threads and regions."""

        totals = [0] * N_SLOTS
        for cell in self.cells.values():
            for slot in range(N_SLOTS):
                totals[slot] += cell[slot]
        return totals

    # ------------------------------------------------------------------
    def region_rows(self) -> list[dict]:
        """One summary row per region, ranked by lost cycles (desc).

        Each row has ``region`` (key), ``label``, ``useful``, ``lost``,
        and ``causes`` (cause-name -> cycles, losses only).
        """

        per_region: dict[int, list[int]] = {}
        for (region, _thread), cell in self.cells.items():
            row = per_region.setdefault(region, [0] * N_SLOTS)
            for slot in range(N_SLOTS):
                row[slot] += cell[slot]
        rows = []
        for region, totals in per_region.items():
            lost = sum(totals) - totals[Cause.USEFUL]
            rows.append({
                "region": region,
                "label": self.regions.get(region, f"region {region}"),
                "useful": totals[Cause.USEFUL],
                "lost": lost,
                "causes": {cause.name.lower(): totals[cause]
                           for cause in CAUSE_SLOTS if totals[cause]},
            })
        rows.sort(key=lambda row: (-row["lost"], row["region"]))
        return rows

    # ------------------------------------------------------------------
    def check(self, end_cycle: int) -> list[tuple[int, int, int]]:
        """Verify ``useful + Σ causes == end_cycle`` for every thread.

        Returns one ``(thread, accounted, expected)`` tuple per
        violating thread — empty means the invariant holds exactly.
        """

        violations = []
        for thread, row in enumerate(self.thread_totals()):
            accounted = sum(row)
            if accounted != end_cycle:
                violations.append((thread, accounted, end_cycle))
        return violations

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributionTable):
            return NotImplemented
        return (self.num_threads == other.num_threads
                and self.regions == other.regions
                and {k: v for k, v in self.cells.items() if any(v)}
                == {k: v for k, v in other.cells.items() if any(v)})
