"""The explore pipeline: score → prune → evaluate → frontier.

``explore(space, budget=...)`` is the programmatic API behind
``repro explore``: every candidate is compiled once per unique
hardware configuration and scored by the analytic model,
dominated/over-budget points are pruned, and the survivors run for
real through :func:`repro.sweep.run_sweep` — inheriting its process
fan-out, per-job timeouts, live progress and telemetry snapshots.
Each evaluation job compiles its survivor again (a few milliseconds,
small next to its simulation) rather than reusing the scoring
compile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .. import telemetry
from ..apps.runners import compile_gemm, compile_pi
from ..hls.compiler import Accelerator
from ..sweep.progress import TTYProgress
from ..sweep.results import JobResult, SweepResult
from ..sweep.runner import run_sweep
from ..sweep.spec import SweepSpec
from .model import Prediction, predict
from .pareto import Budget, PruneDecision, pareto_front, prune_candidates
from .space import Candidate, ExploreSpace

__all__ = ["CandidateOutcome", "ExploreResult", "explore"]


@dataclass
class CandidateOutcome:
    """Everything explore learned about one candidate."""

    candidate: Candidate
    prediction: Prediction
    pruned: Optional[PruneDecision] = None
    result: Optional[JobResult] = None
    frontier_alms: bool = False
    frontier_registers: bool = False

    @property
    def id(self) -> str:
        return self.candidate.id

    @property
    def measured_cycles(self) -> Optional[int]:
        if self.result is not None and self.result.status == "ok":
            return self.result.cycles
        return None

    @property
    def cycles(self) -> int:
        """Measured cycles when available, predicted otherwise."""

        measured = self.measured_cycles
        return measured if measured is not None else self.prediction.cycles

    @property
    def on_frontier(self) -> bool:
        return self.frontier_alms or self.frontier_registers


@dataclass
class ExploreResult:
    """Outcome of one exploration (see DESIGN.md §12)."""

    space: ExploreSpace
    outcomes: list[CandidateOutcome]
    budget: Optional[Budget] = None
    sweep: Optional[SweepResult] = None
    wall_s: float = 0.0
    model_wall_s: float = 0.0
    dominance: bool = True

    def outcome(self, candidate_id: str) -> CandidateOutcome:
        for outcome in self.outcomes:
            if outcome.id == candidate_id:
                return outcome
        raise KeyError(candidate_id)

    @property
    def pruned(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if o.pruned is not None]

    @property
    def evaluated(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if o.result is not None]

    @property
    def measured(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if o.measured_cycles is not None]

    @property
    def pruned_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return len(self.pruned) / len(self.outcomes)

    def frontier(self, axis: str = "alms") -> list[CandidateOutcome]:
        """Measured Pareto frontier: cycles vs ``alms``/``registers``."""

        if axis not in ("alms", "registers"):
            raise ValueError(f"unknown frontier axis {axis!r} "
                             "(expected 'alms' or 'registers')")
        flag = "frontier_" + axis
        front = [o for o in self.outcomes if getattr(o, flag)]
        return sorted(front, key=lambda o: o.cycles)

    def journey(self) -> list[dict]:
        """Best point per version (GEMM) / per step count (π).

        Measured cycles where a candidate was evaluated, predicted
        (flagged via ``source``) where the whole group was pruned —
        the rows a caller checks against the paper's v1→v5 ordering.
        """

        groups: dict = {}
        for outcome in self.outcomes:
            key = outcome.candidate.spec.version \
                if self.space.app == "gemm" else outcome.candidate.spec.steps
            best = groups.get(key)
            if best is None or _journey_rank(outcome) < _journey_rank(best):
                groups[key] = outcome
        rows = []
        for key, outcome in groups.items():
            measured = outcome.measured_cycles
            rows.append({
                "group": str(key),
                "id": outcome.id,
                "cycles": outcome.cycles,
                "source": "measured" if measured is not None else "predicted",
                "pruned": outcome.pruned.reason if outcome.pruned else None,
            })
        rows.sort(key=lambda row: row["cycles"], reverse=True)
        return rows

    def to_dict(self) -> dict:
        from .serialize import explore_to_dict
        return explore_to_dict(self)

    def to_json(self, path: Optional[str] = None) -> str:
        from .serialize import explore_to_json
        text = explore_to_json(self)
        if path:
            with open(path, "w") as out:
                out.write(text + "\n")
        return text


def _journey_rank(outcome: CandidateOutcome) -> tuple[int, int]:
    # measured beats predicted; fewer cycles beats more
    return (0 if outcome.measured_cycles is not None else 1, outcome.cycles)


def _score(space: ExploreSpace) -> list[tuple[Candidate, Prediction]]:
    """Compile + analytically score every candidate."""

    compiled: dict[tuple, Accelerator] = {}
    scored = []
    for candidate in space.candidates:
        spec = candidate.spec
        if spec.app == "gemm":
            key = ("gemm", spec.version, spec.threads, spec.vector_len,
                   spec.block_size)
            if key not in compiled:
                compiled[key] = compile_gemm(
                    spec.version, num_threads=spec.threads,
                    vector_len=spec.vector_len, block_size=spec.block_size)
        else:
            key = ("pi", spec.threads, spec.bs_compute)
            if key not in compiled:
                compiled[key] = compile_pi(num_threads=spec.threads,
                                           bs_compute=spec.bs_compute)
        scored.append((candidate, predict(candidate, compiled[key])))
    return scored


def explore(space: ExploreSpace, *, budget: Optional[Budget] = None,
            dominance: bool = True, jobs: int = 1,
            timeout: Optional[float] = None,
            report_dir: Optional[str] = None, keep_runs: bool = False,
            progress: Optional[TTYProgress] = None,
            capture_telemetry: Optional[bool] = None) -> ExploreResult:
    """Run the full explore pipeline over ``space``.

    ``dominance=False`` disables Pareto pruning (resource/eval budgets
    still apply) — useful for auditing the analytic model against
    measurements over the whole space.  All remaining keywords are
    forwarded to :func:`~repro.sweep.runner.run_sweep` for the
    evaluation stage.
    """

    start = time.perf_counter()

    with telemetry.span("explore.model", category="explore",
                        candidates=len(space.candidates)):
        scored = _score(space)
    model_wall = time.perf_counter() - start

    decisions = prune_candidates(scored, budget, dominance=dominance)
    telemetry.add("explore.candidates", len(scored))
    telemetry.add("explore.pruned", len(decisions))

    outcomes = [CandidateOutcome(candidate, prediction,
                                 pruned=decisions.get(candidate.id))
                for candidate, prediction in scored]

    survivors = [o.candidate.spec for o in outcomes if o.pruned is None]
    telemetry.add("explore.evaluated", len(survivors))
    sweep = None
    if survivors:
        sweep = run_sweep(SweepSpec(survivors, name=space.name), jobs=jobs,
                          timeout=timeout, report_dir=report_dir,
                          keep_runs=keep_runs, progress=progress,
                          capture_telemetry=capture_telemetry)
        by_id = {job.job_id: job for job in sweep.jobs}
        for outcome in outcomes:
            if outcome.pruned is None:
                outcome.result = by_id.get(outcome.candidate.spec.job_id)

    _mark_frontiers(outcomes)
    return ExploreResult(space, outcomes, budget=budget, sweep=sweep,
                         wall_s=time.perf_counter() - start,
                         model_wall_s=model_wall, dominance=dominance)


def _mark_frontiers(outcomes: list[CandidateOutcome]) -> None:
    measured = [o for o in outcomes if o.measured_cycles is not None]
    for axis, flag in (("alms", "frontier_alms"),
                       ("registers", "frontier_registers")):
        points = [(float(o.measured_cycles), float(getattr(o.prediction,
                                                           axis)), o.id)
                  for o in measured]
        front = set(pareto_front(points))
        for outcome in measured:
            setattr(outcome, flag, outcome.id in front)
