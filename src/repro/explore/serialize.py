"""``repro.explore/1`` JSON: serialization + structural validation.

The document records the whole exploration — every candidate with its
spec, knobs, analytic prediction, prune decision (or measured result
and frontier membership), the two measured Pareto frontiers, the
journey ranking, and the embedded ``repro.sweep/1`` result of the
evaluation stage — so a consumer can re-plot or audit the run without
re-executing anything.  ``validate_explore_dict``/``_file`` check the
same contract CI asserts, in the style of
:func:`repro.sweep.results.validate_sweep_dict`.
"""

from __future__ import annotations

import json
from typing import Any

from ..sweep.results import validate_sweep_dict

__all__ = ["EXPLORE_SCHEMA", "explore_to_dict", "explore_to_json",
           "validate_explore_dict", "validate_explore_file"]

EXPLORE_SCHEMA = "repro.explore/1"

_PRUNE_REASONS = ("dominated", "over_budget", "eval_budget")


def explore_to_dict(result) -> dict:
    """Flatten an :class:`~repro.explore.runner.ExploreResult`."""

    candidates = []
    for outcome in result.outcomes:
        spec = outcome.candidate.spec
        measured = None
        if outcome.result is not None:
            job = outcome.result
            measured = {"job_id": job.job_id, "status": job.status,
                        "cycles": job.cycles, "gflops": job.gflops,
                        "wall_s": job.wall_s,
                        "report_path": job.report_path}
        candidates.append({
            "id": outcome.id,
            "spec": spec.to_dict(),
            "knobs": outcome.candidate.knob_dict(),
            "prediction": outcome.prediction.to_dict(),
            "pruned": outcome.pruned.to_dict() if outcome.pruned else None,
            "measured": measured,
            "frontier": {"alms": outcome.frontier_alms,
                         "registers": outcome.frontier_registers},
        })
    return {
        "schema": EXPLORE_SCHEMA,
        "app": result.space.app,
        "space": {
            "name": result.space.name,
            "enumerated": len(result.outcomes),
            "pruned": len(result.pruned),
            "evaluated": len(result.evaluated),
            "pruned_fraction": result.pruned_fraction,
            "dominance": result.dominance,
        },
        "budget": result.budget.to_dict() if result.budget else None,
        "candidates": candidates,
        "frontier": {
            "alms": [o.id for o in result.frontier("alms")],
            "registers": [o.id for o in result.frontier("registers")],
        },
        "journey": result.journey(),
        "wall_s": result.wall_s,
        "model_wall_s": result.model_wall_s,
        "sweep": result.sweep.to_dict() if result.sweep else None,
    }


def explore_to_json(result, indent: int = 2) -> str:
    return json.dumps(explore_to_dict(result), indent=indent)


def _fail(message: str) -> None:
    raise ValueError(f"invalid explore result: {message}")


def validate_explore_dict(doc: Any) -> dict:
    """Structurally validate a ``repro.explore/1`` document."""

    if not isinstance(doc, dict):
        _fail(f"expected an object, got {type(doc).__name__}")
    if doc.get("schema") != EXPLORE_SCHEMA:
        _fail(f"schema is {doc.get('schema')!r}, expected "
              f"{EXPLORE_SCHEMA!r}")
    if doc.get("app") not in ("gemm", "pi"):
        _fail(f"app is {doc.get('app')!r}, expected 'gemm' or 'pi'")

    space = doc.get("space")
    if not isinstance(space, dict):
        _fail("'space' must be an object")
    for key in ("enumerated", "pruned", "evaluated"):
        if not isinstance(space.get(key), int) or space[key] < 0:
            _fail(f"space.{key} must be a non-negative integer")
    if space["pruned"] + space["evaluated"] > space["enumerated"]:
        _fail("space counts inconsistent: pruned + evaluated > enumerated")

    candidates = doc.get("candidates")
    if not isinstance(candidates, list) or not candidates:
        _fail("'candidates' must be a non-empty list")
    if len(candidates) != space["enumerated"]:
        _fail(f"{len(candidates)} candidate records but space.enumerated "
              f"is {space['enumerated']}")
    ids = set()
    for number, record in enumerate(candidates):
        where = f"candidates[{number}]"
        if not isinstance(record, dict):
            _fail(f"{where} is not an object")
        cid = record.get("id")
        if not isinstance(cid, str) or not cid:
            _fail(f"{where} needs a non-empty string 'id'")
        if cid in ids:
            _fail(f"{where}: duplicate candidate id {cid!r}")
        ids.add(cid)
        prediction = record.get("prediction")
        if not isinstance(prediction, dict):
            _fail(f"{where} needs a 'prediction' object")
        for key in ("cycles", "alms", "registers"):
            if not isinstance(prediction.get(key), int) \
                    or prediction[key] < 0:
                _fail(f"{where}.prediction.{key} must be a non-negative "
                      "integer")
        pruned = record.get("pruned")
        measured = record.get("measured")
        if pruned is not None:
            if not isinstance(pruned, dict) \
                    or pruned.get("reason") not in _PRUNE_REASONS:
                _fail(f"{where}.pruned.reason must be one of "
                      f"{_PRUNE_REASONS}")
            if measured is not None:
                _fail(f"{where}: a candidate cannot be both pruned and "
                      "measured")
        if measured is not None and not isinstance(measured, dict):
            _fail(f"{where}.measured must be an object")

    frontier = doc.get("frontier")
    if not isinstance(frontier, dict):
        _fail("'frontier' must be an object")
    for axis in ("alms", "registers"):
        members = frontier.get(axis)
        if not isinstance(members, list):
            _fail(f"frontier.{axis} must be a list")
        for cid in members:
            if cid not in ids:
                _fail(f"frontier.{axis} names unknown candidate {cid!r}")

    journey = doc.get("journey")
    if not isinstance(journey, list):
        _fail("'journey' must be a list")
    for number, row in enumerate(journey):
        if not isinstance(row, dict) or row.get("id") not in ids:
            _fail(f"journey[{number}] must reference a known candidate")
        if row.get("source") not in ("measured", "predicted"):
            _fail(f"journey[{number}].source must be 'measured' or "
                  "'predicted'")

    if doc.get("sweep") is not None:
        validate_sweep_dict(doc["sweep"])
    return doc


def validate_explore_file(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read explore result {path!r}: "
                         f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
    return validate_explore_dict(doc)
