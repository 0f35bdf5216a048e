"""Tests for the design-space exploration subsystem.

Small problem sizes for anything that simulates (dim-16 GEMM); the
analytic model, pruning and frontier logic run on compiled-but-never-
simulated candidates, so those tests use the paper's case-study size
(dim 64) where the predicted ordering is the one the paper reports.
"""

import json

import pytest

from repro import telemetry
from repro.explore import (
    Budget, Candidate, ExploreSpace, Prediction, explore, extract_facts,
    gemm_space, pareto_front, pi_space, predict, prune_candidates,
    render_explore_html, validate_explore_dict,
)
from repro.explore.runner import _score
from repro.sweep import JobSpec


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    telemetry.configure(enabled=False)


def _scored(dims=(64,), **kwargs):
    """Compile + analytically score a GEMM space (no simulation)."""

    return _score(gemm_space(dims=dims, **kwargs), cache=None)


def _fake(cid, cycles, alms=1000, registers=2000):
    spec = JobSpec(app="gemm", version="naive", dim=64, label=cid)
    prediction = Prediction(cycles=cycles, memory_cycles=cycles,
                            compute_cycles=0, critical_cycles=0,
                            overhead_cycles=0, bound="memory", alms=alms,
                            registers=registers, fmax_mhz=140.0)
    return Candidate(spec), prediction


# ----------------------------------------------------------------------
# space enumeration
# ----------------------------------------------------------------------
class TestSpace:
    def test_default_gemm_space_is_the_knob_cross_product(self):
        space = gemm_space()
        # 3 scalar versions x 1 + vectorized x 2 vls + 3 tiled versions
        # x 4 valid (vl, bs) pairs
        assert len(space) == 17
        assert space.app == "gemm"

    def test_knobs_only_enumerated_where_exposed(self):
        space = gemm_space()
        by_version = {}
        for candidate in space.candidates:
            by_version.setdefault(candidate.spec.version, []).append(
                candidate)
        assert len(by_version["naive"]) == 1
        assert by_version["naive"][0].knobs == ()
        assert len(by_version["vectorized"]) == 2
        assert len(by_version["blocked"]) == 4
        assert all("block_size" in c.knob_dict()
                   for c in by_version["blocked"])

    def test_divisibility_constraints_filter_candidates(self):
        # dim 20: not divisible by block size 8 -> only bs-4 tiles
        space = gemm_space(dims=(20,), threads=(4,), vector_lens=(4,),
                          block_sizes=(4, 8))
        tiled = [c for c in space.candidates
                 if "block_size" in c.knob_dict()]
        assert tiled and all(c.spec.block_size == 4 for c in tiled)
        # dim not divisible by threads -> empty space
        assert len(gemm_space(dims=(20,), threads=(3,))) == 0

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unknown GEMM versions"):
            gemm_space(versions=["quantum"])

    def test_candidate_ids_unique_and_human_readable(self):
        space = gemm_space(dims=(32, 64))
        ids = [c.id for c in space.candidates]
        assert len(ids) == len(set(ids))
        assert "gemm-blocked-d64-t8-vl4-bs8" in ids

    def test_duplicate_ids_rejected_at_space_construction(self):
        candidate, _ = _fake("same", 100)
        with pytest.raises(ValueError, match="duplicate candidate id"):
            ExploreSpace("gemm", [candidate, candidate])

    @pytest.mark.parametrize("build, message", [
        (lambda: gemm_space(dims=(16,), threads=(0,)), "threads=0"),
        (lambda: gemm_space(dims=(0,)), "DIM=0"),
        (lambda: gemm_space(dims=(16,), threads=(4,), vector_lens=(0,)),
         "vector_len=0"),
        (lambda: gemm_space(dims=(16,), threads=(4,), block_sizes=(-4,)),
         "block_size=-4"),
        (lambda: pi_space(threads=(0,)), "threads=0"),
        (lambda: pi_space(bs_compute=(0,)), "bs_compute=0")],
        ids=["gemm-threads", "gemm-dim", "gemm-vector-len",
             "gemm-block-size", "pi-threads", "pi-bs-compute"])
    def test_non_positive_counts_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"{message} must be positive"):
            build()

    def test_pi_space_filters_indivisible_step_counts(self):
        space = pi_space(steps=(6400, 1000), threads=(8,), bs_compute=(8,))
        # 1000 % (8*8) != 0 -> filtered; 6400 % 64 == 0 -> kept
        assert [c.spec.steps for c in space.candidates] == [6400]
        assert space.candidates[0].knob_dict() == {"bs_compute": 8}


# ----------------------------------------------------------------------
# schedule-fact extraction + analytic model
# ----------------------------------------------------------------------
class TestModel:
    @pytest.fixture(scope="class")
    def scored(self):
        return {c.spec.version: (c, p) for c, p in _scored(
            versions=["naive", "no_critical", "vectorized", "blocked",
                      "double_buffered"],
            vector_lens=(4,), block_sizes=(8,))}

    def test_facts_classify_the_journey(self):
        from repro.apps.runners import compile_gemm
        facts = {v: extract_facts(compile_gemm(v))
                 for v in ("naive", "no_critical", "blocked",
                           "double_buffered")}
        assert facts["naive"].has_critical
        assert not facts["naive"].tiled
        assert not facts["no_critical"].has_critical
        assert facts["blocked"].tiled and not facts["blocked"].overlapped
        assert facts["double_buffered"].tiled
        assert facts["double_buffered"].overlapped

    def test_predictions_reproduce_the_paper_ordering(self, scored):
        cycles = {v: p.cycles for v, (c, p) in scored.items()}
        assert cycles["naive"] > cycles["no_critical"] \
            > cycles["vectorized"] > cycles["blocked"] \
            > cycles["double_buffered"]

    def test_prediction_area_is_the_compiled_area(self, scored):
        from repro.apps.runners import compile_gemm
        _, prediction = scored["vectorized"]
        area = compile_gemm("vectorized").area
        assert prediction.alms == area.alms
        assert prediction.registers == area.registers

    def test_bound_attribution(self, scored):
        assert scored["naive"][1].bound in ("memory", "critical")
        assert scored["double_buffered"][1].bound == "compute"

    def test_empty_kernel_predicts_overhead_only(self):
        from repro.hls import compile_source
        acc = compile_source("""
        void empty(int n) {
          #pragma omp target parallel num_threads(4)
          {
          }
        }
        """)
        facts = extract_facts(acc)
        assert facts.compute_flops == 0 and not facts.has_critical
        spec = JobSpec(app="gemm", version="naive", dim=16, threads=4,
                       label="degenerate")
        prediction = predict(Candidate(spec), acc)
        assert prediction.cycles > 0


# ----------------------------------------------------------------------
# pruning + frontier extraction
# ----------------------------------------------------------------------
class TestPruning:
    def test_dominated_candidate_pruned_with_attribution(self):
        scored = [_fake("slow-big", 200, alms=500, registers=900),
                  _fake("fast-small", 100, alms=400, registers=800)]
        decisions = prune_candidates(scored)
        assert set(decisions) == {"slow-big"}
        assert decisions["slow-big"].reason == "dominated"
        assert decisions["slow-big"].dominated_by == "fast-small"

    def test_tradeoff_points_both_survive(self):
        scored = [_fake("fast-big", 100, alms=900),
                  _fake("slow-small", 200, alms=100)]
        assert prune_candidates(scored) == {}

    def test_dominance_can_be_disabled(self):
        scored = [_fake("slow-big", 200), _fake("fast-small", 100)]
        assert prune_candidates(scored, dominance=False) == {}

    def test_resource_budget_prunes_before_dominance(self):
        scored = [_fake("huge", 100, alms=5000), _fake("ok", 200, alms=100)]
        decisions = prune_candidates(scored, Budget(max_alms=1000))
        assert decisions["huge"].reason == "over_budget"
        assert "ok" not in decisions

    def test_eval_budget_keeps_predicted_fastest(self):
        scored = [_fake("a", 300, alms=1), _fake("b", 100, alms=2),
                  _fake("c", 200, alms=3)]
        decisions = prune_candidates(scored, Budget(max_evals=2),
                                     dominance=False)
        assert set(decisions) == {"a"}
        assert decisions["a"].reason == "eval_budget"

    def test_real_space_prunes_naive_at_dim64(self):
        scored = _scored()
        decisions = prune_candidates(scored)
        assert "gemm-naive-d64-t8" in decisions
        assert 0 < len(decisions) < len(scored)

    def test_pareto_front_minimization(self):
        points = [(1.0, 9.0, "a"), (2.0, 5.0, "b"), (3.0, 6.0, "c"),
                  (4.0, 1.0, "d")]
        assert pareto_front(points) == ["a", "b", "d"]

    def test_pareto_front_ties_keep_first(self):
        assert pareto_front([(1.0, 5.0, "a"), (2.0, 5.0, "b")]) == ["a"]


# ----------------------------------------------------------------------
# end-to-end explore
# ----------------------------------------------------------------------
class TestExploreEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        space = gemm_space(dims=(16,), threads=(4,), vector_lens=(4,),
                           block_sizes=(4,))
        return explore(space, use_cache=False)

    def test_every_candidate_gets_exactly_one_outcome(self, result):
        assert len(result.outcomes) == 7
        for outcome in result.outcomes:
            pruned = outcome.pruned is not None
            evaluated = outcome.result is not None
            assert pruned != evaluated  # exclusive, exhaustive

    def test_pruning_skipped_at_least_one_simulation(self, result):
        assert len(result.pruned) >= 1
        assert 0.0 < result.pruned_fraction < 1.0

    def test_frontier_nonempty_and_sorted(self, result):
        front = result.frontier("alms")
        assert front
        cycles = [o.cycles for o in front]
        areas = [o.prediction.alms for o in front]
        assert cycles == sorted(cycles)
        assert areas == sorted(areas, reverse=True)
        assert all(o.measured_cycles is not None for o in front)

    def test_journey_covers_every_version_slowest_first(self, result):
        journey = result.journey()
        assert {row["group"] for row in journey} == {
            "naive", "naive_sum", "no_critical", "vectorized", "blocked",
            "double_buffered", "preloaded"}
        cycles = [row["cycles"] for row in journey]
        assert cycles == sorted(cycles, reverse=True)
        for row in journey:
            assert (row["source"] == "predicted") == (row["pruned"]
                                                     is not None)

    def test_document_round_trips_and_validates(self, result):
        doc = json.loads(result.to_json())
        validate_explore_dict(doc)
        assert doc["schema"] == "repro.explore/1"
        assert doc["space"]["pruned"] + doc["space"]["evaluated"] \
            == doc["space"]["enumerated"]
        assert doc["sweep"]["schema"] == "repro.sweep/1"

    def test_validation_rejects_corruption(self, result):
        doc = json.loads(result.to_json())
        doc["candidates"][0]["measured"] = {"job_id": "x", "status": "ok"}
        doc["candidates"][0]["pruned"] = {"reason": "dominated",
                                          "detail": "", "dominated_by": None}
        with pytest.raises(ValueError, match="both pruned and measured"):
            validate_explore_dict(doc)
        doc = json.loads(result.to_json())
        doc["frontier"]["alms"].append("gemm-unknown")
        with pytest.raises(ValueError, match="unknown candidate"):
            validate_explore_dict(doc)

    def test_html_report_is_self_contained(self, result):
        html = render_explore_html(result)
        lowered = html.lower()
        assert "<script" not in lowered
        assert "http://" not in lowered and "https://" not in lowered
        assert "<svg" in lowered
        assert "pruned" in lowered

    def test_html_links_evaluated_candidates(self, result):
        target = result.measured[0]
        html = render_explore_html(
            result, report_links={target.id: "reports/job.json"})
        assert f'<a href="reports/job.json">{target.id}</a>' in html

    def test_eval_budget_limits_simulations(self):
        space = gemm_space(dims=(16,), threads=(4,), vector_lens=(4,),
                           block_sizes=(4,))
        result = explore(space, budget=Budget(max_evals=2),
                         use_cache=False)
        assert len(result.evaluated) <= 2
        assert any(o.pruned is not None
                   and o.pruned.reason == "eval_budget"
                   for o in result.outcomes)
