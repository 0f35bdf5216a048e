"""Tests of the benchmark itself: statistics, verdicts, BENCHMARK.json,
the layer ledger, pins, and a ``--smoke`` run of every workload.

Run:  python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
BENCH = os.path.join(bench.HERE, "bench.py")


@pytest.fixture(scope="module")
def definition():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


# ----------------------------------------------------------------------
# statistics and verdicts
# ----------------------------------------------------------------------
def test_quartiles_are_the_statistics_module_cuts():
    assert bench.quartiles([5.0]) == (5.0, 5.0, 5.0, 1)
    assert bench.quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (4.5, 2.25, 6.75, 8)
    assert bench.quartiles([3.0, 1.0, 2.0]) == (2.0, 1.0, 3.0, 3)


def test_times_scale_to_the_reference_speed():
    rep = {"host_wall_s": 3.0, "host_setup_s": 0.4,
           "reference_s": 2 * bench.REFERENCE_S}
    bench.scale_to_reference(rep)
    assert rep["wall_s"] == pytest.approx(1.5)
    assert rep["setup_s"] == pytest.approx(0.2)


def test_verdict_rules():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert bench.verdict(base, [v * 1.2 for v in base], 0.1, "lower") \
        == "worse"
    assert bench.verdict(base, [v * 1.02 for v in base], 0.1, "lower") \
        == "unchanged"
    assert bench.verdict(base, [v * 0.8 for v in base], 0.1, "lower") \
        == "better"
    assert bench.verdict(base, [v * 0.8 for v in base], 0.1, "higher") \
        == "worse"
    # spread wider than the bound, and not every run better: unresolved
    assert bench.verdict(base, [0.7, 1.0, 1.3, 1.6, 1.0], 0.1, "lower") \
        == "unresolved"
    # ... unless every change run beats every base run
    assert bench.verdict([2.0, 3.0, 4.0], [0.5, 1.0, 1.5], 0.1, "lower") \
        == "better"
    assert bench.verdict(base, base, None, "lower") == "-"


def test_compare_exits_nonzero_on_regression(tmp_path, definition):
    def doc(wall, failed=0):
        return {"schema": bench.SCHEMA, "workload": "pi_paper",
                "attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    for side, walls in (("base", (1.0, 1.01, 0.99)),
                        ("same", (1.0, 1.02, 1.01)),
                        ("slow", (1.5, 1.52, 1.49))):
        os.makedirs(tmp_path / side)
        for index, wall in enumerate(walls):
            with open(tmp_path / side / f"{index}.json", "w") as handle:
                json.dump(doc(wall), handle)
    with open(tmp_path / "failing.json", "w") as handle:
        json.dump(doc(1.0, failed=1), handle)
    base = str(tmp_path / "base")
    assert bench.compare(base, str(tmp_path / "same"), definition) == 0
    assert bench.compare(base, str(tmp_path / "slow"), definition) == 1
    assert bench.compare(base, str(tmp_path / "failing.json"),
                         definition) == 1


# ----------------------------------------------------------------------
# BENCHMARK.json and the layer table
# ----------------------------------------------------------------------
def test_benchmark_json_is_well_formed(definition):
    assert set(definition) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    assert definition["paths"] == ["perfbench"]
    assert definition["command"] == ["python3", "perfbench/bench.py"]
    assert 1 <= definition["run_seconds"] <= 60

    workloads = definition["workloads"]
    assert 2 <= len(workloads) <= 8
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [w["name"] for w in workloads] == list(bench.SIZES)

    e2e, layers = definition["end_to_end"], definition["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    for metric in e2e + layers:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    names = [entry["name"] for entry in workloads + e2e + layers]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))

    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)

    assert {m["name"]: m["unit"] for m in e2e} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in layers} == bench.PER_LAYER

    # a full measurement is 4 + 22 runs per workload; each takes at most
    # run_seconds plus the untimed start, within a 3420 s budget
    runs = 4 + 22 * len(workloads)
    assert runs * (definition["run_seconds"] + 6) <= 3420


def test_layer_predictions_name_real_metrics_and_workloads(definition):
    e2e = {m["name"] for m in definition["end_to_end"]}
    workloads = {w["name"] for w in definition["workloads"]}
    for name, (moves, most, little) in bench.LAYERS.items():
        assert name in bench.PER_LAYER
        assert set(moves) <= e2e, name
        assert set(most) <= workloads and set(little) <= workloads, name
        assert not set(most) & set(little), name
    hooked = set()
    for layer, _target, how in bench.HOOKS:
        hooked.add(layer)
        if ":" in how:
            hooked.add(how.partition(":")[2])
    assert {f"{layer}.ms" for layer in hooked} <= set(bench.LAYERS)


def test_every_workload_has_sizes_and_jobs():
    assert set(bench.SIZES) == set(bench.JOBS) == set(bench.WORKLOADS)


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def test_ledger_self_time_excludes_hooked_callees():
    ledger = bench.Ledger()
    inner = bench._timed(ledger, "inner", lambda: time.sleep(0.02), "sum")

    def outer():
        time.sleep(0.01)
        inner()

    bench._timed(ledger, "outer", outer, "span")()
    assert ledger.ms("inner") >= 20
    assert 10 <= ledger.ms("outer") < 20
    assert ledger.calls == {"inner": 1, "outer": 1}
    assert [span["name"] for span in ledger.spans] == ["outer"]


def test_ledger_times_returned_fn_and_generator_resumes():
    class Compiled:
        def __init__(self):
            self.fn = lambda x: x + 1

    def driver():
        yield 1
        yield 2

    ledger = bench.Ledger()
    compiled = bench._timed(ledger, "codegen", Compiled, "fn:kernel")()
    assert compiled.fn(1) == 2 and compiled.fn(2) == 3
    gen = bench._timed(ledger, "prepass", driver, "resumes:driver")()
    assert list(gen) == [1, 2]
    assert ledger.calls == {"codegen": 1, "kernel": 2, "prepass": 1,
                            "driver": 3}


def test_missing_hook_warns_instead_of_crashing(capsys):
    ledger = bench.Ledger()
    missing = bench.install_hooks(
        ledger, [("sim.chunk", "json:no_such_function", "sum"),
                 ("sim.chunk", "no_such_module:f", "sum")])
    assert missing == ["json:no_such_function", "no_such_module:f"]
    assert "warning" in capsys.readouterr().err


def test_wrong_pin_fails_the_job_and_names_the_field():
    reps = [{"traced": False, "jobs": [
        {"id": "pi", "ok": True, "cycles": 10, "prv_sha256": "ab"},
        {"id": "report", "ok": True}]}]
    bench.apply_pins(reps, {"pi": {"cycles": 11, "prv_sha256": "ab"}})
    pi, report = reps[0]["jobs"]
    assert not pi["ok"] and "cycles" in pi["error"]
    assert report["ok"]


# ----------------------------------------------------------------------
# whole invocations
# ----------------------------------------------------------------------
def _copy_benchmark(dest, with_sources: bool) -> str:
    os.makedirs(dest / "perfbench")
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), dest)
    for name in ("bench.py", "pins.json"):
        shutil.copy(os.path.join(bench.HERE, name), dest / "perfbench")
    if with_sources:
        os.symlink(bench.SRC, dest / "src")
    return str(dest / "perfbench" / "bench.py")


def test_fails_without_printing_a_result_when_the_toolchain_is_missing(
        tmp_path):
    script = _copy_benchmark(tmp_path, with_sources=False)
    proc = subprocess.run([sys.executable, script, "--workload", "pi_paper",
                           "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None


def test_wrong_pinned_cycles_count_as_failed_jobs_not_a_traceback(tmp_path):
    script = _copy_benchmark(tmp_path, with_sources=True)
    pins_path = tmp_path / "perfbench" / "pins.json"
    with open(pins_path) as handle:
        pins = json.load(handle)
    pins["smoke"]["pi_paper"]["pi"]["cycles"] += 1
    with open(pins_path, "w") as handle:
        json.dump(pins, handle)
    proc = subprocess.run([sys.executable, script, "--workload", "pi_paper",
                           "--smoke", "--seconds", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    result = _last_json(proc.stdout)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("workload", list(bench.SIZES))
def test_smoke_run_is_correct_and_seed_and_trace_invariant(workload,
                                                           tmp_path):
    jobs = []
    for seed, trace in ((1, "0"), (2, "1")):
        out = str(tmp_path / f"{seed}.json")
        proc = subprocess.run(
            [sys.executable, BENCH, "--workload", workload, "--smoke",
             "--seed", str(seed), "--seconds", "0", "--trace", trace,
             "--out", out],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert result["correct"] and result["failed"] == 0
        wanted = bench.PER_LAYER if trace == "1" else bench.END_TO_END
        assert set(result["metrics"]) == set(wanted)
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["schema"] == bench.SCHEMA
        for rep in doc["reps"]:
            jobs.append({job["id"]: (job.get("cycles"), job.get("prv_sha256"))
                         for job in rep["jobs"]})
    # untraced seed 1 and traced seed 2 simulate the same cycles and
    # write the same .prv bytes
    assert len(jobs) == 3
    assert jobs[0] == jobs[1] == jobs[2]
