"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

VADD = """
void vadd(float* a, float* b, float* c, int n) {
  #pragma omp target parallel map(to:a[0:n], b[0:n]) map(from:c[0:n]) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      c[i] = a[i] + b[i];
    }
  }
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "vadd.c"
    path.write_text(VADD)
    return str(path)


class TestCompile:
    def test_report_printed(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "HLS compile report: vadd" in out
        assert "pipeline stages" in out
        assert "profiling unit" in out
        assert "Fmax" in out

    def test_no_profiling_flag(self, source_file, capsys):
        assert main(["compile", source_file, "--no-profiling"]) == 0
        out = capsys.readouterr().out
        assert "profiling unit: disabled" in out

    def test_missing_source_clean_error(self):
        with pytest.raises(SystemExit, match="cannot read source"):
            main(["compile", "/nonexistent/kernel.c"])

    def test_syntax_error_clean_error(self, tmp_path):
        path = tmp_path / "syn.c"
        path.write_text("void f(float* a) { int x = ; }\n")
        with pytest.raises(SystemExit, match=r"syn\.c:1:\d+: unexpected"):
            main(["compile", str(path)])

    def test_binary_source_clean_error(self, tmp_path):
        path = tmp_path / "blob.c"
        path.write_bytes(b"\xff\xfe\x00binary")
        with pytest.raises(SystemExit, match="not a text file"):
            main(["compile", str(path)])

    def test_empty_source_clean_error(self):
        with pytest.raises(SystemExit, match="no function contains"):
            main(["compile", "/dev/null"])

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_run_and_trace_bad_source_clean_error(self, command, tmp_path):
        path = tmp_path / "syn.c"
        path.write_text("void f( {\n")
        with pytest.raises(SystemExit, match=r"syn\.c:\d+:\d+: "):
            main([command, str(path)])

    def test_bad_source_exits_with_one_line(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        path = tmp_path / "syn.c"
        path.write_text("void f(float* a) { int x = ; }\n")
        for argv in (["compile", str(path)], ["compile", "/dev/null"],
                     ["run", str(tmp_path / "missing.c")]):
            proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=tmp_path)
            assert proc.returncode != 0
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["demo", "gemm", "--dim", "7"], ["demo", "gemm", "--dim", "-4"],
        ["demo", "gemm", "--dim", "0"], ["demo", "pi", "--steps", "100"],
        ["demo", "pi", "--steps", "0"]], ids=" ".join)
    def test_bad_demo_size_exits_with_one_line(self, argv, tmp_path):
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src},
                              cwd=tmp_path)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_non_integer_const_clean_error(self, tmp_path, value):
        path = tmp_path / "k.c"
        path.write_text("""
void f(float* a, int n) {
  #pragma omp target parallel map(tofrom:a[0:n]) num_threads(T)
  { a[0] = 1.0f; }
}
""")
        with pytest.raises(SystemExit,
                           match=f"error: --const T={value} is not an integer"):
            main(["compile", str(path), "--const", f"T={value}"])

    def test_integer_const_sets_threads(self, tmp_path, capsys):
        path = tmp_path / "k.c"
        path.write_text("""
void f(float* a, int n) {
  #pragma omp target parallel map(tofrom:a[0:n]) num_threads(T)
  { a[0] = 1.0f; }
}
""")
        assert main(["compile", str(path), "--const", "T=3"]) == 0
        assert "hardware threads : 3" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["sweep", "gemm"], ["explore"]],
                             ids=" ".join)
    @pytest.mark.parametrize("seconds", ["-4.8", "0", "nan", "soon"])
    def test_non_positive_timeout_rejected(self, argv, seconds, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--timeout", seconds])
        assert excinfo.value.code == 2
        assert "must be a positive number of seconds" in \
            capsys.readouterr().err

    def test_defines_forwarded(self, tmp_path, capsys):
        path = tmp_path / "k.c"
        path.write_text("""
void f(float* a, int n) {
  #pragma omp target parallel map(tofrom:a[0:n]) num_threads(T)
  { a[0] = 1.0f; }
}
""")
        assert main(["compile", str(path), "-D", "T=6"]) == 0
        assert "hardware threads : 6" in capsys.readouterr().out


class TestRun:
    def test_run_summary(self, source_file, capsys):
        assert main(["run", source_file, "--arg", "n=64"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "bandwidth" in out
        assert "primary bottleneck" in out

    def test_missing_scalar_errors(self, source_file):
        with pytest.raises(SystemExit,
                           match="missing scalar|cannot size buffer"):
            main(["run", source_file])

    def test_malformed_arg(self, source_file):
        with pytest.raises(SystemExit, match="malformed"):
            main(["run", source_file, "--arg", "n64"])


class TestTraceAndInspect:
    def test_trace_roundtrip(self, source_file, tmp_path, capsys):
        base = str(tmp_path / "out")
        assert main(["trace", source_file, "--arg", "n=32",
                     "-o", base]) == 0
        capsys.readouterr()
        assert main(["inspect", base + ".prv"]) == 0
        out = capsys.readouterr().out
        assert "threads    : 2" in out
        assert "Running" in out

    def test_inspect_event_totals_of_gemm_trace(self, tmp_path, capsys):
        from repro.apps import run_gemm
        from repro.paraver import EVENT_TYPE_IDS, parse_prv, write_trace
        from repro.profiling import EventKind

        result = run_gemm("naive", dim=16, attribution=True).result
        prv = write_trace(result.trace, str(tmp_path / "gemm")).prv
        assert main(["inspect", prv]) == 0
        out = capsys.readouterr().out
        # the per-record sums, one event object at a time
        by_type: dict[int, int] = {}
        for event in parse_prv(prv).events:
            by_type[event.type] = by_type.get(event.type, 0) + event.value
        expected = ["event totals:"] + [f"  {type_id}: {value}" for
                                        type_id, value in sorted(
                                            by_type.items())]
        assert out.splitlines()[-len(expected):] == expected
        # the writer truncates each window's counter to an integer
        for kind in (EventKind.FLOPS, EventKind.MEM_READ_BYTES):
            total = result.trace.events[kind].astype(np.int64).sum()
            assert f"  {EVENT_TYPE_IDS[kind]}: {total}" in expected

    def test_inspect_missing_file_clean_error(self):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["inspect", "/nonexistent/trace.prv"])

    def test_inspect_garbled_file_clean_error(self, tmp_path):
        bad = tmp_path / "bad.prv"
        bad.write_text("this is not a paraver trace\n")
        with pytest.raises(SystemExit, match="not a valid Paraver trace"):
            main(["inspect", str(bad)])

    def test_inspect_truncated_records_clean_error(self, tmp_path):
        bad = tmp_path / "trunc.prv"
        bad.write_text("#Paraver (01/01/2020 at 00:00):100:1(2):1:2(1:1,1:1)\n"
                       "1:garbage\n")
        with pytest.raises(SystemExit, match="not a valid Paraver trace"):
            main(["inspect", str(bad)])


class TestTelemetry:
    def test_run_with_bare_flag_prints_summary(self, source_file, capsys):
        assert main(["run", source_file, "--arg", "n=32",
                     "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "toolchain telemetry summary" in out
        assert "frontend" in out
        assert "sim" in out

    def test_trace_writes_jsonl_and_stats_reads_it(self, source_file,
                                                   tmp_path, capsys):
        metrics = str(tmp_path / "m.jsonl")
        assert main(["trace", source_file, "--arg", "n=32",
                     "-o", str(tmp_path / "t"),
                     "--telemetry", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        for phase in ("frontend", "hls", "sim", "paraver"):
            assert phase in out
        assert "counter" in out

    def test_chrome_format_produces_loadable_trace(self, source_file,
                                                   tmp_path):
        import json

        out_path = str(tmp_path / "chrome.json")
        assert main(["trace", source_file, "--arg", "n=32",
                     "-o", str(tmp_path / "t"),
                     "--telemetry", out_path,
                     "--telemetry-format", "chrome"]) == 0
        with open(out_path) as handle:
            payload = json.load(handle)
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "X"}
        assert {"frontend", "hls", "sim", "paraver"} <= names
        ts = [e["ts"] for e in payload["traceEvents"]]
        assert ts == sorted(ts)

    def test_stats_missing_file_clean_error(self):
        with pytest.raises(SystemExit, match="cannot read metrics"):
            main(["stats", "/nonexistent/m.jsonl"])

    def test_stats_garbled_file_clean_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        with pytest.raises(SystemExit, match="not a telemetry metrics"):
            main(["stats", str(bad)])

    def test_demo_with_telemetry_file(self, tmp_path, capsys):
        metrics = str(tmp_path / "demo.jsonl")
        assert main(["demo", "pi", "--steps", "8000",
                     "--telemetry", metrics]) == 0
        out = capsys.readouterr().out
        assert "telemetry written" in out
        import os
        assert os.path.getsize(metrics) > 0


class TestDemo:
    def test_pi_demo(self, capsys):
        assert main(["demo", "pi", "--steps", "32000"]) == 0
        out = capsys.readouterr().out
        assert "pi(32000)" in out
        assert "GFLOP/s" in out


@pytest.fixture
def traced(source_file, tmp_path, capsys):
    """A .prv (+companions) written by the trace command."""

    base = str(tmp_path / "run")
    assert main(["trace", source_file, "--arg", "n=32", "-o", base]) == 0
    capsys.readouterr()
    return base + ".prv"


class TestAnalyze:
    def test_text_report(self, traced, capsys):
        assert main(["analyze", traced]) == 0
        out = capsys.readouterr().out
        assert "trace report: run" in out
        assert "efficiency hierarchy" in out
        assert "primary bottleneck" in out

    def test_html_and_json_written(self, traced, tmp_path, capsys):
        html = str(tmp_path / "r.html")
        jsn = str(tmp_path / "r.json")
        assert main(["analyze", traced, "--html", html,
                     "--json", jsn]) == 0
        content = open(html).read()
        assert "<svg" in content and "<script" not in content
        import json
        assert json.load(open(jsn))["schema"] == "repro.report/1"

    def test_label_and_peak_flags(self, traced, capsys):
        assert main(["analyze", traced, "--label", "mine",
                     "--peak-bw", "10", "--clock-mhz", "200"]) == 0
        out = capsys.readouterr().out
        assert "trace report: mine" in out
        assert "at 200 MHz" in out

    def test_missing_file_clean_error(self):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["analyze", "/nonexistent/trace.prv"])

    @pytest.mark.parametrize("command", ["analyze", "why"])
    def test_overlapping_states_clean_error(self, command, tmp_path):
        bad = tmp_path / "overlap.prv"
        bad.write_text("#Paraver (01/01/2020 at 00:00):100:1(1):1:1(1:1)\n"
                       "1:1:1:1:1:0:60:1\n"
                       "1:1:1:1:1:40:100:2\n")
        with pytest.raises(SystemExit, match="not a valid Paraver trace: "
                                             "state records of task 1 "
                                             "overlap at cycle 40"):
            main([command, str(bad)])


class TestCompare:
    def test_delta_table(self, traced, capsys):
        assert main(["compare", traced, traced,
                     "--labels", "a,b"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        lines = out.splitlines()
        assert any(line.startswith("a ") for line in lines)
        assert any(line.startswith("b ") for line in lines)
        assert "1.00x" in out

    def test_labels_count_mismatch(self, traced):
        with pytest.raises(SystemExit, match="--labels names 3"):
            main(["compare", traced, traced, "--labels", "a,b,c"])


class TestDemoReports:
    def test_gemm_demo_traces_and_html(self, tmp_path, capsys):
        traces = str(tmp_path / "traces")
        html = str(tmp_path / "demo.html")
        assert main(["demo", "gemm", "--dim", "16",
                     "--trace-dir", traces, "--html", html]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        import os
        prvs = [f for f in os.listdir(traces) if f.endswith(".prv")]
        assert "naive.prv" in prvs
        assert os.path.getsize(html) > 0
        # demo trace re-analyzes standalone
        assert main(["analyze", os.path.join(traces, "naive.prv")]) == 0
        assert "primary bottleneck" in capsys.readouterr().out


class TestSweep:
    def test_shorthand_sweep_with_out(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_cli.json")
        assert main(["sweep", "gemm", "--dim", "16", "--threads", "4",
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "5 jobs: 5 ok" in text
        from repro.sweep import validate_sweep_file
        doc = validate_sweep_file(out)
        assert doc["totals"]["ok"] == 5

    def test_spec_file_and_failure_exit_code(self, tmp_path, capsys):
        import json
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"jobs": [
            {"app": "pi", "steps": 6400},
            {"app": "gemm", "version": "naive", "dim": 16, "threads": 3},
        ]}))
        assert main(["sweep", str(spec)]) == 1
        text = capsys.readouterr().out
        assert "1 failed" in text
        assert "multiple of" in text

    def test_sweep_and_explore_write_nothing_under_user_cache(
            self, tmp_path, monkeypatch, capsys):
        """Every compile runs in memory: a default sweep or explore
        leaves no ``repro/`` directory under the user's cache home."""

        import json
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / ".cache"))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"jobs": [
            {"app": "gemm", "version": "naive", "dim": 16, "threads": 4,
             "block_size": 4},
            {"app": "pi", "steps": 6400}]}))
        assert main(["sweep", str(spec)]) == 0
        assert main(["explore", "--app", "gemm", "--dim", "16",
                     "--threads", "4", "--versions", "naive,no_critical",
                     "--no-prune"]) == 0
        text = capsys.readouterr().out
        assert "2 candidates" in text and "2 measured" in text
        assert [p.name for p in tmp_path.rglob("repro")] == []

    def test_bad_spec_argument_clean_error(self):
        with pytest.raises(SystemExit, match="cannot read sweep spec"):
            main(["sweep", "/nonexistent.json"])

    @pytest.mark.parametrize("spec, message", [
        (["gemm", "--dim", "0"], "DIM=0 must be positive"),
        (["gemm", "--dim", "-8"], "DIM=-8 must be positive"),
        ({"app": "gemm", "version": "naive", "dim": 0},
         "DIM=0 must be positive"),
        ({"app": "pi", "steps": -6400}, "steps=-6400 must be positive"),
        (["gemm", "--dim", "16", "--threads", "0"],
         "threads=0 must be positive"),
        ({"app": "gemm", "version": "vectorized", "dim": 16,
          "vector_len": 0}, "vector_len=0 must be positive"),
        ({"app": "gemm", "version": "blocked", "dim": 16, "block_size": 0},
         "block_size=0 must be positive"),
        ({"app": "pi", "steps": 6400, "bs_compute": 0},
         "bs_compute=0 must be positive"),
        ({"app": "pi", "steps": 6400, "start_interval": -100000},
         "start_interval=-100000 must not be negative")],
        ids=["gemm-dim-0", "gemm-dim--8", "json-dim-0", "json-steps--6400",
             "gemm-threads-0", "json-vector-len-0", "json-block-size-0",
             "json-bs-compute-0", "json-start-interval-negative"])
    def test_bad_sweep_size_exits_before_dispatch(self, spec, message,
                                                   tmp_path):
        import json
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        if isinstance(spec, dict):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"jobs": [{"app": "pi",
                                                  "steps": 6400}, spec]}))
            spec = [str(path)]
        out = tmp_path / "results.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *spec, "--out",
             str(out)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert message in proc.stderr
        assert proc.stdout == ""  # no job ran
        assert not out.exists()

    def test_explore_prunes_measures_and_writes_documents(self, tmp_path,
                                                          capsys):
        out = str(tmp_path / "explore.json")
        html = str(tmp_path / "explore.html")
        assert main(["explore", "--app", "gemm", "--dim", "16",
                     "--threads", "4", "--vector-len", "4",
                     "--block-size", "4",
                     "--out", out, "--html", html]) == 0
        text = capsys.readouterr().out
        assert "7 candidates" in text
        assert "pruning eliminated" in text
        assert "0 (0%)" not in text  # the analytic pruner must fire
        assert "Pareto frontier (cycles vs ALMs)" in text
        assert "optimization journey" in text
        from repro.explore import validate_explore_file
        doc = validate_explore_file(out)
        assert doc["space"]["pruned"] >= 1
        assert doc["frontier"]["alms"]
        page = open(html).read()
        assert "<script" not in page.lower()
        assert "<svg" in page

    def test_explore_report_dir_links_relative(self, tmp_path, capsys):
        html = str(tmp_path / "explore.html")
        assert main(["explore", "--app", "gemm", "--dim", "16",
                     "--threads", "4", "--vector-len", "4",
                     "--block-size", "4", "--max-evals", "2",
                     "--report-dir", str(tmp_path / "reports"),
                     "--html", html]) == 0
        capsys.readouterr()
        page = open(html).read()
        assert 'href="reports/' in page
        assert str(tmp_path) not in page  # relative, not absolute

    def test_explore_pi_space(self, tmp_path, capsys):
        assert main(["explore", "--app", "pi", "--steps", "6400",
                     "--threads", "4", "--bs-compute", "8"]) == 0
        text = capsys.readouterr().out
        assert "pi-6400-t4-bs8" in text

    def test_explore_empty_space_clean_error(self):
        with pytest.raises(SystemExit, match="explore space is empty"):
            main(["explore", "--app", "gemm", "--dim", "20",
                  "--threads", "3"])

    def test_progress_events_and_timeline(self, tmp_path, capsys):
        import json
        import os
        out = str(tmp_path / "BENCH_cli.json")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"jobs": [
            {"app": "gemm", "version": "naive", "dim": 16, "threads": 4,
             "block_size": 4},
            {"app": "pi", "steps": 6400},
        ]}))
        assert main(["sweep", str(spec), "--out", out,
                     "--progress"]) == 0
        captured = capsys.readouterr()
        # --progress renders to stderr, one line per job + summary
        lines = captured.err.splitlines()
        assert len(lines) == 3, lines
        assert all(" ok " in line for line in lines[:2])
        assert lines[-1].startswith("sweep ")

        trace = str(tmp_path / "merged.json")
        assert main(["timeline", out, "-o", trace]) == 0
        text = capsys.readouterr().out
        assert "per-job toolchain breakdown" in text
        assert "Chrome trace written" in text
        doc = json.load(open(trace))
        assert doc["otherData"]["worker_pids"] == [os.getpid()]
        assert any(e.get("cat") == "sweep.job"
                   for e in doc["traceEvents"])

    def test_timeline_rejects_doc_without_telemetry(self, tmp_path):
        import json
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "schema": "repro.sweep/1", "name": "s",
            "totals": {"jobs": 1, "ok": 1, "failed": 0, "timeout": 0,
                       "crashed": 0},
            "jobs": [{"id": "j", "status": "ok", "cycles": 10,
                      "compile_cache": "off", "wall_s": 0.1}],
        }))
        with pytest.raises(SystemExit, match="no per-job telemetry"):
            main(["timeline", str(path)])
