"""The standalone bench runner must fail loudly, not import quietly."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def _harness():
    spec = importlib.util.spec_from_file_location(
        "_harness", BENCH_DIR / "_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_direct_benchmark_stub_runs_callables():
    harness = _harness()
    stub = harness.DirectBenchmark()
    assert stub(lambda: 41) == 41
    assert stub.pedantic(lambda x: x + 1, args=(1,), rounds=2, iterations=1) == 2


def test_runner_passes_on_a_healthy_bench(capsys):
    harness = _harness()
    assert harness.run_benchmarks(["fig2"]) == 0
    assert harness.main(["fig2"]) == 0
    assert "PASS bench_fig2_structure.py" in capsys.readouterr().out


def test_runner_exits_nonzero_when_verification_fails(monkeypatch, capsys):
    harness = _harness()

    def boom(path):
        raise AssertionError("internal verification failed")

    monkeypatch.setattr(harness, "_load_module", boom)
    assert harness.run_benchmarks(["fig2"]) == 1
    assert harness.main(["fig2"]) == 1
    assert "FAIL bench_fig2_structure.py" in capsys.readouterr().err


def test_runner_rejects_a_pattern_matching_no_module(capsys):
    harness = _harness()
    assert harness.main(["fig2", "fgi4"]) == 2
    captured = capsys.readouterr()
    assert "'fgi4'" in captured.err
    assert "PASS" not in captured.out


def test_runner_counts_every_failing_module(monkeypatch):
    harness = _harness()
    monkeypatch.setattr(
        harness, "_load_module", lambda path: (_ for _ in ()).throw(RuntimeError())
    )
    assert harness.run_benchmarks(["fig2", "fig5"]) == 2


def _run_harness(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(BENCH_DIR.parent / "src")
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "_harness.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def test_jobs_transcript_matches_serial():
    """``--jobs`` shards modules across processes but must print the same
    transcript in the same (sorted) module order."""
    serial = _run_harness("fig2", "fig4")
    parallel = _run_harness("fig2", "fig4", "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert "PASS bench_fig2_structure.py" in serial.stdout
    assert "PASS bench_fig4_example1.py" in serial.stdout
    assert serial.stdout == parallel.stdout
