"""Tests for the command-line interface."""

import io
import threading
from contextlib import redirect_stdout

import pytest

from repro.cli import main


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def run_timed_out(*argv):
    """``run_cli`` for a command whose ``--timeout`` expires.

    The command abandons its worker, as ``timeout(1)`` would, where a
    process would then exit.  Wait for the worker here, so that what it
    prints cannot land in the captured output of a later test.
    """
    before = set(threading.enumerate())
    code, _ = run_cli(*argv)
    with redirect_stdout(io.StringIO()):
        for worker in set(threading.enumerate()) - before:
            worker.join()
    return code


def test_compare_encyclopedia_two_protocols():
    code, output = run_cli(
        "compare",
        "--workload", "encyclopedia",
        "--protocols", "page-2pl", "open-nested-oo",
        "--transactions", "4",
        "--seeds", "0",
    )
    assert code == 0
    assert "page-2pl" in output and "open-nested-oo" in output
    assert "tput/1k" in output


def test_compare_banking():
    code, output = run_cli(
        "compare", "--workload", "banking", "--protocols", "open-nested-oo",
        "--transactions", "4", "--seeds", "0",
    )
    assert code == 0
    assert "banking workload" in output


def test_compare_editing_and_index():
    for workload in ("editing", "index"):
        code, output = run_cli(
            "compare", "--workload", workload, "--protocols", "page-2pl",
            "--transactions", "3", "--seeds", "0",
        )
        assert code == 0, workload
        assert "page-2pl" in output


def test_census():
    code, output = run_cli("census")
    assert code == 0
    assert "two leaves, distinct keys" in output
    assert "oo-only" in output


def test_figures():
    code, output = run_cli("figures")
    assert code == 0
    assert "Example 4 / Figure 8" in output
    assert "serial order: ['T1', 'T2', 'T3', 'T4']" in output


def test_figures_verbose_provenance():
    code, output = run_cli("figures", "--verbose")
    assert code == 0
    assert "Definition 10" in output


def test_fuzz_jobs_output_is_byte_identical():
    """--jobs must be invisible in the rendered report."""
    argv = ("fuzz", "--smoke", "--seeds", "6")
    code_serial, serial = run_cli(*argv, "--jobs", "1")
    code_parallel, parallel = run_cli(*argv, "--jobs", "2")
    assert code_serial == code_parallel == 0
    assert serial == parallel


def test_fuzz_crash_smoke():
    code, output = run_cli(
        "fuzz", "--crash", "--smoke", "--seeds", "1",
        "--protocols", "open-nested-oo",
    )
    assert code == 0
    assert "crash campaign" in output
    assert "no crash-oracle violations" in output


def test_fuzz_crash_ablate_self_test():
    # recovery without compensation replay must be caught (exit 0 = caught)
    code, output = run_cli(
        "fuzz", "--crash-ablate", "--smoke", "--seeds", "2",
        "--protocols", "multilevel", "open-nested-oo",
    )
    assert code == 0
    assert "ablation detected" in output


def test_recover_command(tmp_path):
    import json

    from repro.catalog import GeneratorProfile, generate
    from repro.faults import FaultPlan
    from repro.fuzz.crash import crash_census
    from repro.fuzz.driver import execute_cell
    from repro.oodb.wal import WriteAheadLog

    spec = generate(0, GeneratorProfile.smoke())
    census = crash_census(spec, "open-nested-oo")
    plan = FaultPlan.crash_plan(
        "page-write.after", census["page-write.after"] - 1
    )
    wal = WriteAheadLog()
    result = execute_cell(spec, "open-nested-oo", wal=wal, faults=plan)
    assert result.crashed
    path = tmp_path / "crashed.wal"
    with open(path, "w") as fh:
        for rec in wal.to_list():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    code, output = run_cli("recover", str(path), "--seed", "0", "--smoke")
    assert code == 0
    assert "recovered" in output
    assert "page-store digest:" in output


def test_fuzz_crash_durable_smoke():
    code, output = run_cli(
        "fuzz", "--crash", "--smoke", "--seeds", "1", "--durable",
        "--protocols", "open-nested-oo",
    )
    assert code == 0
    assert "[durable store]" in output
    assert "no crash-oracle violations" in output


def test_recover_data_dir_round_trip(tmp_path):
    from repro.catalog import GeneratorProfile, generate
    from repro.fuzz.driver import execute_cell
    from repro.oodb.store import FileBackedPageStore
    from repro.oodb.wal import WriteAheadLog

    spec = generate(0, GeneratorProfile.smoke())
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    wal = WriteAheadLog(str(data_dir / "wal.jsonl"))
    store = FileBackedPageStore(
        str(data_dir), frames=8, default_capacity=spec.page_capacity
    )
    execute_cell(
        spec, "open-nested-oo", wal=wal, store=store, checkpoint_every=32
    )
    # abrupt stop: synced but never checkpointed/closed cleanly
    wal.sync()
    wal.close()

    code, output = run_cli(
        "recover", "--data-dir", str(data_dir), "--seed", "0", "--smoke"
    )
    assert code == 0
    assert "recovered" in output
    assert f"data dir {data_dir} recovered and checkpointed" in output

    # idempotent: a second recovery has nothing left to redo
    code, second = run_cli(
        "recover", "--data-dir", str(data_dir), "--seed", "0", "--smoke"
    )
    assert code == 0
    assert "redo 0" in second
    digest = [l for l in output.splitlines() if "digest" in l]
    assert digest == [l for l in second.splitlines() if "digest" in l]


def test_trace_emits_valid_chrome_trace(tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    out = tmp_path / "trace.json"
    events = tmp_path / "events.jsonl"
    code, output = run_cli(
        "trace", "--seed", "3", "--protocol", "open-nested-oo", "--smoke",
        "--out", str(out), "--events", str(events),
    )
    assert code == 0
    assert f"wrote {out}" in output
    trace = json.loads(out.read_text())
    assert trace["traceEvents"]
    assert validate_chrome_trace(trace) == []

    from repro.obs import events_from_jsonl

    loaded = events_from_jsonl(events.read_text())
    assert loaded
    assert loaded[0].kind == "txn-begin"


def test_trace_to_stdout_is_json(tmp_path):
    import json

    code, output = run_cli(
        "trace", "--seed", "0", "--protocol", "page-2pl", "--smoke",
    )
    assert code == 0
    assert json.loads(output)["displayTimeUnit"] == "ms"


def test_trace_render_shows_call_tree():
    code, output = run_cli(
        "trace", "--seed", "3", "--protocol", "open-nested-oo", "--smoke",
        "--render",
    )
    assert code == 0
    assert "txn." in output
    assert ".insert" in output or ".read" in output


def test_stats_table_has_uniform_scheduler_keys():
    from repro.obs import STAT_KEYS

    code, output = run_cli(
        "stats", "--seed", "0", "--protocol", "optimistic-oo", "--smoke",
    )
    assert code == 0
    for key in STAT_KEYS:
        assert f"scheduler_{key}_total" in output


def test_stats_prometheus_format():
    code, output = run_cli(
        "stats", "--seed", "0", "--protocol", "page-2pl", "--smoke",
        "--format", "prometheus",
    )
    assert code == 0
    assert "# TYPE scheduler_acquired_total counter" in output
    assert 'page_lock_requests_total{mode="read"}' in output


def test_fuzz_trace_dir_dumps_traces_without_perturbing_report(tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    argv = ("fuzz", "--smoke", "--seed", "16")
    code_plain, plain = run_cli(*argv)
    code_traced, traced = run_cli(*argv, "--trace-dir", str(tmp_path))
    assert code_plain == code_traced == 0
    assert plain == traced  # tracing only observes

    # Seed 16's open-nested/optimistic cells give up a transaction, so
    # their traces are the interesting ones the campaign dumps.
    dumped = sorted(p.name for p in tmp_path.iterdir())
    assert dumped == [
        "seed16_open-nested-oo.trace.json",
        "seed16_optimistic-oo.trace.json",
    ]
    for name in dumped:
        trace = json.loads((tmp_path / name).read_text())
        assert validate_chrome_trace(trace) == []


def test_certify_clean_cell_with_diff_exits_0():
    code, output = run_cli(
        "certify", "--seed", "3", "--protocol", "page-2pl", "--smoke",
        "--diff",
    )
    assert code == 0
    assert "certify seed 3 under page-2pl: ok" in output
    assert "1 epoch / " in output  # one fuzz run is one certifier epoch
    assert "diff: certifier verdict and witness match the exact oracle" in output


def test_certify_ablated_violation_exits_1():
    code, output = run_cli(
        "certify", "--seed", "4", "--protocol", "open-nested-oo", "--smoke",
        "--ablate", "--diff",
    )
    assert code == 1
    assert "VIOLATION" in output
    assert "oo-serializable=False" in output  # the exact witness is printed
    assert "diff: certifier verdict and witness match the exact oracle" in output


def test_certify_missing_args_exits_2(capsys):
    code, _ = run_cli("certify", "--seed", "3")
    assert code == 2
    assert "--protocol" in capsys.readouterr().err


def test_certify_timeout_exits_124(capsys):
    code = run_timed_out(
        "certify", "--seed", "0", "--protocol", "page-2pl", "--timeout",
        "0.01",
    )
    assert code == 124
    assert "timed out after" in capsys.readouterr().err


def test_certify_replay_counterexample(tmp_path):
    import json

    from repro.catalog import GeneratorProfile, generate

    spec = generate(3, GeneratorProfile.smoke())
    # The fields `repro fuzz --replay` reads; a shrunk counterexample file
    # is a superset of this.
    payload = {
        "workload": spec.to_dict(),
        "protocol": "page-2pl",
        "exec_seed": 3,
        "ablation": None,
    }
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(payload) + "\n")
    code, output = run_cli("certify", "--replay", str(path), "--diff")
    assert code == 0
    assert f"certify {path} under page-2pl" in output


def test_fuzz_certify_flag_matches_plain_verdict():
    argv = ("fuzz", "--smoke", "--seeds", "4")
    code_plain, plain = run_cli(*argv)
    code_cert, certified = run_cli(*argv, "--certify")
    assert code_plain == code_cert == 0
    assert "[certified]" in certified and "[certified]" not in plain
    assert "no oracle violations" in certified


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- the service commands and the uniform exit-code convention --------------


def test_exit_code_constants_pinned():
    from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_OPERATIONAL, EXIT_TIMEOUT

    assert (EXIT_OK, EXIT_FAILURE, EXIT_OPERATIONAL, EXIT_TIMEOUT) == (
        0, 1, 2, 124,
    )


def test_fuzz_service_smoke_campaign():
    code, output = run_cli(
        "fuzz", "--service", "--seeds", "1",
        "--protocols", "page-2pl", "open-nested-oo",
        "--requests-per-client", "3",
    )
    assert code == 0
    assert "service campaign" in output
    assert "no oracle violations, no lost admitted commits" in output


def test_serve_timeout_exits_124(capsys):
    code, output = run_cli(
        "serve", "--port", "0", "--metrics-port", "0", "--timeout", "0.3",
    )
    assert code == 124
    assert "serving protocol=page-2pl" in output
    assert "audit=ok" in output
    assert "timed out after" in capsys.readouterr().err


def test_load_against_unreachable_server_exits_2(capsys):
    # Port 1 is never listening; the failure is operational, not a verdict.
    code, _ = run_cli("load", "--port", "1", "--tenants", "1")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fuzz_timeout_flag_exits_124(capsys):
    code = run_timed_out(
        "fuzz", "--smoke", "--seeds", "4", "--timeout", "0.01"
    )
    assert code == 124
    assert "timed out after" in capsys.readouterr().err


def test_serve_fuzz_load_share_a_timeout_flag():
    # The shared flag is documented on every long-running command.
    for command in ("serve", "fuzz", "load", "certify"):
        buffer = io.StringIO()
        with pytest.raises(SystemExit), redirect_stdout(buffer):
            main([command, "--help"])
        assert "--timeout" in buffer.getvalue(), command


def test_serve_load_roundtrip_over_sockets():
    """End-to-end through real sockets: serve, load with faults, metrics."""
    import threading
    import urllib.request

    from repro.service import (
        ServiceConfig,
        ServiceServer,
        TenantQuota,
        TransactionService,
    )

    service = TransactionService(
        ServiceConfig(seed=2, protocol="closed-nested"),
        quotas={"t0": TenantQuota(max_inflight=2, max_queue_depth=3)},
    )
    server = ServiceServer(service, session_read_timeout=0.5)
    server.start()
    try:
        code, output = run_cli(
            "load", "--port", str(server.port), "--tenants", "2",
            "--clients-per-tenant", "2", "--requests-per-client", "3",
            "--faults", "--json",
        )
        assert code == 0
        import json

        summary = json.loads(output)
        assert summary["requests"] > 0
        assert summary["committed"] > 0
        metrics = urllib.request.urlopen(
            f"http://127.0.0.1:{server.metrics_port}/metrics", timeout=5
        ).read().decode()
        assert "service_admitted_total" in metrics
        assert "# TYPE service_batches_total counter" in metrics
    finally:
        server.stop()
    assert service.audit()["ok"]
    assert not service.certify().violation


def test_shard_one_shard_is_byte_identical_to_single():
    argv = ["shard", "--seed", "11", "--smoke", "--shards", "1"]
    code_sharded, sharded = run_cli(*argv)
    code_single, single = run_cli(*argv, "--single")
    assert code_sharded == 0 and code_single == 0
    assert sharded == single
    assert "shards=1" in sharded


def test_shard_two_shards_reports_coordination():
    code, output = run_cli("shard", "--seed", "11", "--smoke", "--shards", "2")
    assert code == 0
    assert "shards=2" in output
    assert "coordinator: rounds=" in output


def test_fuzz_sharded_violation_hint_reproduces_it():
    """The command a sharded violation prints must fail the same way: the
    ablation that found the violation is part of the cell."""
    code, output = run_cli(
        "fuzz", "--seed", "32", "--smoke", "--ablate", "--shards", "2",
        "--protocols", "multilevel",
    )
    assert code == 1
    hint = output.split("reproduce with: python -m repro ")[1].splitlines()[0]
    code, output = run_cli(*hint.split())
    assert code == 1, hint
    assert "OO-SERIALIZABILITY VIOLATED" in output


def test_fuzz_service_composes_with_shards():
    code, output = run_cli(
        "fuzz", "--service", "--seeds", "1", "--shards", "2",
        "--protocols", "open-nested-oo", "--requests-per-client", "3",
    )
    assert code == 0, output
    assert "2 shards" in output
    assert "no oracle violations, no lost admitted commits" in output


def test_fuzz_shards_reject_single_core_modes(capsys):
    code, _ = run_cli(
        "fuzz", "--smoke", "--seeds", "1", "--shards", "2", "--certify"
    )
    assert code == 2
    assert "--shards" in capsys.readouterr().err


def test_stats_shards_merges_per_shard_registries():
    code, output = run_cli(
        "stats", "--seed", "7", "--protocol", "page-2pl", "--smoke",
        "--shards", "2",
    )
    assert code == 0
    assert "2 shards" in output
    assert "scheduler_acquired_total" in output


def test_load_shards_mismatch_is_operational(capsys):
    from repro.service import ServiceConfig, ServiceServer, TransactionService

    service = TransactionService(ServiceConfig(seed=3, shards=2))
    server = ServiceServer(service, session_read_timeout=0.5)
    server.start()
    try:
        code, _ = run_cli(
            "load", "--port", str(server.port), "--tenants", "1",
            "--clients-per-tenant", "1", "--requests-per-client", "1",
            "--shards", "3",
        )
        assert code == 2
        assert "shards=2" in capsys.readouterr().err
        code, _ = run_cli(
            "load", "--port", str(server.port), "--tenants", "1",
            "--clients-per-tenant", "1", "--requests-per-client", "2",
            "--shards", "2",
        )
        assert code == 0
    finally:
        server.stop()
    assert service.audit()["ok"]
