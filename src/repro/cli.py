"""Command-line interface: ``python -m repro <command>``.

The commands cover the library's common entry points without writing
code:

- ``compare`` — run a workload under selected protocols and print the
  RunMetrics table (the C2/C3 harness);
- ``census`` — the exhaustive schedule-space census (C5);
- ``figures`` — regenerate the paper's Example 1 / Example 4 dependency
  tables with provenance;
- ``fuzz`` — the randomized schedule fuzzer: generated workloads under all
  five protocols, judged by the oo-serializability oracle, with greedy
  shrinking of any failure into a seed-reproducible counterexample file;
- ``certify`` — fast Vbox-style certification of one fuzz cell's history
  (near-linear on conflict-sparse stretches, exact-engine fallback on
  suspicion), with a ``--diff`` mode that cross-checks the exact oracle;
- ``recover`` — replay a WAL file through crash recovery;
- ``trace`` — re-run any fuzz cell with the span tracer attached and emit
  its open-nested call trees as Chrome trace-event JSON (C12);
- ``stats`` — re-run any fuzz cell and print its metrics registry, as a
  table or in Prometheus text exposition format;
- ``serve`` — run the multi-tenant transaction service: a JSONL-over-TCP
  request port plus a live Prometheus metrics port;
- ``load`` — drive a client fleet against a running service and report
  throughput, latency percentiles and backpressure tallies.

Exit codes are uniform across commands: **0** success, **1** the command
ran but found a failure (an oracle violation, a failed audit, unanswered
requests), **2** an operational error (bad input file, unreachable
server), **124** the shared ``--timeout`` budget expired.
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys
import threading
import time

from repro.analysis import RunMetrics, compare_protocols, render_table
from repro.analysis.compare import PROTOCOLS

#: the uniform exit-code convention (pinned by tests/test_cli.py)
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_OPERATIONAL = 2
EXIT_TIMEOUT = 124


def _add_timeout_flag(parser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="bound the command's runtime; on expiry it stops and exits "
        f"{EXIT_TIMEOUT}",
    )


def _with_timeout(fn, args) -> int:
    """Run ``fn(args)`` under the shared ``--timeout`` budget.

    The body runs on a daemon worker; if the budget expires first the
    process reports timeout (exit 124) and exits, abandoning the worker —
    the conventional behaviour of ``timeout(1)``.
    """
    if getattr(args, "timeout", None) is None:
        return fn(args)
    box: dict = {}

    def runner() -> None:
        try:
            box["rc"] = fn(args)
        except BaseException as exc:  # re-raised on the main thread
            box["exc"] = exc

    worker = threading.Thread(target=runner, daemon=True)
    worker.start()
    worker.join(args.timeout)
    if worker.is_alive():
        print(f"timed out after {args.timeout:g}s", file=sys.stderr)
        return EXIT_TIMEOUT
    if "exc" in box:
        raise box["exc"]
    return box.get("rc", EXIT_OK)


def _profile(args):
    """The generator profile the shared ``--smoke`` / ``--long`` flags pick."""
    from repro.catalog import GeneratorProfile

    if getattr(args, "long", None) is not None:
        return GeneratorProfile.long(args.long)
    return GeneratorProfile.smoke() if args.smoke else None


def _cell_spec(args, shards: int = 1):
    """The workload spec of the cell ``--seed`` (+ profile flags) names."""
    from repro.catalog import generate, sharded_profile

    return generate(args.seed, sharded_profile(_profile(args), shards))


def _build_compare_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="run a workload under several protocols"
    )
    parser.add_argument(
        "--workload",
        choices=("encyclopedia", "banking", "editing", "index"),
        default="encyclopedia",
    )
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(PROTOCOLS),
        choices=list(PROTOCOLS) + ["optimistic-oo"],
    )
    parser.add_argument("--transactions", type=int, default=8)
    parser.add_argument("--ops", type=int, default=3)
    parser.add_argument("--keys-per-page", type=int, default=32)
    parser.add_argument("--think", type=int, default=2)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--workload-seed", type=int, default=0)


def _workload(args):
    if args.workload == "encyclopedia":
        from repro.workloads import (
            EncyclopediaWorkload,
            build_encyclopedia_workload,
            encyclopedia_layers,
        )

        spec = EncyclopediaWorkload(
            n_transactions=args.transactions,
            ops_per_transaction=args.ops,
            keys_per_page=args.keys_per_page,
            think_ticks=args.think,
            seed=args.workload_seed,
        )
        return (
            functools.partial(build_encyclopedia_workload, spec=spec),
            encyclopedia_layers(),
        )
    if args.workload == "banking":
        from repro.workloads import BankingWorkload, build_banking_workload
        from repro.workloads.banking_wl import banking_layers

        spec = BankingWorkload(
            n_transactions=args.transactions,
            think_ticks=args.think,
            seed=args.workload_seed,
        )
        return functools.partial(build_banking_workload, spec=spec), banking_layers()
    if args.workload == "editing":
        from repro.workloads import EditingWorkload, build_editing_workload
        from repro.workloads.editing_wl import editing_layers

        spec = EditingWorkload(
            n_authors=args.transactions,
            think_ticks=max(args.think, 1),
            seed=args.workload_seed,
        )
        return functools.partial(build_editing_workload, spec=spec), editing_layers()
    from repro.workloads import IndexWorkload, build_index_workload, index_layers

    spec = IndexWorkload(
        n_transactions=args.transactions,
        ops_per_transaction=args.ops,
        keys_per_page=args.keys_per_page,
        think_ticks=args.think,
        seed=args.workload_seed,
    )
    return functools.partial(build_index_workload, spec=spec), index_layers()


def cmd_compare(args) -> int:
    builder, layers = _workload(args)
    comparison = compare_protocols(
        builder,
        protocols=tuple(args.protocols),
        layers=layers,
        seeds=tuple(args.seeds),
    )
    print(
        render_table(
            RunMetrics.headers(),
            comparison.table_rows(),
            title=f"{args.workload} workload, {len(args.seeds)} seed(s), means",
        )
    )
    return 0


def cmd_census(args) -> int:
    from repro.core.enumerate import ScheduleSpace, classify_schedules
    from repro.scenarios.schedule_space import (
        single_leaf_commuting,
        three_txn_ring,
        two_leaf_commuting,
        two_leaf_same_key,
    )

    rows = []
    for name, build in (
        ("single leaf, distinct keys", single_leaf_commuting),
        ("two leaves, distinct keys", two_leaf_commuting),
        ("two leaves, same keys", two_leaf_same_key),
        ("three txns, ring over 3 leaves", three_txn_ring),
    ):
        rows.append([name, *classify_schedules(build).row()])
    print(
        render_table(
            ["scenario", *ScheduleSpace.headers()],
            rows,
            title="exhaustive schedule census",
        )
    )
    return 0


def cmd_figures(args) -> int:
    from repro.core import analyze_system
    from repro.scenarios import (
        example4_system,
        scenario_commuting_inserts,
        scenario_same_key_conflict,
    )
    from repro.scenarios.example4 import figure8_rows

    for title, build in (
        ("Example 1 — commuting inserts", scenario_commuting_inserts),
        ("Example 1 — same-key conflict", scenario_same_key_conflict),
    ):
        scenario = build()
        verdict, schedules = analyze_system(scenario.system, scenario.registry)
        print(f"--- {title} ---")
        for oid in ("Page4712", "Leaf11", "BpTree"):
            print(schedules[oid].describe(verbose=args.verbose))
        print(f"oo-serializable: {verdict.oo_serializable}, "
              f"top constraints: {sorted(verdict.top_order_constraints)}\n")

    scenario = example4_system()
    verdict, schedules = analyze_system(scenario.system, scenario.registry)
    print(render_table(
        ["object", "schedule dependencies"],
        figure8_rows(schedules),
        title="Example 4 / Figure 8",
    ))
    print(f"serial order: {verdict.serial_order}")
    return 0


def _build_fuzz_parser(subparsers) -> None:
    from repro.fuzz import FUZZ_PROTOCOLS

    parser = subparsers.add_parser(
        "fuzz", help="randomized schedule fuzzing with the oo oracle"
    )
    parser.add_argument(
        "--seeds", type=int, default=50,
        help="number of generator seeds to run (0..N-1)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="run exactly one generator seed (reproduction mode)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the small/fast smoke generator profile",
    )
    parser.add_argument(
        "--protocols", nargs="+", default=list(FUZZ_PROTOCOLS),
        choices=list(FUZZ_PROTOCOLS),
    )
    parser.add_argument(
        "--ablate", action="store_true",
        help="break the first leaf object's commutativity entries in the "
        "oracle only — the self-test that must produce a violation",
    )
    parser.add_argument(
        "--crash", action="store_true",
        help="crash-recovery mode: kill each run at an armed fault site, "
        "recover from the durable WAL prefix, judge with the crash oracle",
    )
    parser.add_argument(
        "--crash-ablate", action="store_true",
        help="crash mode with compensation replay disabled in recovery — "
        "the self-test that the crash oracle must catch",
    )
    parser.add_argument(
        "--durable", action="store_true",
        help="crash mode: run every cell on the file-backed storage engine "
        "(throwaway data dirs) and arm the storage crash sites too "
        "(mid-checkpoint, mid-eviction, torn page image)",
    )
    parser.add_argument(
        "--frames", type=int, default=6, metavar="N",
        help="durable crash mode: buffer-pool frame count (small on "
        "purpose, to force evictions)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=48, metavar="N",
        help="durable crash mode: fuzzy-checkpoint interval in WAL records",
    )
    parser.add_argument(
        "--crash-ablate-force", action="store_true",
        help="durable self-test: skip the log-force-before-flush (WAL "
        "rule) in the buffer pool and prove the crash oracle catches the "
        "resulting phantom page effects",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard seeds across N worker processes (0 = one per CPU); "
        "the campaign report is byte-identical to a serial run",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run every cell on the sharded runtime with N shards over a "
        "grouped (cross-shard) workload, judged by the composed Def 15/16 "
        "oracle; composes with --jobs (and --service: each cell's service "
        "runs N shards), and at 1 the report is byte-identical to the "
        "single-core campaign",
    )
    parser.add_argument(
        "--max-violations", type=int, default=1,
        help="stop the campaign after this many violations",
    )
    parser.add_argument(
        "--out", default="fuzz_counterexample.json",
        help="where to write the shrunk counterexample on failure",
    )
    parser.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay a counterexample file instead of running a campaign",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="dump Chrome traces of violating/gave-up/errored cells here; "
        "tracing only observes, so the campaign report is unchanged",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="service mode: each seed x protocol stands up the full "
        "multi-tenant socket service, drives a fault-injected client "
        "fleet, and judges the run with the oracle + ledger audit",
    )
    parser.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="service mode: number of tenants in the fleet",
    )
    parser.add_argument(
        "--clients-per-tenant", type=int, default=3, metavar="N",
        help="service mode: concurrent client connections per tenant",
    )
    parser.add_argument(
        "--requests-per-client", type=int, default=6, metavar="N",
        help="service mode: requests each client submits",
    )
    parser.add_argument(
        "--no-faults", action="store_true",
        help="service mode: disable the injected service fault plans",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="judge histories with the fast certifier instead of the full "
        "oracle replay (same verdicts; the oo-only column reads zero "
        "because fast acceptances skip the conventional baseline)",
    )
    _add_timeout_flag(parser)


def cmd_fuzz(args) -> int:
    import json

    from repro.catalog import WorkloadSpec
    from repro.core.judge import Ablation
    from repro.fuzz import counterexample_dict, run_campaign, run_cell, shrink

    if args.shards > 1 and (
        args.replay is not None
        or args.crash
        or args.crash_ablate
        or args.crash_ablate_force
        or args.certify
        or args.trace_dir
    ):
        print(
            "error: --shards composes with --jobs and --service only; "
            "--replay, the crash modes, --certify and --trace-dir are "
            "single-core campaign features",
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL

    if args.replay is not None:
        with open(args.replay) as fh:
            data = json.load(fh)
        if data.get("kind") == "crash":
            return _cmd_fuzz_replay_crash(args.replay, data)
        spec = WorkloadSpec.from_dict(data["workload"])
        _, report = run_cell(
            spec,
            data["protocol"],
            exec_seed=data["exec_seed"],
            ablation=Ablation.from_dict(data.get("ablation")),
            certify=args.certify,
        )
        print(
            f"replay {args.replay}: protocol={data['protocol']} "
            f"exec_seed={data['exec_seed']} "
            f"oo_serializable={report.oo_serializable} "
            f"conventional={report.conventional_serializable}"
        )
        if report.violation:
            print(report.description)
        return 1 if report.violation else 0

    profile = _profile(args)
    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    if args.service:
        return _cmd_fuzz_service(args, seeds)
    if args.crash or args.crash_ablate or args.crash_ablate_force:
        return _cmd_fuzz_crash(args, seeds, profile)
    campaign = run_campaign(
        seeds=seeds,
        protocols=tuple(args.protocols),
        profile=profile,
        ablate_first_leaf=args.ablate,
        max_violations=args.max_violations,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
        certify=args.certify,
        shards=args.shards,
    )
    header, rows = campaign.table()
    print(
        render_table(
            header,
            rows,
            title=f"fuzz campaign, {campaign.seeds_run} seed(s)"
            + (" [ablated oracle]" if args.ablate else "")
            + (" [certified]" if args.certify else ""),
        )
    )
    for seed, protocol, error in campaign.errors:
        print(f"ERROR seed={seed} protocol={protocol}: {error}")
    if not campaign.violations:
        print("no oracle violations" if campaign.ok else "simulator errors")
        return 0 if campaign.ok else 1

    if campaign.shards > 1:
        # The shrinker minimizes single-core cells; a sharded violation is
        # already seed-reproducible as a one-cell campaign (ablation kept).
        violation = campaign.violations[0]
        print(
            f"violation: generator seed {violation.seed} under "
            f"{violation.protocol} at {campaign.shards} shards; "
            f"reproduce with: python -m repro fuzz "
            f"--seed {violation.seed} --shards {campaign.shards} "
            f"--protocols {violation.protocol}"
            + (" --smoke" if args.smoke else "")
            + (" --ablate" if args.ablate else "")
        )
        print(violation.report.description)
        return 1

    violation = campaign.violations[0]
    print(
        f"violation: generator seed {violation.seed} under "
        f"{violation.protocol}; shrinking..."
    )
    small, stats = shrink(
        violation.spec,
        violation.protocol,
        exec_seed=violation.seed,
        ablation=violation.ablation,
    )
    payload = counterexample_dict(
        small,
        violation.protocol,
        exec_seed=violation.seed,
        ablation=violation.ablation,
        report=violation.report,
        stats=stats,
    )
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"shrunk {stats.programs_before}->{stats.programs_after} programs, "
        f"{stats.sends_before}->{stats.sends_after} sends "
        f"({stats.evals} evals); wrote {args.out}"
    )
    print(
        f"reproduce with: python -m repro fuzz --replay {args.out}  "
        f"(or --seed {violation.seed}"
        + (" --smoke" if args.smoke else "")
        + (" --ablate" if violation.ablation else "")
        + f" --protocols {violation.protocol})"
    )
    return 1


def _cmd_fuzz_service(args, seeds) -> int:
    from repro.fuzz.service_campaign import run_service_campaign

    tenants = tuple(f"tenant{i}" for i in range(max(1, args.tenants)))
    campaign = run_service_campaign(
        seeds=seeds,
        protocols=tuple(args.protocols),
        tenants=tenants,
        clients_per_tenant=args.clients_per_tenant,
        requests_per_client=args.requests_per_client,
        with_faults=not args.no_faults,
        shards=args.shards,
    )
    header, rows = campaign.table()
    print(
        render_table(
            header,
            rows,
            title=f"service campaign, {len(seeds)} seed(s), "
            f"{len(tenants)} tenant(s)"
            + (f", {args.shards} shards" if args.shards > 1 else "")
            + ("" if args.no_faults else ", faults armed"),
        )
    )
    if campaign.ok:
        print(
            "no oracle violations, no lost admitted commits, "
            "all requests answered"
        )
        return EXIT_OK
    for cell in campaign.failures:
        detail = cell.error or (
            f"violation={cell.report.violation if cell.report else '?'} "
            f"lost={cell.audit.get('lost_commits')} "
            f"unsettled={cell.audit.get('unsettled')} "
            f"unanswered={cell.unanswered}"
        )
        print(f"FAIL seed={cell.seed} protocol={cell.protocol}: {detail}")
    return EXIT_FAILURE


def _cmd_fuzz_crash(args, seeds, profile) -> int:
    import json

    from repro.fuzz.crash import (
        DurableConfig,
        find_log_force_ablation,
        run_crash_campaign,
    )

    if args.crash_ablate_force:
        # Self-test: a buffer pool that flushes dirty pages without
        # forcing the log first must be caught by the crash oracle.
        found = find_log_force_ablation(seeds=seeds)
        if found is None:
            print("log-force ablation NOT detected — the crash oracle is blind")
            return 1
        spec, outcome = found
        print(
            f"log-force ablation detected (seed {outcome.seed}, "
            f"{outcome.protocol}, {outcome.site}#{outcome.occurrence}): "
            "phantom page effects survive recovery"
        )
        for line in outcome.violations:
            print(f"violation: {line}")
        payload = outcome.to_counterexample(spec)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(
            f"wrote {args.out}; reproduce with: "
            f"python -m repro fuzz --replay {args.out}"
        )
        return 0

    durable = (
        DurableConfig(
            frames=args.frames, checkpoint_every=args.checkpoint_every
        )
        if args.durable
        else None
    )
    skip = args.crash_ablate
    campaign = run_crash_campaign(
        seeds=seeds,
        protocols=tuple(args.protocols),
        profile=profile,
        skip_compensation=skip,
        durable=durable,
        max_violations=args.max_violations,
        jobs=args.jobs,
    )
    header, rows = campaign.table()
    print(
        render_table(
            header,
            rows,
            title=f"crash campaign, {campaign.seeds_run} seed(s), "
            f"{campaign.crash_runs} crash run(s)"
            + (" [compensation replay DISABLED]" if skip else "")
            + (" [durable store]" if durable else ""),
        )
    )
    for seed, protocol, site, error in campaign.errors:
        print(f"ERROR seed={seed} protocol={protocol} site={site}: {error}")
    if skip:
        # Self-test: a recovery that forgets compensation must be caught.
        if campaign.violations:
            v = campaign.violations[0]
            print(
                f"ablation detected (seed {v.seed}, {v.protocol}, "
                f"{v.site}): the crash oracle sees broken recovery"
            )
            return 0
        print("ablation NOT detected — the crash oracle is blind")
        return 1
    if not campaign.violations:
        print(
            "no crash-oracle violations"
            if campaign.ok
            else "simulator errors"
        )
        return 0 if campaign.ok else 1
    violation = campaign.violations[0]
    with open(args.out, "w") as fh:
        json.dump(violation.counterexample, fh, indent=2)
        fh.write("\n")
    for line in violation.outcome.violations:
        print(f"violation: {line}")
    print(
        f"wrote {args.out}; reproduce with: "
        f"python -m repro fuzz --replay {args.out}"
    )
    return 1


def _cmd_fuzz_replay_crash(path: str, data: dict) -> int:
    from repro.fuzz.crash import replay_crash

    outcome = replay_crash(data)
    durable = outcome.durable
    print(
        f"replay {path}: protocol={outcome.protocol} "
        f"plan=({outcome.site}#{outcome.occurrence}) "
        + (
            f"durable=(frames={durable['frames']}, "
            f"ckpt={durable['checkpoint_every']}, "
            f"skip_log_force={durable['skip_log_force']}) "
            if durable
            else ""
        )
        + f"crashed={outcome.crashed} winners={outcome.winners} "
        f"losers={outcome.losers}"
    )
    for line in outcome.violations:
        print(f"violation: {line}")
    return 1 if outcome.violations else 0


def _build_certify_parser(subparsers) -> None:
    from repro.fuzz import FUZZ_PROTOCOLS

    parser = subparsers.add_parser(
        "certify",
        help="fast black-box certification of one fuzz cell's history: "
        "near-linear on conflict-sparse stretches, exact-engine fallback "
        "on suspicion, byte-identical witnesses on failure",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="generator seed (doubles as the executor seed); required "
        "unless --replay is given",
    )
    parser.add_argument(
        "--protocol", default=None, choices=list(FUZZ_PROTOCOLS),
        help="scheduler protocol for the cell; required unless --replay",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the small/fast smoke generator profile",
    )
    parser.add_argument(
        "--long", type=int, default=None, metavar="N",
        help="use the long conflict-sparse generator profile with N "
        "top-level programs (the C14 regime; overrides --smoke)",
    )
    parser.add_argument(
        "--ablate", action="store_true",
        help="break the first leaf object's commutativity entries in the "
        "judge only — the self-test that must produce a violation",
    )
    parser.add_argument(
        "--replay", default=None, metavar="FILE",
        help="certify the history of a fuzz counterexample file instead "
        "of a (seed, protocol) cell",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="also run the exact oracle and compare verdict and witness; "
        f"any divergence exits {EXIT_OPERATIONAL}",
    )
    _add_timeout_flag(parser)


def cmd_certify(args) -> int:
    import json

    from repro.catalog import WorkloadSpec
    from repro.core.certify import certify_history
    from repro.core.judge import Ablation, check_history, strictness_for
    from repro.fuzz.driver import execute_cell

    ablation = None
    if args.replay is not None:
        with open(args.replay) as fh:
            data = json.load(fh)
        if data.get("kind") == "crash":
            print(
                "error: crash counterexamples have no committed history to "
                "certify; use `repro fuzz --replay`",
                file=sys.stderr,
            )
            return EXIT_OPERATIONAL
        spec = WorkloadSpec.from_dict(data["workload"])
        protocol = data["protocol"]
        exec_seed = data["exec_seed"]
        ablation = Ablation.from_dict(data.get("ablation"))
        label = args.replay
    else:
        if args.seed is None or args.protocol is None:
            print(
                "error: --seed and --protocol are required without --replay",
                file=sys.stderr,
            )
            return EXIT_OPERATIONAL
        spec = _cell_spec(args)
        protocol = args.protocol
        exec_seed = None
        if args.ablate:
            ablation = Ablation(object_name=spec.leaf_objects[0].name)
        label = f"seed {args.seed}"

    strict = strictness_for(protocol)
    result = execute_cell(spec, protocol, exec_seed=exec_seed)
    report = certify_history(result, ablation, strict_cross_object=strict)
    print(
        f"certify {label} under {protocol}: "
        f"{'VIOLATION' if report.violation else 'ok'} "
        f"({report.committed} committed, {report.actions} actions, "
        f"{report.epochs} epoch{'' if report.epochs == 1 else 's'} / "
        f"{report.escalated_epochs} escalated; "
        f"{report.fast_commits} fast / {report.escalated_commits} exact, "
        f"{report.stragglers_scanned} stragglers scanned"
        + (
            f"; escalated: {report.escalation_reason}"
            if report.escalated
            else ""
        )
        + ")"
    )
    if report.violation:
        print(report.description)
    if args.diff:
        exact = check_history(result, ablation, strict_cross_object=strict)
        diverged = exact.violation != report.violation or (
            report.violation
            and exact.description != report.as_oracle_report().description
        )
        if diverged:
            print(
                "DIVERGENCE: certifier and exact oracle disagree",
                file=sys.stderr,
            )
            print(
                f"  certifier: violation={report.violation}", file=sys.stderr
            )
            print(f"  exact:     violation={exact.violation}", file=sys.stderr)
            if exact.violation:
                print(f"  exact witness: {exact.description}", file=sys.stderr)
            return EXIT_OPERATIONAL
        print("diff: certifier verdict and witness match the exact oracle")
    return EXIT_FAILURE if report.violation else EXIT_OK


def _build_recover_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "recover",
        help="recover a database from a WAL file and report what was done",
    )
    parser.add_argument(
        "wal", nargs="?", default=None,
        help="JSONL write-ahead log file (defaults to "
        "DATA_DIR/wal.jsonl when --data-dir is given)",
    )
    parser.add_argument(
        "--seed", type=int, required=True,
        help="generator seed of the workload the log belongs to (recovery "
        "re-creates the object directory from the same bootstrap)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="the workload used the smoke generator profile",
    )
    parser.add_argument(
        "--skip-compensation", action="store_true",
        help="ablation: recover without replaying compensations",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="recover a file-backed data directory in place: start redo "
        "from the last complete fuzzy checkpoint, write compensations "
        "back into DIR/wal.jsonl, and leave DIR clean for reopening",
    )
    parser.add_argument(
        "--frames", type=int, default=256, metavar="N",
        help="buffer-pool frames for --data-dir recovery",
    )


def cmd_recover(args) -> int:
    import os

    from repro.catalog import host_workload
    from repro.oodb.wal import WriteAheadLog, recover, store_digest, verify_log

    if args.wal is None and args.data_dir is None:
        print("recover: either a WAL file or --data-dir is required")
        return EXIT_OPERATIONAL
    wal_path = args.wal
    if wal_path is None:
        wal_path = os.path.join(args.data_dir, "wal.jsonl")
    wal = WriteAheadLog.load(wal_path)
    verify_log(wal.records)
    store = None
    if args.data_dir is not None:
        from repro.oodb.store import FileBackedPageStore

        store = FileBackedPageStore(args.data_dir, frames=args.frames)
        # In-place recovery: compensations must extend the persistent
        # log, so re-attach the backing path the loader dropped.
        wal.path = wal_path
    db, _, _ = host_workload(_cell_spec(args))
    # Without --data-dir the loaded log has no backing path, so
    # recovery's own records stay in memory — the input file is never
    # modified.
    report = recover(
        wal, db, store=store, skip_compensation=args.skip_compensation
    )
    print(report.describe())
    print(f"page-store digest: {store_digest(db.store)}")
    if store is not None:
        db.store.close()
        wal.close()
        print(f"data dir {args.data_dir} recovered and checkpointed")
    return 0


def _build_trace_parser(subparsers) -> None:
    from repro.fuzz import FUZZ_PROTOCOLS

    parser = subparsers.add_parser(
        "trace",
        help="re-run one fuzz cell with the span tracer attached and emit "
        "its call trees as Chrome trace-event JSON (open in Perfetto)",
    )
    parser.add_argument(
        "--seed", type=int, required=True,
        help="generator seed (doubles as the executor seed, so this "
        "reproduces any campaign cell, e.g. a counterexample's)",
    )
    parser.add_argument(
        "--protocol", required=True, choices=list(FUZZ_PROTOCOLS),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the small/fast smoke generator profile",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the Chrome trace here instead of stdout",
    )
    parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="also dump the raw typed event stream as JSONL",
    )
    parser.add_argument(
        "--render", action="store_true",
        help="print the span trees as indented text instead of JSON",
    )
    parser.add_argument(
        "--wall", action="store_true",
        help="record wall-clock time on spans alongside logical ticks",
    )


def cmd_trace(args) -> int:
    import json

    from repro.fuzz.driver import execute_cell
    from repro.obs import (
        EventBus,
        EventLog,
        SpanTracer,
        chrome_trace,
        events_to_jsonl,
        validate_chrome_trace,
    )

    spec = _cell_spec(args)
    bus = EventBus()
    tracer = SpanTracer(bus, wall=args.wall)
    log = EventLog(bus) if args.events else None
    result = execute_cell(spec, args.protocol, bus=bus)
    tracer.finish(result.makespan)
    if log is not None:
        with open(args.events, "w") as fh:
            fh.write(events_to_jsonl(log))
        print(
            f"wrote {args.events}: {len(log)} events", file=sys.stderr
        )
    if args.render:
        print(tracer.render())
        return 0
    trace = chrome_trace(tracer.trees())
    problems = validate_chrome_trace(trace)
    for problem in problems:
        print(f"trace problem: {problem}", file=sys.stderr)
    text = json.dumps(trace, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(
            f"wrote {args.out}: {len(trace['traceEvents'])} trace events, "
            f"{len(tracer.trees())} transaction tree(s)"
        )
    else:
        print(text)
    return 1 if problems else 0


def _build_stats_parser(subparsers) -> None:
    from repro.fuzz import FUZZ_PROTOCOLS

    parser = subparsers.add_parser(
        "stats",
        help="re-run one fuzz cell and print its metrics registry "
        "(scheduler, lock table, WAL, analysis engine)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--protocol", required=True, choices=list(FUZZ_PROTOCOLS),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the small/fast smoke generator profile",
    )
    parser.add_argument(
        "--format", choices=("table", "prometheus"), default="table",
        help="table (default) or Prometheus text exposition format",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run the cell on the sharded runtime and print the merged "
        "per-shard metric registry (shard label folded into one table)",
    )


def cmd_stats(args) -> int:
    from repro.obs import prometheus_text

    spec = _cell_spec(args, args.shards)
    if args.shards > 1:
        from repro.fuzz.sharded import run_sharded_cell

        result = run_sharded_cell(spec, args.protocol, args.shards)
        # Numeric samples are already summed across the per-shard
        # registries; the flattened keys keep exposition sample syntax.
        flat = dict(sorted(result.metrics.items()))
        title = f"seed {args.seed}, {args.protocol}, {args.shards} shards"
        if args.format == "prometheus":
            print(f"# merged across {args.shards} shards")
            for name, value in flat.items():
                print(f"{name} {value}")
            return 0
    else:
        from repro.fuzz.driver import execute_cell

        result = execute_cell(spec, args.protocol)
        title = f"seed {args.seed}, {args.protocol}"
        if args.format == "prometheus":
            print(prometheus_text(result.db.metrics), end="")
            return 0
        flat = result.db.metrics.as_dict()
    rows = [[name, value] for name, value in flat.items()]
    print(render_table(["metric", "value"], rows, title=title))
    return 0


def _build_serve_parser(subparsers) -> None:
    from repro.fuzz import FUZZ_PROTOCOLS

    parser = subparsers.add_parser(
        "serve",
        help="run the multi-tenant transaction service (JSONL-over-TCP "
        "requests + Prometheus metrics endpoint)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7411,
        help="request port (0 = pick a free port)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=7412,
        help="Prometheus /metrics port (0 = pick a free port)",
    )
    parser.add_argument(
        "--protocol", default="page-2pl", choices=list(FUZZ_PROTOCOLS),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of the hosted object graph and the executor",
    )
    parser.add_argument(
        "--deadline-ticks", type=int, default=4000,
        help="default per-request deadline budget in logical ticks "
        "(0 = no deadline)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=4,
        help="per-tenant concurrent (queued+executing) transaction quota",
    )
    parser.add_argument(
        "--rate", type=float, default=0.0,
        help="per-tenant sustained request rate, tokens/second (0 = off)",
    )
    parser.add_argument(
        "--burst", type=int, default=8,
        help="per-tenant token-bucket burst capacity",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=8,
        help="per-tenant admitted-but-waiting queue bound",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64,
        help="global engine queue bound across all tenants",
    )
    parser.add_argument(
        "--session-read-timeout", type=float, default=5.0,
        help="seconds before a stalled client session is dropped",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the hosted object graph across N shards and run "
        "batches on the sharded runtime (cross-shard requests two-phase "
        "commit through the Def 15/16 coordinator); excludes --data-dir",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="run on the durable file-backed storage engine rooted here: "
        "page images + DIR/wal.jsonl survive restarts (recover with "
        "`repro recover --data-dir DIR`)",
    )
    parser.add_argument(
        "--frames", type=int, default=256,
        help="buffer-pool frame count for --data-dir",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=512,
        help="fuzzy-checkpoint interval in WAL records for --data-dir",
    )
    _add_timeout_flag(parser)


def cmd_serve(args) -> int:
    from repro.errors import DatabaseError
    from repro.runtime.executor import RetryPolicy
    from repro.service import (
        ServiceConfig,
        ServiceServer,
        TenantQuota,
        TransactionService,
    )

    config = ServiceConfig(
        protocol=args.protocol,
        seed=args.seed,
        deadline_ticks=args.deadline_ticks or None,
        queue_capacity=args.queue_capacity,
        default_quota=TenantQuota(
            max_inflight=args.max_inflight,
            rate=args.rate,
            burst=args.burst,
            max_queue_depth=args.queue_depth,
        ),
        retry_policy=RetryPolicy(),
        data_dir=args.data_dir,
        frames=args.frames,
        checkpoint_every=args.checkpoint_every,
        shards=args.shards,
    )
    try:
        service = TransactionService(config)
    except DatabaseError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    server = ServiceServer(
        service,
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        session_read_timeout=args.session_read_timeout,
    )
    server.start()
    print(
        f"serving protocol={args.protocol} seed={args.seed} on "
        f"{args.host}:{server.port} "
        f"(metrics http://{args.host}:{server.metrics_port}/metrics)"
        + (f" shards={args.shards}" if args.shards > 1 else "")
        + (f" data-dir={args.data_dir}" if args.data_dir else ""),
        flush=True,
    )
    # Graceful shutdown on SIGTERM too: background jobs in non-interactive
    # shells (CI) start with SIGINT ignored, so ctrl-C semantics must also
    # be reachable via `kill -TERM`.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    timed_out = False
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )
    try:
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                break
            time.sleep(0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    audit = service.audit()
    print(f"shutdown: audit={'ok' if audit['ok'] else audit}", flush=True)
    if timed_out:
        print(f"timed out after {args.timeout:g}s", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK if audit["ok"] else EXIT_FAILURE


def _build_load_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "load",
        help="drive a client fleet against a running service and report "
        "throughput, latency percentiles and backpressure tallies",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411)
    parser.add_argument(
        "--tenants", type=int, default=3, help="tenants in the fleet"
    )
    parser.add_argument(
        "--clients-per-tenant", type=int, default=2,
        help="concurrent client connections per tenant",
    )
    parser.add_argument(
        "--requests-per-client", type=int, default=10,
        help="requests each client submits",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--faults", action="store_true",
        help="arm a seeded service fault plan per client (slow clients, "
        "mid-frame stalls, post-submit disconnects, arrival bursts)",
    )
    parser.add_argument(
        "--deadline-ticks", type=int, default=None,
        help="per-request deadline budget to ask the server for",
    )
    parser.add_argument(
        "--think", type=float, default=0.0, metavar="SECONDS",
        help="mean client think time between requests",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="assert the server is running with N shards before driving "
        "load (probes the config op; mismatch is an operational error)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    _add_timeout_flag(parser)


def cmd_load(args) -> int:
    import json

    from repro.faults.service import ServiceFaultPlan
    from repro.service.client import run_load

    if args.shards is not None:
        from repro.service.client import ServiceClient

        with ServiceClient(args.host, args.port) as probe:
            config = probe.request({"op": "config"})
        served = config.get("config", config).get("shards", 1)
        if served != args.shards:
            print(
                f"error: server runs shards={served}, expected "
                f"--shards {args.shards}",
                file=sys.stderr,
            )
            return EXIT_OPERATIONAL

    fault_plan_for = None
    if args.faults:

        fault_plan_for = functools.partial(
            ServiceFaultPlan.for_client, args.seed
        )

    report = run_load(
        args.host,
        args.port,
        tenants=[f"tenant{i}" for i in range(max(1, args.tenants))],
        clients_per_tenant=args.clients_per_tenant,
        requests_per_client=args.requests_per_client,
        seed=args.seed,
        fault_plan_for=fault_plan_for,
        deadline_ticks=args.deadline_ticks,
        think_time_s=args.think,
    )
    summary = report.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        rows = [
            [key, json.dumps(value) if isinstance(value, dict) else value]
            for key, value in summary.items()
        ]
        print(render_table(["measure", "value"], rows, title="load report"))
    answered = (
        summary["committed"]
        + summary["gave_up"]
        + summary["errors"]
        + summary["invalid"]
        + summary["rejected_final"]
    )
    if summary["errors"] or answered != summary["requests"]:
        return EXIT_FAILURE
    return EXIT_OK


def _build_shard_parser(subparsers) -> None:
    from repro.fuzz import FUZZ_PROTOCOLS

    parser = subparsers.add_parser(
        "shard",
        help="run one workload cell on the sharded multi-core runtime and "
        "print its canonical report (cross-shard 2PC, composed Def 15/16 "
        "oracle); --single prints the single-core reference instead",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--protocol", default="page-2pl", choices=list(FUZZ_PROTOCOLS),
    )
    parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shard count; the workload is grouped (cross-shard) only "
        "when N > 1, so --shards 1 stays comparable to --single",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the small/fast smoke generator profile",
    )
    parser.add_argument(
        "--single", action="store_true",
        help="print the single-core reference report for the same spec "
        "(diff against a --shards 1 run for the byte-identity check)",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="write per-shard WAL segments + the coordinator decide log "
        "under DIR (resolve after a crash with --recover)",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="instead of running, resolve the WAL segments under "
        "--data-dir: presumed abort for undecided prepares, forced "
        "commit for durable decide-commit verdicts",
    )
    _add_timeout_flag(parser)


def cmd_shard(args) -> int:
    spec = _cell_spec(args, args.shards)

    if args.recover:
        from repro.shard import resolve_segments

        if not args.data_dir:
            print("error: --recover requires --data-dir", file=sys.stderr)
            return EXIT_OPERATIONAL
        report = resolve_segments(
            spec, args.shards, args.data_dir, protocol=args.protocol
        )
        for base, verdict in sorted(report.decisions.items()):
            print(f"decision {base}: {verdict}")
        for resolution in report.shards:
            print(
                f"shard {resolution.shard}: "
                f"resolved_commits={sorted(resolution.resolved_commits)} "
                f"presumed_aborts={sorted(resolution.presumed_aborts)} "
                f"winners={sorted(resolution.recovery.winners)} "
                f"digest={resolution.digest[:12]}"
            )
        print(f"winners: {sorted(report.winners)}")
        return EXIT_OK

    if args.single:
        from repro.fuzz.sharded import single_core_text

        print(single_core_text(spec, args.protocol), end="")
        return EXIT_OK

    from repro.fuzz.sharded import run_sharded_cell

    result = run_sharded_cell(
        spec,
        args.protocol,
        args.shards,
        data_dir=args.data_dir,
        collect_events=True,
    )
    print(result.canonical_text(), end="")
    return EXIT_OK if result.ok else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Serializability in Object-Oriented "
        "Database Systems' (ICDE 1990)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _build_compare_parser(subparsers)
    subparsers.add_parser("census", help="exhaustive schedule-space census")
    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's dependency tables"
    )
    figures.add_argument(
        "--verbose", action="store_true", help="show dependency provenance"
    )
    _build_fuzz_parser(subparsers)
    _build_certify_parser(subparsers)
    _build_recover_parser(subparsers)
    _build_trace_parser(subparsers)
    _build_stats_parser(subparsers)
    _build_serve_parser(subparsers)
    _build_load_parser(subparsers)
    _build_shard_parser(subparsers)
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "census":
            return cmd_census(args)
        if args.command == "fuzz":
            return _with_timeout(cmd_fuzz, args)
        if args.command == "certify":
            return _with_timeout(cmd_certify, args)
        if args.command == "recover":
            return cmd_recover(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "load":
            return _with_timeout(cmd_load, args)
        if args.command == "shard":
            return _with_timeout(cmd_shard, args)
        return cmd_figures(args)
    except (OSError, ConnectionError) as exc:
        # Operational failures (unreachable server, missing file) get the
        # uniform exit code, distinct from "ran and found a violation".
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
