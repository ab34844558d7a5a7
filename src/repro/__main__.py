"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo [--seed N] [--json PATH]``
    Run the quickstart workload (clean + injected fault) through a
    :class:`repro.DetectionSession` and print the findings.
``coverage [--seed N] [--json PATH]``
    The robustness experiment: inject all 21 fault classes, print the
    per-class detection table (exit status 1 if any class is missed).
``overhead [--backend sim|threads] [--seed N] [--repeats N] [--intervals T ...] [--scenarios NAME ...] [--bounded C] [--wal] [--fleet N] [--service] [--json PATH]``
    Regenerate Table 1 (overhead ratio vs checking interval) through a
    one-monitor DetectionSession per cell; ``--bounded`` records through
    a capacity-C ring buffer and surfaces dropped events, ``--wal``
    instead measures write-ahead-log recording overhead (events/sec and
    bytes/event per fsync policy vs the in-memory sink), ``--fleet N``
    instead compares incremental checking-list evaluation against the
    full re-walk on an N-monitor fleet (the hot-path gate), ``--service``
    instead measures detection-service ingest throughput.
``scaling [--backend sim|threads] [--seed N] [--counts N ...] [--shards N ...] [--quick] [--json PATH]``
    Scaling: one DetectionSession per monitor vs one shared session at
    fleet sizes 1/4/16; ``--shards`` compares staggered shard counts of
    the shared session instead (per-shard world-stop detail).
``ablations [--only a1|a2|a3]``
    The ablation tables A1-A3 of DESIGN.md (ST vs FD checking, checking
    interval vs detection latency, pruning vs live-window memory).
``chaos [--seed N] [--rounds N] [--network] [--clients N] [--json PATH]``
    Detector-resilience chaos campaign: a healthy workload with faults
    injected into the detection pipeline itself (raising evaluators,
    transient checkpoint failures, delays, event-drop bursts); exit
    status 1 unless the supervised engine rides it out cleanly.
    ``--network`` runs the detection-*service* campaign instead:
    N remote clients over a sim network with connection drops, partial
    frames, slow-consumer stalls and a server crash/restart; passes only
    with zero client-side exceptions, every lossy window DEGRADED and no
    duplicate reports after recovery.
``crash-recovery [--seed N] [--rounds N] [--crashes N] [--backend sim|threads] [--fsync P] [--points P ...] [--json PATH]``
    Crash-durability campaign: kill a one-shard durable session at seeded
    crash points, restart and recover it, and compare the delivered fault
    set against an uninterrupted golden run; exit status 1 unless the
    sets match with zero duplicates.
``serve --socket PATH [--durable DIR] [--runtime S] [--json PATH]``
    Run the detection ingestion daemon behind a unix socket: remote
    clients ship checkpoint windows, the daemon replays them into shadow
    monitors and journals delivered reports (exactly-once across
    restarts when ``--durable`` is set).
``service-client --socket PATH [--rounds N] [--seed N] [--json PATH]``
    Run a demo workload (bounded buffer + allocator misuser) whose
    monitors report to a ``serve`` daemon through the fault-tolerant
    client; exits 0 only if no client-side exception escaped.
``service-smoke [--rounds N] [--json PATH]``
    End-to-end service smoke: start a daemon, run two client processes,
    SIGKILL and restart the daemon mid-run, and assert both clients
    survive with zero errors and the recovered journal holds no
    duplicate reports.
``check TRACE.jsonl --monitor {buffer,allocator} [--tmax T] ...``
    Offline FD-rule checking of a persisted JSONL trace (see
    :mod:`repro.history.serialize`).
``metrics [--seed N] [--monitors N] [--shards N] [--until S] [--stable] [--json PATH]``
    Run a seeded sim-kernel fleet through a :class:`DetectionSession` and
    export its live metrics registry: Prometheus text on stdout, the
    versioned ``repro-metrics/1`` JSON document via ``--json``.
    ``--stable`` drops wall-clock histogram families so two identical
    invocations produce byte-identical JSON.
``gates run SPEC.toml --metrics FILE [FILE ...] [--json PATH]``
    Evaluate declarative performance gates (TOML specs) against exported
    metrics JSON (``repro metrics`` dumps or ``BENCH_*.json`` bench
    envelopes); prints a pass/fail table and exits nonzero on any
    violation.
``selftest [--seed N] [--json PATH]``
    One fast end-to-end sanity pass (clean run + one injected fault).

Every randomised subcommand takes ``--seed``, and every result-producing
subcommand takes ``--json PATH`` ('-' for stdout) emitting one stable
top-level schema: ``{"command": ..., "seed": ..., "results": {...}}``.
The bench subcommands (``overhead``, ``scaling``) print and export only
their metrics registry: ``results`` is ``{"bench": ..., "metrics": ...}``
with ``metrics`` a ``repro-metrics/1`` document.  (``check``, ``faults``
and ``ablations`` print fixed, deterministic tables with no measurement
payload, so they take neither.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import InjectionError

__all__ = ["main"]


def _emit_json(args: argparse.Namespace, results: dict) -> None:
    """Write the uniform ``{"command", "seed", "results"}`` envelope."""
    import json

    if getattr(args, "json", None) is None:
        return
    payload = json.dumps(
        {
            "command": args.command,
            "seed": getattr(args, "seed", None),
            "results": results,
        },
        indent=2,
    )
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"json written to {args.json}")


def _positive(kind):
    """argparse type: a strictly positive ``kind`` (int or float), so a
    bad value exits 2 with usage instead of failing mid-run."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    return parse


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (
        BoundedBuffer,
        Delay,
        DetectionSession,
        DetectorConfig,
        HistoryDatabase,
        RandomPolicy,
        SimKernel,
        TriggeredHooks,
    )

    def run(hooks=None):
        kernel = SimKernel(RandomPolicy(seed=args.seed), on_deadlock="stop")
        buffer = BoundedBuffer(
            kernel,
            capacity=3,
            history=HistoryDatabase(),
            hooks=hooks,
            service_time=0.02,
        )
        if hooks is not None:
            hooks.core = buffer.monitor.core
        session = DetectionSession(
            kernel, monitors=[buffer], config=DetectorConfig(interval=0.5)
        )

        def producer():
            for item in range(25):
                yield Delay(0.05)
                yield from buffer.send(item)

        def consumer():
            for __ in range(25):
                yield Delay(0.04)
                yield from buffer.receive()

        kernel.spawn(producer())
        kernel.spawn(consumer())
        session.start()
        kernel.run(until=20)
        kernel.raise_failures()
        return session

    clean = run()
    print(f"clean run   : {len(clean.reports)} reports "
          f"(clean={clean.clean})")
    faulty = run(TriggeredHooks("enter_despite_owner", fire_at=2))
    print(f"faulty run  : {len(faulty.reports)} reports")
    for report in faulty.reports[:3]:
        print(f"   {report}")
    _emit_json(
        args,
        {
            "clean_run": {"reports": len(clean.reports), "clean": clean.clean},
            "faulty_run": {
                "reports": len(faulty.reports),
                "rules": sorted(
                    {report.rule_id for report in faulty.reports}
                ),
            },
        },
    )
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.bench.coverage import coverage_table, run_coverage

    outcomes = run_coverage(seed=args.seed)
    print(coverage_table(outcomes))
    _emit_json(
        args,
        {
            "bench": "coverage",
            "detected": sum(1 for o in outcomes.values() if o.detected),
            "total": len(outcomes),
            "faults": [
                {
                    "fault": fault.label,
                    "level": fault.level.value,
                    "activated": outcome.activated,
                    "detected": outcome.detected,
                    "rules": list(outcome.rules),
                    "reports": len(outcome.reports),
                }
                for fault, outcome in outcomes.items()
            ],
        },
    )
    return 0 if all(o.detected for o in outcomes.values()) else 1


def _emit_bench(args: argparse.Namespace, bench: str, registry) -> int:
    """Print a bench registry as tables and export it as the envelope's
    ``results.metrics``."""
    from repro.bench.harness import render_registry
    from repro.observability.export import to_json_dict

    print(render_registry(registry, title=bench))
    _emit_json(args, {"bench": bench, "metrics": to_json_dict(registry)})
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.bench import overhead

    if args.service:
        from repro.bench.service_bench import service_bench

        registry = service_bench(seed=args.seed, repeats=args.repeats)
        return _emit_bench(args, "service-ingest", registry)
    if args.fleet is not None:
        registry = overhead.fleet_bench(
            args.fleet,
            backend=args.backend,
            spec=replace(overhead.FLEET_SPEC, seed=args.seed),
            repeats=args.repeats,
        )
        return _emit_bench(args, "overhead-fleet", registry)
    spec = replace(overhead.BENCH_SPEC, seed=args.seed)
    if args.wal:
        registry = overhead.wal_bench(
            scenarios=args.scenarios,
            backend=args.backend,
            spec=spec,
            interval=args.intervals[0] if args.intervals else 1.0,
            repeats=args.repeats,
        )
        return _emit_bench(args, "overhead-wal", registry)
    registry = overhead.overhead_bench(
        intervals=args.intervals or overhead.PAPER_INTERVALS,
        scenarios=args.scenarios,
        backend=args.backend,
        spec=spec,
        repeats=args.repeats,
        bounded=args.bounded,
    )
    print(overhead.table1_pivot(registry))
    print()
    return _emit_bench(args, "overhead", registry)


def _cmd_scaling(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.bench import engine_scaling as scaling

    spec = scaling.QUICK_SCALING_SPEC if args.quick else scaling.SCALING_SPEC
    registry = scaling.scaling_bench(
        counts=args.counts,
        shards=args.shards,
        backend=args.backend,
        spec=replace(spec, seed=args.seed),
    )
    return _emit_bench(args, "engine_scaling", registry)


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.bench import ablations

    blocks = {
        "a1": ablations.ablation_st_vs_fd,
        "a2": ablations.ablation_interval_accuracy,
        "a3": ablations.ablation_pruning,
    }
    for key in [args.only] if args.only else sorted(blocks):
        print(blocks[key]())
        print()
    return 0


def _chaos_config(args: argparse.Namespace):
    if args.network:
        from repro.injection.network import NetworkChaosConfig

        return NetworkChaosConfig(
            seed=args.seed, rounds=args.rounds, clients=args.clients
        )
    from repro.injection.chaos import ChaosConfig

    return ChaosConfig(seed=args.seed, rounds=args.rounds)


def _report_campaign(args: argparse.Namespace, result) -> int:
    """Print a campaign's verdict; export its gates, notes and stable
    metrics (a ``repro gates run --metrics`` input); exit 1 unless it
    passed."""
    from repro.observability.export import to_json_dict

    print(result.summary())
    _emit_json(
        args,
        {
            "passed": result.passed,
            "gates": [gate.to_dict() for gate in result.gates],
            "notes": list(result.notes),
            "metrics": to_json_dict(result.registry, stable_only=True),
        },
    )
    return 0 if result.passed else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.network:
        from repro.injection.network import run_network_chaos_campaign as run
    else:
        from repro.injection.chaos import run_chaos_campaign as run
    return _report_campaign(args, run(args.config))


def _crash_recovery_config(args: argparse.Namespace):
    from repro.injection.chaos import CrashPoint, CrashRecoveryConfig

    points = (
        tuple(CrashPoint(value) for value in args.points)
        if args.points
        else None
    )
    return CrashRecoveryConfig(
        seed=args.seed,
        rounds=args.rounds,
        crashes=args.crashes,
        backend=args.backend,
        fsync=args.fsync,
        crash_points=points,
    )


def _cmd_crash_recovery(args: argparse.Namespace) -> int:
    from repro.injection.chaos import run_crash_recovery_campaign

    return _report_campaign(args, run_crash_recovery_campaign(args.config))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    print(f"detection daemon listening on {args.socket}")
    stats = serve(
        args.socket,
        durable_dir=args.durable,
        runtime=args.runtime,
        ready_file=args.ready_file,
        poll_interval=args.poll_interval,
        metrics_path=args.metrics_out,
        metrics_every=args.metrics_every,
    )
    print(
        f"daemon stopped: {stats['windows_accepted']} windows, "
        f"{stats['delivered_reports']} reports, "
        f"{stats['quarantined_connections']} quarantined"
    )
    _emit_json(args, stats)
    return 0


def _cmd_service_client(args: argparse.Namespace) -> int:
    from repro.apps.bounded_buffer import BoundedBuffer
    from repro.apps.resource_allocator import SingleResourceAllocator
    from repro.kernel.threads import ThreadKernel
    from repro.service.client import DetectionClient, client_process
    from repro.service.transport import unix_connector
    from repro.workloads import spawn_misuse_workload

    kernel = ThreadKernel(time_scale=args.time_scale)
    buffer = BoundedBuffer(kernel, capacity=3)
    allocator = SingleResourceAllocator(kernel, name="allocator")
    client = DetectionClient(
        kernel,
        unix_connector(args.socket),
        name=args.name,
        interval=args.interval,
        backoff_base=0.5,
        backoff_max=2.0 * args.interval,
        seed=args.seed,
    )
    client.attach(buffer, label="buffer")
    client.attach(allocator, label="allocator", tlimit=2.0 * args.interval)
    spawn_misuse_workload(
        kernel,
        buffer,
        allocator,
        operations=args.rounds * 4,
        interval=args.interval,
        phase=args.rounds * args.interval * 0.4,
    )
    kernel.spawn(
        client_process(client, rounds=args.rounds, drain_rounds=60),
        "service-client",
    )
    horizon = (args.rounds + 65) * args.interval + 60.0
    kernel.run(until=horizon)
    stats = client.stats()
    print(
        f"{args.name}: {stats['windows_captured']} windows captured, "
        f"{stats['windows_acked']} acked, {stats['connects']} connect(s), "
        f"{stats['disconnects']} disconnect(s), "
        f"{len(stats['errors'])} error(s)"
    )
    for error in stats["errors"]:
        print(f"   client error: {error}")
    _emit_json(args, stats)
    ok = not stats["errors"] and stats["windows_acked"] > 0
    return 0 if ok else 1


def _cmd_service_smoke(args: argparse.Namespace) -> int:
    import os
    import shutil
    import signal
    import subprocess
    import tempfile
    import time
    from pathlib import Path

    import repro
    from repro.service.server import ServiceJournal, service_report_key

    root = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    socket_path = root / "daemon.sock"
    ready = root / "ready"
    durable = root / "journal"
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        path
        for path in (package_root, env.get("PYTHONPATH"))
        if path
    )
    procs: list[subprocess.Popen] = []

    def daemon() -> subprocess.Popen:
        if ready.exists():
            ready.unlink()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(socket_path),
                "--durable", str(durable),
                "--ready-file", str(ready),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        procs.append(proc)
        deadline = time.monotonic() + 20.0
        while not ready.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon failed to start")
            time.sleep(0.05)
        return proc

    try:
        first = daemon()
        clients = []
        for index in range(2):
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "service-client",
                    "--socket", str(socket_path),
                    "--rounds", str(args.rounds),
                    "--interval", str(args.interval),
                    "--time-scale", str(args.time_scale),
                    "--seed", str(index),
                    "--name", f"smoke-{index}",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            procs.append(proc)
            clients.append(proc)
        # Let both clients connect and ship a few windows, then kill the
        # daemon without ceremony and bring up a recovered incarnation.
        time.sleep(args.kill_after)
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=10)
        time.sleep(0.5)
        second = daemon()
        client_codes = [proc.wait(timeout=180) for proc in clients]
        second.send_signal(signal.SIGTERM)
        second.wait(timeout=30)
        journal = ServiceJournal(durable / "service.jsonl")
        keys = [service_report_key(r) for r in journal.reports]
        journal.close()
        duplicates = len(keys) - len(set(keys))
        results = {
            "client_exit_codes": client_codes,
            "reports_delivered": len(keys),
            "duplicate_reports": duplicates,
            "daemon_restarted": True,
        }
        passed = (
            all(code == 0 for code in client_codes)
            and duplicates == 0
            and len(keys) > 0
        )
        verdict = "PASS" if passed else "FAIL"
        print(
            f"service smoke [{verdict}]: clients={client_codes}, "
            f"{len(keys)} reports, {duplicates} duplicates after restart"
        )
        if not passed:
            for proc in clients:
                output = proc.stdout.read() if proc.stdout else ""
                if output:
                    print(output)
        _emit_json(args, results)
        return 0 if passed else 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        shutil.rmtree(root, ignore_errors=True)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.detection import check_full_trace
    from repro.errors import HistoryError
    from repro.history.serialize import load_trace
    from repro.monitor import MonitorDeclaration, MonitorType

    declarations = {
        "buffer": MonitorDeclaration(
            name="buffer",
            mtype=MonitorType.COMMUNICATION_COORDINATOR,
            procedures=("Send", "Receive"),
            conditions=("full", "empty"),
            rmax=args.rmax,
        ),
        "allocator": MonitorDeclaration(
            name="allocator",
            mtype=MonitorType.RESOURCE_ALLOCATOR,
            procedures=("Request", "Release"),
            conditions=("free",),
            call_order="(Request ; Release)*",
        ),
    }
    declaration = declarations[args.monitor]
    try:
        with open(args.trace) as stream:
            events, states = load_trace(stream)
    except (OSError, ValueError, HistoryError) as exc:
        # Exit 1 means "violations found"; an unreadable trace is not one.
        print(f"repro check: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    final_state = states[-1] if states else None
    reports = check_full_trace(
        declaration,
        events,
        final_state=final_state,
        tmax=args.tmax,
        tio=args.tio,
        tlimit=args.tlimit,
    )
    print(f"checked {len(events)} events against FD-Rules 1-7")
    for report in reports:
        print(f"   {report}")
    print(f"{len(reports)} violation(s) found")
    return 1 if reports else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Print the fault-taxonomy reference card (classes, campaigns, rules)."""
    from repro._tables import render_table
    from repro.detection.faults import FaultClass, FaultLevel
    from repro.detection.rules import SUSPECTS, STRule
    from repro.injection.campaigns import CAMPAIGNS

    titles = {
        FaultLevel.IMPLEMENTATION: "Level I — implementation level",
        FaultLevel.PROCEDURE: "Level II — monitor procedure level",
        FaultLevel.USER_PROCESS: "Level III — user process level (real time)",
    }
    detecting_rules: dict[FaultClass, list[str]] = {f: [] for f in FaultClass}
    for rule in STRule:
        for fault in SUSPECTS.get(rule, ()):
            detecting_rules[fault].append(rule.value)
    for level in FaultLevel:
        rows = [
            [
                fault.label,
                CAMPAIGNS[fault].description[:50],
                ",".join(CAMPAIGNS[fault].primary_rules),
                ",".join(detecting_rules[fault][:5]),
            ]
            for fault in FaultClass.at_level(level)
        ]
        print(
            render_table(
                ["fault", "injected as", "primary rules", "all suspecting rules"],
                rows,
                title=titles[level],
            )
        )
        print()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.detection.config import DetectorConfig
    from repro.detection.session import DetectionSession
    from repro.kernel.policies import RandomPolicy
    from repro.kernel.sim import SimKernel
    from repro.observability.export import to_json_dict, to_prometheus_text
    from repro.workloads.scenarios import WorkloadSpec, build_fleet

    kernel = SimKernel(RandomPolicy(seed=args.seed), on_deadlock="stop")
    spec = WorkloadSpec(
        processes=4, operations=args.operations, think_time=0.05,
        seed=args.seed,
    )
    session = DetectionSession(
        kernel,
        config=DetectorConfig(
            interval=0.5, tmax=120.0, tio=120.0, tlimit=120.0
        ),
        shards=args.shards,
    )
    fleet = build_fleet(kernel, args.monitors, spec)
    for run in fleet:
        session.register(run.monitor)
        run.spawn_all(kernel)
    session.start()
    kernel.run(until=args.until, max_steps=20_000_000)
    kernel.raise_failures()
    session.stop()
    registry = session.metrics()
    print(to_prometheus_text(registry), end="")
    _emit_json(args, to_json_dict(registry, stable_only=args.stable))
    return 0


def _cmd_gates(args: argparse.Namespace) -> int:
    from repro.observability.gates import (
        MetricsView,
        load_gate_specs,
        render_gate_table,
        run_gates,
    )

    specs = load_gate_specs(args.spec)
    view = MetricsView.from_files(args.metrics)
    results = run_gates(specs, view)
    print(render_gate_table(results))
    failed = sum(1 for result in results if result.status == "fail")
    _emit_json(
        args,
        {
            "spec": str(args.spec),
            "metrics_files": [str(path) for path in args.metrics],
            "gates": [result.to_dict() for result in results],
            "failed": failed,
        },
    )
    return 1 if failed else 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.detection import FaultClass
    from repro.injection import run_campaign

    seed = getattr(args, "seed", 0)
    demo = argparse.Namespace(seed=seed, json=None, command="demo")
    status = _cmd_demo(demo)
    outcome = run_campaign(FaultClass.RELEASE_BEFORE_REQUEST, seed=seed)
    print(f"campaign III.a: detected={outcome.detected}")
    _emit_json(
        args,
        {
            "demo_status": status,
            "campaign": {
                "fault": "III.a",
                "detected": outcome.detected,
                "rules": list(outcome.rules),
            },
        },
    )
    return 0 if status == 0 and outcome.detected else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Robust monitors with run-time fault detection "
        "(DSN 2001 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="quickstart demo")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--json", default=None, metavar="PATH")
    demo.set_defaults(func=_cmd_demo)

    coverage = subparsers.add_parser(
        "coverage", help="robustness experiment (21 fault campaigns)"
    )
    coverage.add_argument("--seed", type=int, default=0)
    coverage.add_argument("--json", default=None, metavar="PATH")
    coverage.set_defaults(func=_cmd_coverage)

    from repro.bench.engine_scaling import DEFAULT_COUNTS
    from repro.bench.harness import BACKENDS
    from repro.bench.overhead import PAPER_SCENARIOS

    overhead = subparsers.add_parser(
        "overhead", help="Table 1: overhead vs checking interval"
    )
    # The paper measured a real runtime; the thread backend includes the
    # world-stop stalls that dominate its overhead figures.
    overhead.add_argument("--backend", choices=BACKENDS, default="threads")
    overhead.add_argument("--seed", type=int, default=0)
    overhead.add_argument(
        "--repeats",
        type=_positive(int),
        default=3,
        metavar="N",
        help="runs per cell; the best timing is kept (default 3)",
    )
    overhead.add_argument(
        "--intervals",
        type=_positive(float),
        nargs="+",
        default=None,
        metavar="T",
        help="checking intervals to sweep (default: the paper's grid)",
    )
    overhead.add_argument(
        "--scenarios",
        nargs="+",
        choices=PAPER_SCENARIOS,
        default=PAPER_SCENARIOS,
        metavar="NAME",
        help="monitor scenarios to measure: "
        f"{', '.join(PAPER_SCENARIOS)} (default: all three)",
    )
    overhead.add_argument(
        "--bounded",
        type=_positive(int),
        default=None,
        metavar="CAPACITY",
        help="record through a BoundedHistory ring buffer of this capacity "
        "instead of the unbounded database (surfaces dropped events)",
    )
    overhead.add_argument(
        "--wal",
        action="store_true",
        help="measure WAL recording overhead per fsync policy instead",
    )
    overhead.add_argument(
        "--fleet",
        type=_positive(int),
        default=None,
        metavar="N",
        help="measure the incremental-vs-full phase-2 hot path on an "
        "N-monitor fleet instead",
    )
    overhead.add_argument(
        "--service",
        action="store_true",
        help="measure detection-service ingest throughput instead",
    )
    overhead.add_argument("--json", default=None, metavar="PATH")
    overhead.set_defaults(func=_cmd_overhead)

    scaling = subparsers.add_parser(
        "scaling", help="scaling: per-monitor vs shared-session checkpoints"
    )
    scaling.add_argument("--backend", choices=BACKENDS, default="sim")
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument(
        "--counts",
        type=_positive(int),
        nargs="+",
        default=DEFAULT_COUNTS,
        metavar="N",
        help="fleet sizes (default 1 4 16)",
    )
    scaling.add_argument(
        "--shards",
        type=_positive(int),
        nargs="+",
        default=None,
        metavar="N",
        help="compare staggered shard counts of one shared session instead",
    )
    scaling.add_argument(
        "--quick", action="store_true", help="smaller workload (CI smoke)"
    )
    scaling.add_argument("--json", default=None, metavar="PATH")
    scaling.set_defaults(func=_cmd_scaling)

    ablation = subparsers.add_parser(
        "ablations", help="ablation tables A1-A3 (DESIGN.md)"
    )
    ablation.add_argument(
        "--only", choices=("a1", "a2", "a3"), default=None,
        help="run a single ablation",
    )
    ablation.set_defaults(func=_cmd_ablations)

    chaos = subparsers.add_parser(
        "chaos", help="detector-resilience chaos campaign (sim kernel)"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--rounds", type=int, default=60)
    chaos.add_argument(
        "--network",
        action="store_true",
        help="run the network-fault campaign against the detection "
        "service instead (connection drops, torn frames, stalls, "
        "server crash/restart)",
    )
    chaos.add_argument(
        "--clients",
        type=int,
        default=3,
        metavar="N",
        help="client sessions for --network (default: 3)",
    )
    chaos.add_argument("--json", default=None, metavar="PATH")
    chaos.set_defaults(func=_cmd_chaos, config=_chaos_config)

    serve = subparsers.add_parser(
        "serve",
        help="run the detection ingestion daemon on a unix socket",
    )
    serve.add_argument("--socket", required=True, metavar="PATH")
    serve.add_argument(
        "--durable",
        default=None,
        metavar="DIR",
        help="journal directory; enables crash recovery + exactly-once",
    )
    serve.add_argument(
        "--runtime",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long (default: run until SIGTERM)",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="touch this file once the socket is listening",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.05, metavar="SECONDS"
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump the server's metrics registry as JSON here on "
        "shutdown (and periodically with --metrics-every)",
    )
    serve.add_argument(
        "--metrics-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="rewrite --metrics-out every this many seconds while serving",
    )
    serve.add_argument("--json", default=None, metavar="PATH")
    serve.set_defaults(func=_cmd_serve)

    service_client = subparsers.add_parser(
        "service-client",
        help="run a fault-injecting workload that reports to a daemon",
    )
    service_client.add_argument("--socket", required=True, metavar="PATH")
    service_client.add_argument("--rounds", type=_positive(int), default=10)
    service_client.add_argument(
        "--interval", type=_positive(float), default=2.0
    )
    service_client.add_argument(
        "--time-scale",
        type=_positive(float),
        default=0.1,
        help="wall seconds per virtual second (default: 0.1)",
    )
    service_client.add_argument("--seed", type=int, default=0)
    service_client.add_argument("--name", default="client")
    service_client.add_argument("--json", default=None, metavar="PATH")
    service_client.set_defaults(func=_cmd_service_client)

    service_smoke = subparsers.add_parser(
        "service-smoke",
        help="end-to-end daemon smoke: two clients, kill + restart "
        "the server mid-run, assert no duplicate reports",
    )
    service_smoke.add_argument("--rounds", type=_positive(int), default=10)
    service_smoke.add_argument(
        "--interval",
        type=_positive(float),
        default=2.0,
        metavar="SECONDS",
        help="client checkpoint interval in virtual seconds (default 2.0)",
    )
    service_smoke.add_argument(
        "--time-scale",
        type=_positive(float),
        default=0.1,
        metavar="S",
        help="client wall seconds per virtual second (default 0.1)",
    )
    service_smoke.add_argument(
        "--kill-after",
        type=_positive(float),
        default=2.5,
        metavar="SECONDS",
        help="wall seconds before the daemon is SIGKILLed (default 2.5)",
    )
    service_smoke.add_argument("--json", default=None, metavar="PATH")
    service_smoke.set_defaults(func=_cmd_service_smoke)

    crash = subparsers.add_parser(
        "crash-recovery",
        help="crash-durability campaign: kill, restart, recover, compare",
    )
    crash.add_argument("--seed", type=int, default=0)
    crash.add_argument("--rounds", type=int, default=40)
    crash.add_argument("--crashes", type=int, default=4)
    crash.add_argument(
        "--backend", choices=("sim", "threads"), default="sim"
    )
    crash.add_argument(
        "--fsync", choices=("always", "interval", "never"), default="interval"
    )
    crash.add_argument(
        "--points",
        nargs="*",
        default=None,
        metavar="POINT",
        choices=(
            "mid-capture", "mid-evaluate",
            "mid-snapshot-write", "mid-wal-append",
        ),
        help="crash points to sample from (default: all four)",
    )
    crash.add_argument("--json", default=None, metavar="PATH")
    crash.set_defaults(func=_cmd_crash_recovery, config=_crash_recovery_config)

    check = subparsers.add_parser(
        "check", help="offline FD-rule check of a JSONL trace"
    )
    check.add_argument("trace", help="path to a JSONL trace file")
    check.add_argument(
        "--monitor", choices=("buffer", "allocator"), default="buffer"
    )
    check.add_argument("--rmax", type=int, default=3)
    check.add_argument("--tmax", type=float, default=None)
    check.add_argument("--tio", type=float, default=None)
    check.add_argument("--tlimit", type=float, default=None)
    check.set_defaults(func=_cmd_check)

    faults = subparsers.add_parser(
        "faults", help="fault-taxonomy reference card"
    )
    faults.set_defaults(func=_cmd_faults)

    metrics = subparsers.add_parser(
        "metrics",
        help="export a live DetectionSession's metrics "
        "(Prometheus text + repro-metrics JSON)",
    )
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--monitors",
        type=_positive(int),
        default=4,
        metavar="N",
        help="fleet size to drive (default 4)",
    )
    metrics.add_argument(
        "--shards",
        type=_positive(int),
        default=2,
        metavar="N",
        help="engine shards (default 2)",
    )
    metrics.add_argument(
        "--operations",
        type=int,
        default=40,
        metavar="N",
        help="operations per workload process (default 40)",
    )
    metrics.add_argument(
        "--until",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="virtual-time horizon (default 20)",
    )
    metrics.add_argument(
        "--stable",
        action="store_true",
        help="drop wall-clock histogram families from the JSON export "
        "so identical seeded runs are byte-identical",
    )
    metrics.add_argument("--json", default=None, metavar="PATH")
    metrics.set_defaults(func=_cmd_metrics)

    gates = subparsers.add_parser(
        "gates",
        help="evaluate declarative perf gates against exported metrics",
    )
    gates_sub = gates.add_subparsers(dest="gates_command", required=True)
    gates_run = gates_sub.add_parser(
        "run", help="run a TOML gate spec against metrics JSON files"
    )
    gates_run.add_argument("spec", metavar="SPEC.toml")
    gates_run.add_argument(
        "--metrics",
        nargs="+",
        required=True,
        metavar="FILE",
        help="metrics JSON documents (repro metrics dumps or BENCH_*.json)",
    )
    gates_run.add_argument("--json", default=None, metavar="PATH")
    gates_run.set_defaults(func=_cmd_gates)

    selftest = subparsers.add_parser("selftest", help="fast sanity pass")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--json", default=None, metavar="PATH")
    selftest.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    if hasattr(args, "config"):
        # A campaign's config checks its own fields and their cross-field
        # limits; a value it rejects is a usage error (exit 2), not a
        # failed campaign (exit 1).
        try:
            args.config = args.config(args)
        except (ValueError, InjectionError) as exc:
            subparsers.choices[args.command].error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
