"""Command-line interface: regenerate paper tables and run audits.

Usage (after ``pip install -e .``)::

    python -m repro.cli table1            # Table I (HDD latency)
    python -m repro.cli table2            # Table II (LAN latency)
    python -m repro.cli table3            # Table III (Internet latency)
    python -m repro.cli fig6              # relay-attack sweep
    python -m repro.cli audit --size 50000 --rounds 30
    python -m repro.cli audit --attack relay --remote singapore
    python -m repro.cli analyse --segments 1000000 --epsilon 0.005
    python -m repro.cli fleet --files 30 --strategy risk-weighted
    python -m repro.cli fleet --engine event --lanes 4
    python -m repro.cli fleet --engine event --replicas 2 --spindles 1 \
        --strategy work-stealing --json -
    python -m repro.cli economics --attack prefetch-relay --json -
    python -m repro.cli economics --cache-fractions 0 0.5 1 --engine event
    python -m repro.cli lint                      # src benchmarks examples
    python -m repro.cli lint src/repro/crypto --rules CRY --json -
    python -m repro.cli lint --explain SIM001
    python -m repro.cli serve --port 4747 --metrics-json metrics.json
    python -m repro.cli stats --port 4747         # live daemon statistics
    python -m repro.cli audit-client --port 4747 --stats file-0

Each subcommand prints the same rows the benchmarks assert on, so the
CLI is a thin, scriptable window onto :mod:`repro.analysis.experiments`.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import (
    fig6_paper_bound_km,
    fig6_relay_sweep,
    fig6_tight_bound_km,
    table1_hdd_latency,
    table2_lan_latency,
    table3_correlation,
    table3_internet_latency,
)
from repro.analysis.reporting import format_table
from repro.errors import ReproError


def _enable_metrics(metrics_json: str | None) -> None:
    """Switch the process-global observability plane on.

    Must run *before* the instrumented components are built: each one
    registers its own registry with the plane at construction, so a
    component built earlier still counts but is left out of the
    snapshot.
    """
    if metrics_json is not None:
        from repro import obs

        obs.set_enabled(True)


def _write_metrics_json(metrics_json: str | None) -> None:
    """Dump the global registry snapshot where ``--metrics-json`` asked."""
    if metrics_json is None:
        return
    import json

    from repro import obs

    payload = json.dumps(obs.metrics().snapshot(), indent=2) + "\n"
    with open(metrics_json, "w", encoding="utf-8") as handle:
        handle.write(payload)
    print(f"wrote {metrics_json}", file=sys.stderr)


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_hdd_latency(args.read_bytes)
    print(
        format_table(
            ["disk", "rpm", "seek ms", "rotate ms", "xfer ms", "lookup ms"],
            [
                [r.name, r.rpm, r.seek_ms, r.rotate_ms, r.transfer_ms, r.lookup_ms]
                for r in rows
            ],
            title=f"Table I -- HDD look-up latency ({args.read_bytes}-byte read)",
            decimals=4,
        )
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = table2_lan_latency(seed=args.seed)
    print(
        format_table(
            ["machine", "location", "distance km", "RTT ms", "< 1 ms"],
            [
                [r.machine, r.location_label, r.distance_km, r.rtt_ms, r.under_1ms]
                for r in rows
            ],
            title="Table II -- LAN latency within QUT (simulated)",
            decimals=4,
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    rows = table3_internet_latency()
    print(
        format_table(
            ["url", "paper km", "paper ms", "model ms"],
            [
                [r.url, r.paper_distance_km, r.paper_latency_ms, r.model_latency_ms]
                for r in rows
            ],
            title="Table III -- Internet latency within Australia",
            decimals=1,
        )
    )
    print(f"\ndistance-latency correlation: {table3_correlation():.4f}")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    rows = fig6_relay_sweep(
        distances_km=args.distances, k=args.rounds, seed=args.seed
    )
    print(
        format_table(
            ["relay km", "max RTT ms", "budget ms", "detected"],
            [
                [r.relay_distance_km, r.max_rtt_ms, r.rtt_max_ms, r.detected]
                for r in rows
            ],
            title="Fig. 6 -- relay attack vs distance",
            decimals=2,
        )
    )
    print(f"\npaper relay bound: {fig6_paper_bound_km():.1f} km")
    print(f"tight relay bound: {fig6_tight_bound_km():.1f} km")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.cloud.adversary import CorruptionAttack, RelayAttack
    from repro.cloud.provider import DataCentre
    from repro.core.session import GeoProofSession
    from repro.crypto.rng import DeterministicRNG
    from repro.geo.datasets import city
    from repro.por.parameters import TEST_PARAMS
    from repro.storage.hdd import IBM_36Z15

    session = GeoProofSession.build(
        datacentre_location=city(args.home),
        params=TEST_PARAMS,
        seed=args.seed,
    )
    data = DeterministicRNG(f"{args.seed}-data").random_bytes(args.size)
    session.outsource(b"cli-file", data)

    if args.attack == "relay":
        session.provider.add_datacentre(
            DataCentre("remote", city(args.remote), disk=IBM_36Z15)
        )
        session.provider.relocate(b"cli-file", "remote")
        session.provider.set_strategy(RelayAttack("home", "remote"))
    elif args.attack == "corrupt":
        session.provider.set_strategy(
            CorruptionAttack("home", args.epsilon, DeterministicRNG(args.seed))
        )

    outcome = session.audit(b"cli-file", k=args.rounds)
    verdict = outcome.verdict
    print(f"file: {args.size} bytes, {session.files[b'cli-file'].n_segments} segments")
    print(f"attack: {args.attack or 'none'}")
    print(f"rounds: {outcome.transcript.k}")
    print(f"max RTT: {verdict.max_rtt_ms:.3f} ms (budget {verdict.rtt_max_ms:.3f} ms)")
    print(f"accepted: {verdict.accepted}")
    if not verdict.accepted:
        print(f"failure reasons: {', '.join(verdict.failure_reasons)}")
    return 0 if verdict.accepted == (args.attack is None) else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.fleet.demo import build_demo_fleet
    from repro.fleet.strategies import make_strategy

    violation = None if args.violation == "none" else args.violation
    _enable_metrics(args.metrics_json)
    # Engine/lane validation is the fleet's own (repro.errors), so the
    # CLI, library and bench reject bad configs with the same message.
    if args.lanes < 1:
        raise ConfigurationError(f"--lanes must be >= 1, got {args.lanes}")
    fleet = build_demo_fleet(
        n_files=args.files,
        n_providers=args.providers,
        strategy=make_strategy(args.strategy),
        seed=args.seed,
        violation=violation,
        slot_minutes=args.slot_minutes,
        batch_size=args.batch,
        engine=args.engine,
        lane_queue_limit=args.lanes,
        replicas=args.replicas,
        spindles=args.spindles,
    )
    report = fleet.run(hours=args.hours)
    _write_metrics_json(args.metrics_json)
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2) + "\n"
        if args.json == "-":
            # Machine-readable mode: the JSON *is* the stdout payload.
            sys.stdout.write(payload)
            first = report.first_detection_hours()
            if violation and first is None:
                return 1
            return 0
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.json}")
    print(report.render())
    first = report.first_detection_hours()
    if first is not None:
        print(f"\nfirst violation detected after {first:.2f} simulated hours")
    elif violation:
        print("\nviolation injected but not detected; run longer")
    print(
        f"dispatch overhead saved by batching: "
        f"{report.overhead_saved_ms:.0f} ms "
        f"({report.n_audits} audits in {report.n_batches} batches)"
    )
    if report.engine == "event":
        print(
            f"concurrency speedup across {len(report.lanes)} lanes: "
            f"{report.concurrency_speedup:.2f}x"
        )
    if report.total_spindle_wait_ms > 0 or report.n_stolen_audits:
        print(
            f"spindle contention: {report.total_spindle_wait_ms:.0f} ms "
            f"queue wait, {report.n_contention_timeouts} contention-induced "
            f"timeouts, {report.n_stolen_audits} audits migrated by "
            f"work stealing, {report.n_shed_slots} slots shed"
        )
    if violation and first is None:
        return 1
    return 0


def _cmd_economics(args: argparse.Namespace) -> int:
    import json

    from repro.economics import AdversaryCampaign, build_economics_report

    engines = (
        ("slot", "event") if args.engine == "both" else (args.engine,)
    )
    _enable_metrics(args.metrics_json)
    campaign = AdversaryCampaign(
        attack=args.attack,
        n_providers=args.providers,
        n_files=args.files,
        k_rounds=args.rounds,
        hours=args.hours,
        seed=args.seed,
        delete_fraction=args.delete_fraction,
    )
    report = build_economics_report(
        campaign,
        engines=engines,
        cache_fractions=(
            tuple(args.cache_fractions)
            if args.cache_fractions is not None
            else None
        ),
        check_equivalence=not args.skip_equivalence,
    )
    _write_metrics_json(args.metrics_json)
    # The exit code is the acceptance check itself: observed detection
    # must meet the 1 - (cache/file)^k bound in every sweep cell, and
    # (unless skipped) the slot-vs-event streams must stay equivalent
    # with the adversary injected.
    ok = report.bound_satisfied and report.equivalence_ok is not False
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
            return 0 if ok else 1
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.json}")
    print(report.render())
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import get_rule, run_lint

    if args.explain is not None:
        rule = get_rule(args.explain)
        print(f"{rule.id}: {rule.title}")
        print()
        print(rule.rationale)
        return 0
    paths = tuple(args.paths) or ("src", "benchmarks", "examples")
    rule_ids = tuple(args.rules) if args.rules else None
    report = run_lint(paths, rule_ids=rule_ids)
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
            return 0 if report.ok else 1
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.json}")
    print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.core.session import GeoProofSession
    from repro.crypto.rng import DeterministicRNG
    from repro.geo.datasets import city
    from repro.por.parameters import TEST_PARAMS
    from repro.service import AuditDaemon

    _enable_metrics(args.metrics_json)
    session = GeoProofSession.build(
        datacentre_location=city(args.home),
        params=TEST_PARAMS,
        min_rounds=args.rounds,
        seed=args.seed,
    )
    data_rng = DeterministicRNG(f"{args.seed}-data")
    file_ids = []
    for i in range(args.files):
        file_id = f"file-{i}".encode()
        session.outsource(
            file_id, data_rng.fork(str(i)).random_bytes(args.size)
        )
        file_ids.append(file_id)
    daemon = AuditDaemon(
        tpa=session.tpa,
        verifier=session.verifier,
        provider=session.provider,
        host=args.host,
        port=args.port,
        flush_batch=args.flush_batch,
    )

    async def run() -> None:
        # Explicit handlers, because a daemon launched with `&` from a
        # non-interactive shell (the CI soak job) inherits SIGINT
        # *ignored* -- Ctrl-C and `kill -INT/-TERM` must still produce
        # the clean drain-and-stop path.
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix host loops: fall back to KeyboardInterrupt
        await daemon.start()
        if args.json:
            print(
                json.dumps(
                    {
                        "host": daemon.host,
                        "port": daemon.port,
                        "files": [f.decode() for f in file_ids],
                    }
                )
            )
        else:
            print(f"serving audits on {daemon.host}:{daemon.port}")
            print(f"files: {', '.join(f.decode() for f in file_ids)}")
        sys.stdout.flush()
        try:
            if args.max_seconds is not None:
                try:
                    await asyncio.wait_for(
                        stop_requested.wait(), args.max_seconds
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                await stop_requested.wait()  # until SIGINT/SIGTERM
        finally:
            await daemon.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    stats = daemon.stats
    print(
        f"served {stats.n_orders} orders "
        f"({stats.n_errors} errors, {stats.n_flushes} flushes)",
        file=sys.stderr,
    )
    _write_metrics_json(args.metrics_json)
    return 0


def _cmd_audit_client(args: argparse.Namespace) -> int:
    import json

    from repro.service import run_audit_client

    plan = [
        (file_id.encode(), args.rounds)
        for _ in range(args.count)
        for file_id in args.file_ids
    ]
    daemon_stats = None
    if args.stats:
        verdicts, daemon_stats = run_audit_client(
            args.host, args.port, plan, stats=True
        )
    else:
        verdicts = run_audit_client(args.host, args.port, plan)
    rows = [
        {
            "file": file_id.decode(),
            "accepted": verdict.accepted,
            "max_rtt_ms": verdict.max_rtt_ms,
            "reasons": verdict.failure_reasons,
        }
        for (file_id, _), verdict in zip(plan, verdicts)
    ]
    if args.json:
        payload = (
            {"verdicts": rows, "stats": daemon_stats}
            if daemon_stats is not None
            else rows
        )
        print(json.dumps(payload, indent=2))
    else:
        for row in rows:
            status = "PASS" if row["accepted"] else "FAIL"
            extra = (
                "" if row["accepted"] else f" ({', '.join(row['reasons'])})"
            )
            print(
                f"{status} {row['file']} "
                f"max RTT {row['max_rtt_ms']:.3f} ms{extra}"
            )
        if daemon_stats is not None:
            print(
                f"daemon stats: {daemon_stats['n_orders']} orders, "
                f"{daemon_stats['n_errors']} errors, "
                f"queue depth {daemon_stats['queue_depth']}, "
                f"p99 latency {daemon_stats['latency_p99_ms']:.3f} ms",
                file=sys.stderr,
            )
    return 0 if all(row["accepted"] for row in rows) else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import fetch_daemon_stats

    payload = fetch_daemon_stats(args.host, args.port)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_analyse(args: argparse.Namespace) -> int:
    from repro.analysis.security import analyse_deployment
    from repro.cloud.sla import SLAPolicy
    from repro.geo.datasets import city
    from repro.geo.regions import CircularRegion

    sla = SLAPolicy(
        region=CircularRegion(city(args.home), args.radius_km),
        margin_ms=args.margin_ms,
    )
    report = analyse_deployment(
        n_segments=args.segments,
        sla=sla,
        corruption_fraction=args.epsilon,
        k_rounds=args.rounds,
    )
    print("GeoProof deployment security analysis")
    for line in report.summary_lines():
        print(f"  {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GeoProof reproduction: regenerate paper experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    t1 = subparsers.add_parser("table1", help="Table I: HDD look-up latency")
    t1.add_argument("--read-bytes", type=int, default=512)
    t1.set_defaults(func=_cmd_table1)

    t2 = subparsers.add_parser("table2", help="Table II: QUT LAN latency")
    t2.add_argument("--seed", default="table2")
    t2.set_defaults(func=_cmd_table2)

    t3 = subparsers.add_parser("table3", help="Table III: AU Internet latency")
    t3.set_defaults(func=_cmd_table3)

    f6 = subparsers.add_parser("fig6", help="Fig. 6: relay-attack sweep")
    f6.add_argument("--rounds", type=int, default=10)
    f6.add_argument("--seed", default="fig6")
    f6.add_argument(
        "--distances",
        type=float,
        nargs="+",
        default=None,
        help="relay distances in km",
    )
    f6.set_defaults(func=_cmd_fig6)

    audit = subparsers.add_parser("audit", help="run one GeoProof audit")
    audit.add_argument("--size", type=int, default=30_000, help="file bytes")
    audit.add_argument("--rounds", type=int, default=20)
    audit.add_argument("--home", default="brisbane")
    audit.add_argument("--remote", default="singapore")
    audit.add_argument(
        "--attack", choices=["relay", "corrupt"], default=None
    )
    audit.add_argument("--epsilon", type=float, default=0.05)
    audit.add_argument("--seed", default="cli")
    audit.set_defaults(func=_cmd_audit)

    from repro.fleet.strategies import STRATEGIES

    fleet = subparsers.add_parser(
        "fleet", help="batch-audit a multi-tenant provider fleet"
    )
    fleet.add_argument("--files", type=int, default=30)
    fleet.add_argument("--providers", type=int, default=3)
    fleet.add_argument(
        "--strategy",
        choices=sorted(STRATEGIES),
        default="risk-weighted",
    )
    fleet.add_argument("--hours", type=float, default=24.0)
    fleet.add_argument(
        "--violation", choices=["corrupt", "relay", "none"], default="corrupt"
    )
    fleet.add_argument("--slot-minutes", type=float, default=30.0)
    fleet.add_argument("--batch", type=int, default=4)
    fleet.add_argument("--seed", default="fleet-cli")
    # Validated by the fleet itself (ConfigurationError -> exit 2), not
    # by argparse choices, so the library and CLI share one error path.
    fleet.add_argument(
        "--engine",
        default="slot",
        help="run loop: 'slot' (serial baseline) or 'event' "
        "(concurrent per-datacentre lanes)",
    )
    fleet.add_argument(
        "--lanes",
        type=int,
        default=4,
        help="per-lane queue depth: in-flight batches each data-centre "
        "audit lane may hold before shedding slots (event engine; the "
        "lane *count* is always one per data centre)",
    )
    fleet.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="audited copies per file across each provider's sites "
        "(providers are onboarded with at least this many sites); "
        "replicas are what work-stealing lanes migrate audits to",
    )
    fleet.add_argument(
        "--spindles",
        type=int,
        default=None,
        help="storage arrays per provider; fewer spindles than sites "
        "makes audit lanes contend for disks (default: one per site)",
    )
    fleet.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="dump the FleetReport (lanes, spindles, events) as JSON "
        "to PATH, or to stdout with '-' (suppresses the table)",
    )
    fleet.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="enable the observability plane for this run and dump the "
        "metrics registry snapshot as JSON to PATH",
    )
    fleet.set_defaults(func=_cmd_fleet)

    from repro.economics.campaign import ATTACKS

    economics = subparsers.add_parser(
        "economics",
        help="adversarial cache/prefetch economics: sweep an injected "
        "attack's cache size, measure detection, price defences",
    )
    economics.add_argument("--files", type=int, default=12)
    economics.add_argument("--providers", type=int, default=3)
    economics.add_argument(
        "--attack", choices=sorted(ATTACKS), default="prefetch-relay"
    )
    economics.add_argument("--rounds", type=int, default=6)
    economics.add_argument("--hours", type=float, default=24.0)
    economics.add_argument("--seed", default="economics-cli")
    economics.add_argument("--delete-fraction", type=float, default=0.10)
    economics.add_argument(
        "--cache-fractions",
        type=float,
        nargs="+",
        default=None,
        metavar="FRAC",
        help="cache sizes to sweep, as fractions of the victim's "
        "segment population (default: 0 0.25 0.5 0.75 1)",
    )
    # Validated by the fleet itself (ConfigurationError -> exit 2),
    # matching the fleet subcommand's error path.
    economics.add_argument(
        "--engine",
        default="both",
        help="run loop(s) to sweep: 'slot', 'event' or 'both'",
    )
    economics.add_argument(
        "--skip-equivalence",
        action="store_true",
        help="skip the single-site slot-vs-event stream anchor "
        "(two extra fleet runs)",
    )
    economics.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="dump the EconomicsReport (cells, ROI curves, quotes) as "
        "JSON to PATH, or to stdout with '-' (suppresses the table)",
    )
    economics.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="enable the observability plane for this run and dump the "
        "metrics registry snapshot as JSON to PATH",
    )
    economics.set_defaults(func=_cmd_economics)

    lint = subparsers.add_parser(
        "lint",
        help="AST invariant checker: determinism, crypto hygiene, "
        "error policy, unit safety, fallback reachability",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=[],
        metavar="PATH",
        help="files or directories to scan "
        "(default: src benchmarks examples)",
    )
    lint.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help="restrict to these rule ids or families (e.g. SIM CRY001)",
    )
    lint.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="dump the LintReport as JSON to PATH, or to stdout with '-'",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print one rule's title and rationale, then exit",
    )
    lint.set_defaults(func=_cmd_lint)

    serve = subparsers.add_parser(
        "serve", help="run the audit daemon over a demo deployment"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 = pick a free port"
    )
    serve.add_argument("--flush-batch", type=int, default=64)
    serve.add_argument(
        "--files", type=int, default=3, help="demo files to outsource"
    )
    serve.add_argument("--size", type=int, default=4_000, help="file bytes")
    serve.add_argument(
        "--rounds", type=int, default=10, help="SLA default audit rounds"
    )
    serve.add_argument("--home", default="brisbane")
    serve.add_argument("--seed", default="serve")
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="shut down after this long (default: run until Ctrl-C)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="announce {host, port, files} as one JSON line",
    )
    serve.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="enable the observability plane and dump the metrics "
        "registry snapshot as JSON to PATH on shutdown",
    )
    serve.set_defaults(func=_cmd_serve)

    client = subparsers.add_parser(
        "audit-client", help="order audits from a running daemon"
    )
    client.add_argument(
        "file_ids",
        nargs="*",
        default=["file-0"],
        metavar="FILE_ID",
        help="files to audit (default: file-0)",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument(
        "--rounds", type=int, default=0, help="0 = the file's SLA default"
    )
    client.add_argument(
        "--count", type=int, default=1, help="repeat the file list N times"
    )
    client.add_argument(
        "--json", action="store_true", help="print verdicts as JSON"
    )
    client.add_argument(
        "--stats",
        action="store_true",
        help="also fetch the daemon's live stats after the audits "
        "(same connection, so n_orders covers this batch)",
    )
    client.set_defaults(func=_cmd_audit_client)

    stats = subparsers.add_parser(
        "stats",
        help="probe a running daemon's live dispatch statistics",
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True)
    stats.set_defaults(func=_cmd_stats)

    analyse = subparsers.add_parser(
        "analyse", help="closed-form security analysis for a deployment"
    )
    analyse.add_argument("--segments", type=int, default=1_000_000)
    analyse.add_argument("--epsilon", type=float, default=0.005)
    analyse.add_argument("--rounds", type=int, default=1000)
    analyse.add_argument("--home", default="brisbane")
    analyse.add_argument("--radius-km", type=float, default=100.0)
    analyse.add_argument("--margin-ms", type=float, default=0.0)
    analyse.set_defaults(func=_cmd_analyse)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every subcommand shares one error path.  A
    :class:`~repro.errors.ReproError` (a bad setting, a refused audit,
    a protocol violation) or an :class:`OSError` (a refused connection,
    an unwritable path) prints ``error: <message>`` to stderr and exits
    2, as argparse does for a malformed command line.  For
    ``audit-client`` this means the audit never completed, which is
    worse than a rejection (exit 1).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
